"""Independent numerical checks of the structural certificate.

The colorability certificate is the proof object; these routines are the
falsification harness. The rank test stacks C, CA, ..., CA^(n-1) and checks
numerical full column rank; the sampler draws realizations of a pattern
pair and counts rank-test passes. Sampling approximates the for-all
quantifier of strong structural observability, so a passing sample never
proves observability, but a single failure disproves it. The exhaustive
search is the desk-scale baseline: it tries sensor subsets by increasing
size until a certified one appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .forcing import compile_pattern, sensor_states
from .pattern import Entry, PatternMatrix, SampleConfig, make_abar, sample_realization

DEFAULT_RANK_TOL = 1e-9
DEFAULT_STATE_CAP = 30
DEFAULT_EXHAUSTIVE_CAP = 16


@dataclass(frozen=True)
class OracleReport:
    """Pass counts and worst conditioning seen over sampled realizations."""

    trials: int
    passes: int
    min_sigma_ratio: float
    seed: int

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "passes": self.passes,
            "min_sigma_ratio": self.min_sigma_ratio,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class MinimalPlacementResult:
    """Smallest certified sensor-set size, its witnesses, and the search cost."""

    minimum_size: int
    witnesses: tuple
    configurations_checked: int

    def as_dict(self) -> dict:
        return {
            "minimum_size": self.minimum_size,
            "witnesses": [list(w) for w in self.witnesses],
            "configurations_checked": self.configurations_checked,
        }


def _observability_singular_values(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Singular values of the stacked observability matrix.

    Each power's rows are rescaled to unit max-abs before stacking and
    before the next multiplication; row scaling by nonzero factors leaves
    the rank untouched but keeps entries from overflowing as powers grow.
    """
    n = a.shape[0]
    blocks = []
    cur = np.array(c, dtype=float, copy=True)
    for _ in range(n):
        scale = np.max(np.abs(cur), axis=1, keepdims=True)
        scale[scale == 0.0] = 1.0
        cur = cur / scale
        blocks.append(cur)
        cur = cur @ a
    stacked = np.vstack(blocks)
    if stacked.size == 0:
        return np.zeros(0)
    return np.linalg.svd(stacked, compute_uv=False)


def observability_rank_test(
    a: np.ndarray,
    c: np.ndarray,
    tol: float = DEFAULT_RANK_TOL,
    max_states: int = DEFAULT_STATE_CAP,
) -> bool:
    """Kalman-style test: does [C; CA; ...; CA^(n-1)] have full column rank?

    Rank counts singular values above ``tol`` times the largest one. The
    state cap keeps the test inside the regime where this threshold is
    trustworthy.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"state matrix must be square, got {a.shape}")
    n = a.shape[0]
    if c.ndim != 2 or c.shape[1] != n:
        raise ValueError(f"output matrix shape {c.shape} does not match {n} states")
    if n > max_states:
        raise ValueError(f"{n} states exceed the rank-test cap of {max_states}")
    if not (np.isfinite(a).all() and np.isfinite(c).all()):
        raise ValueError("non-finite entries in input matrices")
    if n == 0:
        return True
    if c.shape[0] == 0:
        return False
    sigmas = _observability_singular_values(a, c)
    if sigmas.size == 0 or sigmas[0] == 0.0:
        return False
    rank = int(np.count_nonzero(sigmas > tol * sigmas[0]))
    return rank == n


def realize_unit_output(c_pat: PatternMatrix) -> np.ndarray:
    """Numeric output matrix with exactly 1.0 at stars and 0 elsewhere."""
    mat = np.zeros((c_pat.rows, c_pat.cols))
    for (i, j) in c_pat.star:
        mat[i, j] = 1.0
    return mat


def sample_and_check(
    a_pat: PatternMatrix,
    c_pat: PatternMatrix,
    trials: int,
    seed: int,
    cfg: SampleConfig | None = None,
    c_mode: str = "unit",
    tol: float = DEFAULT_RANK_TOL,
    max_states: int = DEFAULT_STATE_CAP,
) -> OracleReport:
    """Draw realizations of the pattern pair and count rank-test passes.

    ``c_mode="unit"`` realizes output stars as exactly 1 (single-state
    sensors); ``c_mode="sampled"`` draws arbitrary nonzero output gains as
    a robustness variant. Deterministic for a fixed seed.
    """
    if not a_pat.is_square:
        raise ValueError(f"square state pattern required, got {a_pat.rows}x{a_pat.cols}")
    if c_pat.cols != a_pat.rows:
        raise ValueError(f"output pattern has {c_pat.cols} columns, expected {a_pat.rows}")
    if c_mode not in ("unit", "sampled"):
        raise ValueError(f"unknown c_mode {c_mode!r}")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    n = a_pat.rows
    if n > max_states:
        raise ValueError(f"{n} states exceed the rank-test cap of {max_states}")

    master = np.random.default_rng(seed)
    trial_seeds = master.integers(0, 2**63 - 1, size=2 * max(trials, 1))
    passes = 0
    min_ratio = float("inf")
    for t in range(trials):
        a = sample_realization(a_pat, int(trial_seeds[2 * t]), cfg)
        if c_mode == "unit":
            c = realize_unit_output(c_pat)
        else:
            c = sample_realization(c_pat, int(trial_seeds[2 * t + 1]), cfg)
        if c.shape[0] == 0:
            ratio = 0.0
            ok = False
        else:
            sigmas = _observability_singular_values(a, c)
            if sigmas.size == 0 or sigmas[0] == 0.0:
                ratio, ok = 0.0, False
            else:
                ratio = float(sigmas[n - 1] / sigmas[0]) if sigmas.size >= n else 0.0
                ok = ratio > tol
        passes += int(ok)
        min_ratio = min(min_ratio, ratio)
    if trials == 0:
        min_ratio = 0.0
    return OracleReport(trials, passes, min_ratio, seed)


def _solve_stuck_rows(pattern: PatternMatrix, whites, x, pins, rng) -> np.ndarray | None:
    """Realize ``pattern`` so that the white-supported vector is in its kernel.

    Every row must satisfy sum_j X[i, j] * x[j] = 0 over the white columns.
    The closure fixpoint guarantees each row has enough free entries: a row
    whose only white entry is an unpinned star would have forced during the
    closure. Returns None when a star entry would be driven to zero (the
    caller redraws ``x`` and retries).
    """
    n = pattern.rows
    mat = np.zeros((n, n))
    for (i, j) in pattern.star:
        mat[i, j] = pins.get((i, j), rng.uniform(0.5, 2.0))
    for i in range(n):
        wcols = [j for j in whites if pattern.entry(i, j) is not Entry.ZERO]
        if not wcols:
            continue
        free = [j for j in wcols if (i, j) not in pins]
        if not free:
            if abs(sum(mat[i, j] * x[j] for j in wcols)) > 0:
                return None
            continue
        unknown_free = [j for j in free if pattern.entry(i, j) is Entry.UNKNOWN]
        cancel = unknown_free[0] if unknown_free else free[0]
        mat[i, cancel] = 0.0
        residual = sum(mat[i, j] * x[j] for j in wcols if j != cancel)
        value = -residual / x[cancel]
        if value == 0.0 and pattern.entry(i, cancel) is Entry.STAR:
            return None
        mat[i, cancel] = value
    return mat


def find_unobservable_realization(a_pat: PatternMatrix, c_pat: PatternMatrix, seed: int = 0):
    """Explicit disproof of observability for a rejected placement.

    When a colorability check fails, its stuck white set supports an
    eigenvector no sensor sees. This builds the realization: a member X of
    the state pattern class, a vector x with X x = lam * x, and the
    eigenvalue lam, where x vanishes on every measured state. Returns None
    when the certificate holds. Symmetric state patterns only.
    """
    if not a_pat.is_square:
        raise ValueError(f"square state pattern required, got {a_pat.rows}x{a_pat.cols}")
    n = a_pat.rows
    measured = sensor_states(a_pat, c_pat)
    graph = compile_pattern(a_pat)

    def white_states(g) -> list:
        black, _ = g.run(measured)
        return [v for v in range(n) if not black[v]]

    whites = white_states(graph)
    if whites:
        kind, pattern, lam, pins = "plain", a_pat, 0.0, {}
    else:
        whites = white_states(graph.companion())
        if not whites:
            return None
        lam = 1.0
        pins = {(i, i): -lam for i in range(n) if a_pat.entry(i, i) is Entry.ZERO}
        kind, pattern = "shifted", make_abar(a_pat)
    if set(measured) & set(whites):
        raise AssertionError("measured state left white; closure is broken")

    rng = np.random.default_rng(seed)
    for _ in range(20):
        x = np.zeros(n)
        for w in whites:
            x[w] = rng.uniform(1.0, 2.0)
        kernel = _solve_stuck_rows(pattern, whites, x, pins, rng)
        if kernel is None:
            continue
        realization = kernel + lam * np.eye(n) if kind == "shifted" else kernel
        # shifting may drive a required-nonzero diagonal to zero; redraw if so
        bad_diag = any(
            realization[i, i] == 0.0
            for i in range(n)
            if a_pat.entry(i, i) is Entry.STAR
        )
        if bad_diag:
            continue
        if not np.allclose(realization @ x, lam * x):
            continue
        return realization, x, lam
    raise RuntimeError("could not realize the stuck set; exhausted retries")


def exhaustive_min_sensors(
    a_pat: PatternMatrix,
    max_states: int = DEFAULT_EXHAUSTIVE_CAP,
    witness_cap: int = 64,
    progress=None,
) -> MinimalPlacementResult:
    """Brute-force the smallest certified sensor set.

    Subsets are enumerated by increasing cardinality, lexicographic within
    each size; every subset is certified until a size produces witnesses,
    then the rest of that size is swept so all witnesses (up to the cap)
    are counted. The pattern's closure graph is compiled once and its
    companion derived from it; a subset is closed on the companion only
    when the pattern's own graph colors fully, and not at all once the
    witness cap is reached. Refuses patterns whose configuration count
    would explode.
    """
    if not a_pat.is_square:
        raise ValueError(f"square state pattern required, got {a_pat.rows}x{a_pat.cols}")
    n = a_pat.rows
    if n > max_states:
        raise ValueError(
            f"{n} states means {2 ** n - 1} sensor configurations; "
            f"refusing beyond the cap of {max_states} states"
        )
    graph_a = compile_pattern(a_pat)
    graph_abar = graph_a.companion()
    checked = 0
    for size in range(n + 1):
        witnesses = []
        for combo in combinations(range(n), size):
            checked += 1
            if len(witnesses) < witness_cap and graph_a.colors_all(combo) and graph_abar.colors_all(combo):
                witnesses.append(combo)
        if progress is not None:
            progress({"size": size, "checked": checked, "witnesses": len(witnesses)})
        if witnesses:
            return MinimalPlacementResult(size, tuple(witnesses), checked)
    return MinimalPlacementResult(n, (), checked)
