"""Independent numerical checks of the structural certificate.

The colorability certificate is the proof object; these routines are the
falsification harness. The rank test stacks C, CA, ..., CA^(n-1) and checks
numerical full column rank; the sampler draws realizations of a run's state
pattern, measures its placement with unit sensors and counts rank-test
passes. Sampling approximates the for-all quantifier of strong structural
observability, so a passing sample never proves observability, but a single
failure disproves it. The exhaustive search is the desk-scale baseline: it
tries sensor subsets by increasing size until a certified one appears.
"""

from __future__ import annotations

from itertools import islice
from math import comb
from random import Random
from typing import NamedTuple

from .forcing import ClosureRun
from .netgraph import StateGraph, check_preconditions, companion, to_pattern
from .pattern import STAR_RANGE, Entry, sample_realizations
from .placement import PipelineRun

DEFAULT_RANK_TOL = 1e-9
DEFAULT_STATE_CAP = 30
DEFAULT_EXHAUSTIVE_CAP = 16
WITNESS_CAP = 64  # minimum sensor sets ``exhaustive_min_sensors`` reports at most
# doubles one batch of oracle trials may hold in A, C and the stacked matrix (4 MiB)
CHUNK_DOUBLES = 2**19


class OracleReport(NamedTuple):
    """Pass counts and worst conditioning seen over sampled realizations."""

    trials: int
    passes: int
    min_sigma_ratio: float
    seed: int


class MinimalPlacementResult(NamedTuple):
    """Smallest certified sensor-set size, its witnesses, and the search cost."""

    minimum_size: int
    witnesses: tuple
    configurations_checked: int


def check_state_cap(n: int, search: str = "rank-test", cap: int = DEFAULT_STATE_CAP) -> None:
    """Refuse ``n`` states over the ``search``'s ``cap``: the rank test's, or ``exhaustive-search``'s."""
    if n > cap:
        raise ValueError(f"{n} states exceed the {search} cap of {cap}")


def _sigma_ratios(a, c):
    """Per trial, smallest over largest singular value of the observability matrix.

    ``a`` is a ``(T, n, n)`` and ``c`` a ``(T, p, n)`` array stack; returns
    a ``(T,)`` array. A trial passes the rank test when its ratio exceeds the
    tolerance. With no states the ratio is 1.0: the empty state space is
    observable from any outputs, as the certificate says of a 0-state
    pattern. With no outputs, or an all-zero stack, it is 0.0.
    """
    import numpy as np

    t, p, n = c.shape
    if n == 0:
        return np.ones(t)
    if p == 0:
        return np.zeros(t)
    stacked = np.empty((t, n * p, n))
    cur = np.asarray(c, dtype=float)
    for k in range(n):
        # rows at unit max-abs before stacking and before the next power: scaling rows by
        # nonzero factors leaves the rank untouched but keeps entries from overflowing
        scale = np.max(np.abs(cur), axis=2, keepdims=True)
        scale[scale == 0.0] = 1.0
        block = stacked[:, k * p:(k + 1) * p]
        np.divide(cur, scale, out=block)
        cur = block @ a
    sigmas = np.linalg.svd(stacked, compute_uv=False)  # descending per trial
    top = sigmas[:, 0]
    return np.divide(sigmas[:, n - 1], top, out=np.zeros(t), where=top != 0.0)


def observability_rank_test(a, c, max_states: int = DEFAULT_STATE_CAP) -> bool:
    """Kalman-style test: does [C; CA; ...; CA^(n-1)] have full column rank?

    ``a`` is an ``(n, n)`` and ``c`` a ``(p, n)`` array or nested list. Full
    rank means the n-th singular value over the largest exceeds
    ``DEFAULT_RANK_TOL``. The state cap keeps the test inside the regime where
    this threshold is trustworthy.
    """
    import numpy as np

    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"state matrix must be square, got {a.shape}")
    n = a.shape[0]
    if c.ndim != 2 or c.shape[1] != n:
        raise ValueError(f"output matrix shape {c.shape} does not match {n} states")
    check_state_cap(n, cap=max_states)
    if not (np.isfinite(a).all() and np.isfinite(c).all()):
        raise ValueError("non-finite entries in input matrices")
    return bool(_sigma_ratios(a[None], c[None])[0] > DEFAULT_RANK_TOL)


def _chunk_trials(n: int, p: int) -> int:
    """Trials per batch: as many as keep A, C and the stacked matrix within ``CHUNK_DOUBLES``."""
    return max(1, CHUNK_DOUBLES // max(1, n * n + p * n + n * p * n))


def sample_and_check(run: PipelineRun, trials: int, seed: int) -> OracleReport:
    """Draw realizations of ``run``'s state pattern and count rank-test passes against ``DEFAULT_RANK_TOL``.

    C is the unit output of ``run.placement``, 1.0 at each measured state:
    nonzero gains would only scale C A^k's rows, which ``_sigma_ratios``
    normalises. The state cap is checked off ``run.graph`` before any stage
    runs. Deterministic for a fixed seed: ``seed`` draws two seeds per trial
    and A takes the first. Trials run in batches of ``_chunk_trials``, each
    drawing its own seeds, so memory stays bounded whatever ``trials`` is. A
    0-state graph passes every trial with ratio 1.0, as it certifies; zero
    trials report ratio 0.0.
    """
    import numpy as np

    n = run.graph.n
    check_state_cap(n)
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    a_pat = to_pattern(run.graph)
    measured = list(run.placement.measured)
    unit_c = np.zeros((len(measured), n))
    unit_c[range(len(measured)), measured] = 1.0

    rng = np.random.default_rng(seed)
    passes, min_ratio = 0, float("inf") if trials else 0.0
    chunk = _chunk_trials(n, len(measured))
    for start in range(0, trials, chunk):
        k = min(chunk, trials - start)
        # two seeds a trial, A taking the even ones: the odd ones keep every recorded report's stream
        seeds = rng.integers(0, 2**63 - 1, size=2 * k).tolist()
        a = sample_realizations(a_pat, seeds[0::2])
        ratios = _sigma_ratios(a, np.broadcast_to(unit_c, (k, *unit_c.shape)))
        passes += int(np.count_nonzero(ratios > DEFAULT_RANK_TOL))
        min_ratio = min(min_ratio, float(ratios.min()))
    return OracleReport(trials, passes, min_ratio, seed)


def _solve_stuck_rows(g: StateGraph, white: list, x: dict, lam: float, rng: Random):
    """Realize ``g``'s pattern as ``{(i, j): value}`` with X x = ``lam`` x for the white-supported ``x``.

    Row i's entries are the columns ``g.inn[i]`` and its loop; (i, j) is a star when
    ``i in g.star_out[j]``, and every star draws from ``STAR_RANGE``. Each row with a white entry
    sets one to meet ``lam`` x_i (0 off the white set): an unknown one if it has one, else its first
    white column. The white set is a fort of the stuck graph, so on a symmetric graph a row whose
    white entries are one star alone is a white row with ``lam`` 1, where the star meets x_i.
    Returns None when a star would be driven to zero (redraw ``x``).
    """
    star_out, inn, loops, star = g.star_out, g.inn, g.loops, Entry.STAR
    mat = {(i, j): rng.uniform(*STAR_RANGE) for j, rows in enumerate(star_out) for i in rows}
    mat.update({(i, i): rng.uniform(*STAR_RANGE) for i, loop in enumerate(loops) if loop is star})
    for i in range(g.n):
        wcols = [j for j in inn[i] if white[j]] + ([i] if white[i] and loops[i] is not Entry.ZERO else [])
        if not wcols:
            continue
        unknown = [j for j in wcols if (loops[i] is not star if j == i else i not in star_out[j])]
        solve = unknown[0] if unknown else wcols[0]
        value = (lam * x.get(i, 0.0) - sum(mat.get((i, j), 0.0) * x[j] for j in wcols if j != solve)) / x[solve]
        if value == 0.0 and not unknown:
            return None
        mat[i, solve] = value
    return mat


def find_unobservable_realization(run: PipelineRun, seed: int = 0):
    """Explicit disproof of observability for a refused placement.

    When a colorability check fails, its stuck white set supports an
    eigenvector no sensor sees. This builds the realization: a member X of
    the state pattern class as ``{(i, j): value}`` at pattern positions, a
    vector x as ``{state: value}`` on the white set with X x = lam * x, and
    the eigenvalue lam, so x vanishes on every measured state. Returns None
    when ``run``'s certificate holds. ``run.stuck`` gives the white set and
    lam, 0 if it is A's run and 1 if Abar's; the rows are solved on A's graph.
    Symmetric graphs only: any other is refused before a closure or a solve.
    """
    graph, n = run.graph, run.graph.n
    if not graph.is_symmetric():
        raise ValueError(f"symmetric state patterns only; position {check_preconditions(graph).asymmetric_at} is unmirrored")
    if (stuck := run.stuck) is None:
        return None
    lam = 0.0 if stuck is run.a_run else 1.0
    white = [not b for b in stuck.black]
    if any(white[s] for s in run.placement.measured):
        raise AssertionError("measured state left white; closure is broken")

    rng = Random(seed)
    for _ in range(20):
        x = {i: rng.uniform(1.0, 2.0) for i in range(n) if white[i]}
        realization = _solve_stuck_rows(graph, white, x, lam, rng)
        if realization is None:
            continue
        sums = [-lam * x.get(i, 0.0) for i in range(n)]
        for (i, j), value in realization.items():
            sums[i] += value * x.get(j, 0.0)
        if all(abs(r) <= 1e-8 + 1e-5 * lam * x.get(i, 0.0) for i, r in enumerate(sums)):  # X x = lam x, as allclose
            return realization, x, lam
    raise RuntimeError("could not realize the stuck set; exhausted retries")


def _colouring_sets(closed: ClosureRun, combo: tuple, left: int, children: dict):
    """Each ``combo`` plus ``left`` > 0 larger states that colours, in order; ``closed`` is ``combo``'s closure.

    ``children`` maps a closed run's black set, as ``bytes``, to its children by added state: a
    closed run depends on its black set alone (``ClosureRun``), so a prefix reaching a black set
    that another prefix or a smaller size reached reuses that closure instead of closing again.
    Only closures that blacken a new state are stored; a state already black keeps ``closed``.
    """
    n = closed.graph.n
    black = closed.black
    below = children.get(key := bytes(black))
    if below is None:
        below = children[key] = [None] * n
    for v in range(combo[-1] + 1 if combo else 0, n - left + 1):
        if black[v]:
            child = closed
        else:
            child = below[v]
            if child is None:
                child = below[v] = closed.copy()
                child.add(v)
        if left > 1:
            yield from _colouring_sets(child, combo + (v,), left - 1, children)
        elif len(child.trace) == n:
            yield combo + (v,)


def _colours(run: ClosureRun, combo: tuple, children: dict) -> bool:
    """Whether ``run`` plus ``combo``'s states colours every state, each step from ``children`` as in ``_colouring_sets``."""
    n = run.graph.n
    for v in combo:
        if not run.black[v]:
            below = children.setdefault(bytes(run.black), [None] * n)
            if below[v] is None:
                below[v] = run.copy()
                below[v].add(v)
            run = below[v]
    return len(run.trace) == n


def exhaustive_min_sensors(g: StateGraph, progress=None) -> MinimalPlacementResult:
    """Brute-force the smallest certified sensor set.

    Subsets are enumerated by increasing cardinality, lexicographic within
    each size; every subset is certified until a size produces witnesses,
    then the rest of that size is swept so all witnesses (up to
    ``WITNESS_CAP``) are counted. Abar's graph is ``companion(g)``. With no
    zero on the diagonal Abar alone decides, since its black set then lies
    inside A's (``forcing.Certificate``), and A is never closed; else A is walked
    and Abar checks only the subsets A colours, none once the witness cap is
    reached. Each graph has one root run and one cache of closures by black
    set and added state, shared by every prefix and size, so a closure is
    computed once per search (``_colouring_sets``); ``configurations_checked``
    still counts every subset of each swept size, computed or reused.
    Refuses graphs of more than ``DEFAULT_EXHAUSTIVE_CAP`` states, whose
    configuration count would explode.
    """
    n = g.n
    check_state_cap(n, "exhaustive-search", DEFAULT_EXHAUSTIVE_CAP)
    zero_loop = Entry.ZERO in g.loops
    root = ClosureRun(g if zero_loop else companion(g))
    abar = ClosureRun(companion(g)) if zero_loop else None
    children, abar_children = {}, {}
    checked = 0
    for size in range(n + 1):
        sets = _colouring_sets(root, (), size, children) if size else ([()] if len(root.trace) == n else [])
        if abar is not None:
            sets = (combo for combo in sets if _colours(abar, combo, abar_children))
        witnesses = list(islice(sets, WITNESS_CAP))
        checked += comb(n, size)
        if progress is not None:
            progress({"size": size, "checked": checked, "witnesses": len(witnesses)})
        if witnesses:
            return MinimalPlacementResult(size, tuple(witnesses), checked)
    return MinimalPlacementResult(n, (), checked)
