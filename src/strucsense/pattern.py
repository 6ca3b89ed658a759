"""Pattern matrices over {zero, star, unknown} and their numeric realizations.

A pattern matrix fixes the structure of a family of real matrices: ``ZERO``
positions must hold 0, ``STAR`` positions must hold a nonzero value, and
``UNKNOWN`` positions may hold anything. Storage is sparse (absent position
means zero) because the network patterns this library targets are
overwhelmingly zero.
"""

from __future__ import annotations

import enum
import json


class Entry(enum.Enum):
    """One structural constraint on a matrix position."""

    ZERO = "0"
    STAR = "*"
    UNKNOWN = "?"


_CHAR_TO_ENTRY = {"0": Entry.ZERO, "*": Entry.STAR, "?": Entry.UNKNOWN}


class PatternMatrix:
    """Sparse structural matrix; positions absent from both sets are zero.

    A pattern stores ``rows``, ``cols``, ``star`` and ``unknown`` and nothing
    else. ``symmetric=True`` asks the checked constructors to verify that
    entry(i, j) == entry(j, i) for all positions; the claim is checked and
    not stored.
    """

    def __init__(self, rows: int, cols: int, star: frozenset = frozenset(), unknown: frozenset = frozenset(),
                 symmetric: bool = False):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        star = frozenset(tuple(p) for p in star)
        unknown = frozenset(tuple(p) for p in unknown)
        for (i, j) in star | unknown:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"position ({i}, {j}) outside {rows}x{cols}")
        both = star & unknown
        if both:
            raise ValueError(f"position {min(both)} is both star and unknown")
        if symmetric:
            if rows != cols:
                raise ValueError("symmetric flag on a non-square matrix")
            for (i, j) in star:
                if (j, i) not in star:
                    raise ValueError(f"symmetric flag set but star ({i}, {j}) unmirrored")
            for (i, j) in unknown:
                if (j, i) not in unknown:
                    raise ValueError(f"symmetric flag set but unknown ({i}, {j}) unmirrored")
        self._store(rows, cols, star, unknown)

    def _store(self, rows: int, cols: int, star: frozenset, unknown: frozenset) -> "PatternMatrix":
        """The one writer of a pattern's fields, whichever constructor ran; returns the pattern."""
        self.rows, self.cols, self.star, self.unknown = rows, cols, star, unknown
        return self

    @classmethod
    def _unchecked(cls, rows: int, cols: int, star: frozenset, unknown: frozenset):
        """Skip ``__init__``'s checks: the caller's sets are disjoint frozensets of in-range tuples."""
        return object.__new__(cls)._store(rows, cols, star, unknown)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.rows, self.cols, self.star, self.unknown) == (other.rows, other.cols, other.star, other.unknown)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.star, self.unknown))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Entry:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols}")
        if (i, j) in self.star:
            return Entry.STAR
        if (i, j) in self.unknown:
            return Entry.UNKNOWN
        return Entry.ZERO

    @classmethod
    def from_rows(cls, rows: list, symmetric: bool = False) -> "PatternMatrix":
        """Build from dense rows of '0'/'*'/'?' characters or Entry values."""
        r = len(rows)
        c = len(rows[0]) if rows else 0
        star, unknown = set(), set()
        for i, row in enumerate(rows):
            if len(row) != c:
                raise ValueError("ragged rows")
            for j, cell in enumerate(row):
                e = cell if isinstance(cell, Entry) else _CHAR_TO_ENTRY[str(cell)]
                if e is Entry.STAR:
                    star.add((i, j))
                elif e is Entry.UNKNOWN:
                    unknown.add((i, j))
        return cls(r, c, frozenset(star), frozenset(unknown), symmetric)

    def to_json(self) -> str:
        payload = {
            "rows": self.rows,
            "cols": self.cols,
            "star": sorted([i, j] for (i, j) in self.star),
            "unknown": sorted([i, j] for (i, j) in self.unknown),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, symmetric: bool = False) -> "PatternMatrix":
        data = json.loads(text)
        return cls(
            int(data["rows"]),
            int(data["cols"]),
            frozenset((int(i), int(j)) for i, j in data.get("star", [])),
            frozenset((int(i), int(j)) for i, j in data.get("unknown", [])),
            symmetric,
        )


# realizations draw star magnitudes uniformly from STAR_RANGE, kept away from 0 and from overflow so
# the rank tests stay well conditioned; an unknown entry is exactly 0 with probability ZERO_PROB
STAR_RANGE = (0.5, 2.0)
ZERO_PROB = 0.5


def make_abar(a: PatternMatrix) -> PatternMatrix:
    """Rewrite the diagonal: star where the entry is zero, unknown otherwise.

    Off-diagonal entries are untouched. The result never has a zero on the
    diagonal; it is the companion pattern used by the second colorability
    check of the observability certificate.
    """
    if not a.is_square:
        raise ValueError(f"square matrix required, got {a.rows}x{a.cols}")
    diag = frozenset((i, i) for i in range(a.rows))
    nonzero = (diag & a.star) | (diag & a.unknown)
    star = (a.star - diag) | (diag - nonzero)
    unknown = (a.unknown - diag) | nonzero
    return PatternMatrix._unchecked(a.rows, a.cols, star, unknown)  # ``a`` was checked


def is_member(x, a: PatternMatrix) -> bool:
    """True iff ``x`` realizes the pattern: 0 at zeros, nonzero at stars.

    ``x`` is a ``(rows, cols)`` array or nested list.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    if x.shape != (a.rows, a.cols):
        raise ValueError(f"shape {x.shape} does not match {a.rows}x{a.cols} pattern")
    free = np.zeros(x.shape, dtype=bool)
    for (i, j) in a.unknown:
        free[i, j] = True
    for (i, j) in a.star:
        if x[i, j] == 0.0:
            return False
        free[i, j] = True
    return bool(np.all(x[~free] == 0.0))


def sample_realizations(a: PatternMatrix, seeds):
    """Draw one member of the pattern class per seed, stacked in a ``(len(seeds), rows, cols)`` array.

    Each seed drives its own ``default_rng``. Stars come first, in sorted
    position order, each taking a magnitude draw ``lo + (hi - lo) * u`` over
    ``STAR_RANGE`` and a sign draw; then each unknown, in sorted order, takes
    a draw that keeps it zero with probability ``ZERO_PROB`` and, when it
    takes a value, a magnitude and a sign like a star. A realization's
    doubles come from one ``random(K)`` call, K the most it can use, in that
    order: the same doubles, and so the same matrix, that one ``random()`` or
    ``uniform(lo, hi)`` call per draw would give. Stars are filled for all
    seeds at once; the unknowns are walked in order, since whether one takes
    a value decides where the next one's draws start.
    """
    import numpy as np

    lo, hi = STAR_RANGE
    star, unknown = sorted(a.star), sorted(a.unknown)
    seeds = list(seeds)
    u = np.empty((len(seeds), 2 * len(star) + 3 * len(unknown)))
    for row, seed in zip(u, seeds):
        np.random.default_rng(seed).random(out=row)
    x = np.zeros((len(seeds), a.rows, a.cols))

    def signed(mag, sign):
        mag = lo + (hi - lo) * mag
        return np.where(sign < 0.5, mag, -mag)

    if star:
        rows, cols = zip(*star)
        x[:, rows, cols] = signed(u[:, 0:2 * len(star):2], u[:, 1:2 * len(star):2])
    trials = np.arange(len(seeds))
    at = np.full(len(seeds), 2 * len(star))
    for (i, j) in unknown:
        takes = u[trials, at] >= ZERO_PROB
        x[:, i, j] = np.where(takes, signed(u[trials, at + 1], u[trials, at + 2]), 0.0)
        at += 1 + 2 * takes
    return x
