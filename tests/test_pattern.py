import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strucsense import (
    Entry,
    PatternMatrix,
    SensorPlacement,
    StateGraph,
    build_output_pattern,
    is_member,
    make_abar,
    to_pattern,
)
from strucsense.pattern import STAR_RANGE, sample_realizations
from generators import random_symmetric_pattern

TRIANGLE = PatternMatrix.from_rows(["0**", "*0*", "**0"], symmetric=True)


class TestPatternMatrix:
    def test_entry_lookup_and_default_zero(self):
        p = PatternMatrix.from_rows(["0*", "?0"])
        assert p.entry(0, 0) is Entry.ZERO
        assert p.entry(0, 1) is Entry.STAR
        assert p.entry(1, 0) is Entry.UNKNOWN

    @pytest.mark.parametrize(
        "i, j, message",
        [(2, 0, "(2, 0) outside 2x3"), (0, 3, "(0, 3) outside 2x3"), (-1, 0, "(-1, 0) outside 2x3")],
        ids=["row", "column", "negative"],
    )
    def test_entry_outside_shape_raises_index_error(self, i, j, message):
        with pytest.raises(IndexError, match="^" + re.escape(message) + "$"):
            PatternMatrix.from_rows(["0*?", "?*0"]).entry(i, j)

    @pytest.mark.parametrize("rows", [["0*", "0"], ["0", "0*"], ["", "0"]], ids=["short", "long", "empty-first"])
    def test_from_rows_refuses_ragged_rows(self, rows):
        with pytest.raises(ValueError, match="^ragged rows$"):
            PatternMatrix.from_rows(rows)

    def test_positions_outside_shape_rejected(self):
        with pytest.raises(ValueError):
            PatternMatrix(2, 2, frozenset({(2, 0)}), frozenset())

    def test_star_and_unknown_disjoint(self):
        with pytest.raises(ValueError):
            PatternMatrix(2, 2, frozenset({(0, 1)}), frozenset({(0, 1)}))

    def test_symmetry_flag_verified(self):
        with pytest.raises(ValueError):
            PatternMatrix(2, 2, frozenset({(0, 1)}), frozenset(), symmetric=True)

    def test_symmetry_flag_is_checked_and_not_stored(self):
        rows = ["0*?", "*00", "?00"]
        assert vars(PatternMatrix.from_rows(rows, symmetric=True)) == vars(PatternMatrix.from_rows(rows))
        unmirrored = PatternMatrix.from_rows(["0?", "00"]).to_json()
        with pytest.raises(ValueError, match=r"unknown \(0, 1\) unmirrored"):
            PatternMatrix.from_json(unmirrored, symmetric=True)

    def test_json_round_trip(self):
        p = PatternMatrix.from_rows(["0*?", "*00", "?00"])
        again = PatternMatrix.from_json(p.to_json())
        assert again == p
        payload = json.loads(p.to_json())
        assert set(payload) == {"rows", "cols", "star", "unknown"}
        assert payload["star"] == [[0, 1], [1, 0]]


def fields(a: PatternMatrix) -> dict:
    """Every stored field with its type, so that a set standing for a frozenset, or an extra field, shows."""
    return {name: (type(value), value) for name, value in vars(a).items()}


def abar_reference(a: PatternMatrix) -> PatternMatrix:
    """``make_abar``'s definition entry by entry, through the checked constructor."""
    def entry(i, j):
        if i != j:
            return a.entry(i, j)
        return Entry.STAR if a.entry(i, i) is Entry.ZERO else Entry.UNKNOWN
    return PatternMatrix.from_rows([[entry(i, j) for j in range(a.cols)] for i in range(a.rows)])


class TestMakeAbar:
    def test_diagonal_rule(self):
        p = PatternMatrix.from_rows(["0*0", "*?0", "00?"])
        # keep one off-diagonal of each kind to confirm they pass through
        q = make_abar(p)
        assert q.entry(0, 0) is Entry.STAR      # zero diagonal becomes star
        assert q.entry(1, 1) is Entry.UNKNOWN   # anything else becomes unknown
        assert q.entry(2, 2) is Entry.UNKNOWN
        assert q.entry(0, 1) is Entry.STAR
        assert q.entry(1, 0) is Entry.STAR
        assert q.entry(0, 2) is Entry.ZERO

    def test_mixed_diagonal(self):
        p = PatternMatrix.from_rows(["000", "0*0", "00?"])
        q = make_abar(p)
        diag = [q.entry(i, i) for i in range(3)]
        assert diag == [Entry.STAR, Entry.UNKNOWN, Entry.UNKNOWN]

    def test_scalar_zero_becomes_star(self):
        q = make_abar(PatternMatrix.from_rows(["0"]))
        assert q.entry(0, 0) is Entry.STAR

    def test_flow_head_diagonals_all_become_unknown(self):
        # structured network diagonal: stars on flows, unknowns on heads
        diag = ["*"] * 4 + ["?"] * 4
        rows = ["".join(diag[i] if i == j else "0" for j in range(8)) for i in range(8)]
        q = make_abar(PatternMatrix.from_rows(rows))
        assert all(q.entry(i, i) is Entry.UNKNOWN for i in range(8))

    def test_never_leaves_zero_diagonal(self):
        for seed in range(25):
            p = random_symmetric_pattern(seed, n_max=20)
            q = make_abar(p)
            assert all(q.entry(i, i) is not Entry.ZERO for i in range(q.rows))
            # a second application turns the whole diagonal unknown
            qq = make_abar(q)
            assert all(qq.entry(i, i) is Entry.UNKNOWN for i in range(q.rows))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_entry_matches_definition(self, data):
        n = data.draw(st.integers(1, 8))
        symmetric = data.draw(st.booleans())
        cells = data.draw(st.lists(st.sampled_from("00*?"), min_size=n * n, max_size=n * n))
        rows = [
            "".join(cells[min(i, j) * n + max(i, j)] if symmetric else cells[i * n + j] for j in range(n))
            for i in range(n)
        ]
        p = PatternMatrix.from_rows(rows, symmetric=symmetric)
        q = make_abar(p)
        assert (q.rows, q.cols) == (n, n)
        assert fields(q) == fields(abar_reference(p))  # every field of the checked construction, types included
        for i in range(n):
            for j in range(n):
                if i != j:
                    expected = p.entry(i, j)
                elif p.entry(i, i) is Entry.ZERO:
                    expected = Entry.STAR
                else:
                    expected = Entry.UNKNOWN
                assert q.entry(i, j) is expected

    def test_symmetric_in_symmetric_out(self):
        q = make_abar(TRIANGLE)
        assert all(q.entry(i, j) is q.entry(j, i) for i in range(3) for j in range(3))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            make_abar(PatternMatrix(2, 3))


@st.composite
def placements(draw, max_states: int = 12) -> tuple:
    """A placement and a state count it fits: its own, or a smaller or larger one that holds every index."""
    n = draw(st.integers(0, max_states))
    measured = tuple(draw(st.lists(st.integers(0, n - 1), unique=True))) if n else ()
    p = SensorPlacement(measured, n, draw(st.sampled_from(("tree", "cyclic", "given"))))
    return p, draw(st.integers(max(measured, default=-1) + 1, n + 3))


@st.composite
def state_graphs(draw, max_n: int = 10) -> StateGraph:
    """Random directed star and unknown edges, self-loops included, symmetric or not."""
    n = draw(st.integers(0, max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) if n else st.nothing()
    star = frozenset(draw(st.lists(pair, max_size=2 * n)))
    return StateGraph(n, star, frozenset(draw(st.lists(pair, max_size=n))) - star)


class TestUncheckedConstructions:
    """``build_output_pattern``, ``to_pattern`` and ``make_abar`` read already-checked inputs and skip
    ``__init__``'s checks; each stores exactly the fields its checked construction would (``make_abar``'s
    property is ``TestMakeAbar.test_every_entry_matches_definition``)."""

    def test_no_checked_constructor_runs(self, monkeypatch):
        a = PatternMatrix.from_rows(["0*?", "*00", "?0*"], symmetric=True)
        g = StateGraph(3, frozenset({(0, 1), (1, 0)}), frozenset({(2, 0)}))
        p = SensorPlacement((2, 0), 3, "cyclic")

        def refuse(self, *args, **kwargs):
            raise AssertionError("PatternMatrix.__init__ ran")

        monkeypatch.setattr(PatternMatrix, "__init__", refuse)
        built = [build_output_pattern(p, 3), build_output_pattern(p, 5), to_pattern(g), make_abar(a)]
        assert [(c.rows, c.cols) for c in built] == [(2, 3), (2, 5), (3, 3), (3, 3)]
        assert all(type(c) is PatternMatrix for c in built)

    @settings(max_examples=200, deadline=None)
    @given(placements())
    def test_output_pattern_matches_its_checked_construction(self, case):
        p, m = case
        checked = PatternMatrix(p.n_y, m, frozenset(enumerate(p.measured)), frozenset())
        assert fields(build_output_pattern(p, m)) == fields(checked)

    @settings(max_examples=200, deadline=None)
    @given(state_graphs())
    def test_to_pattern_matches_its_checked_construction(self, g):
        star = frozenset((j, i) for (i, j) in g.star_edges)
        unknown = frozenset((j, i) for (i, j) in g.unknown_edges)
        assert fields(to_pattern(g)) == fields(PatternMatrix(g.n, g.n, star, unknown))

    def test_output_pattern_over_fewer_states_than_the_placement(self):
        p = SensorPlacement((1, 4), 6, "cyclic")
        rejected = {3: "measured index 4 outside 0..2", 0: "measured index 1 outside a graph with no states"}
        for m, message in rejected.items():
            with pytest.raises(ValueError) as exc:
                build_output_pattern(p, m)
            assert str(exc.value) == message
        assert fields(build_output_pattern(p, 5)) == fields(PatternMatrix(2, 5, frozenset({(0, 1), (1, 4)})))


class TestIsMember:
    def test_adjacency_realizes_star_triangle(self):
        x = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        assert is_member(x, TRIANGLE)

    def test_zero_at_star_fails(self):
        p = PatternMatrix.from_rows(["*0", "00"])
        assert not is_member(np.zeros((2, 2)), p)

    def test_zero_allowed_at_unknown(self):
        p = PatternMatrix.from_rows(["?0", "00"])
        assert is_member(np.zeros((2, 2)), p)

    def test_nonzero_at_zero_position_fails(self):
        assert not is_member(np.eye(3), TRIANGLE)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_member(np.zeros((2, 3)), TRIANGLE)


class TestSampleRealization:
    def test_all_zero_pattern_yields_zero_matrix(self):
        p = PatternMatrix(3, 3)
        for seed in (0, 1, 99):
            assert not sample_realizations(p, [seed])[0].any()

    def test_membership_over_many_seeds(self):
        p = PatternMatrix.from_rows(["*?0", "?0*", "0*?"])
        for seed in range(10_000):
            assert is_member(sample_realizations(p, [seed])[0], p)

    def test_deterministic_per_seed(self):
        a = sample_realizations(TRIANGLE, [1234])[0]
        b = sample_realizations(TRIANGLE, [1234])[0]
        assert np.array_equal(a, b)
        c = sample_realizations(TRIANGLE, [1235])[0]
        assert not np.array_equal(a, c)

    def test_star_magnitudes_within_range(self):
        x = sample_realizations(TRIANGLE, [7])[0]
        mags = np.abs(x[x != 0])
        assert STAR_RANGE == (0.5, 2.0)
        assert mags.min() >= 0.5 and mags.max() <= 2.0
