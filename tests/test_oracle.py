import inspect
import random
import re
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strucsense import (
    OracleReport,
    PatternMatrix,
    PipelineRun,
    SensorPlacement,
    StateGraph,
    exhaustive_min_sensors,
    find_unobservable_realization,
    from_pattern,
    is_member,
    make_abar,
    observability_rank_test,
    place_cyclic,
    sample_and_check,
    spanning_tree_dfs,
)
import strucsense.oracle
from strucsense.cli import load_input, main
from strucsense.forcing import (
    ClosureRun,
    build_observability_graph,
    force_closure_reference,
)
from strucsense.netgraph import companion, to_pattern
from strucsense.oracle import DEFAULT_RANK_TOL, DEFAULT_STATE_CAP, WITNESS_CAP, _chunk_trials
from strucsense.pattern import STAR_RANGE, ZERO_PROB, sample_realizations
from strucsense.wdn import parse_edge_list
from generators import (
    TRIANGLE_WDN_INC,
    colors_all,
    cyclic_inp_text,
    dense,
    given_run,
    graph_of,
    patterns_with_sensors,
    random_connected_pattern,
    random_symmetric_pattern,
    structured_pattern,
    unit_rows,
    without_zero_diagonal,
)

TRIANGLE = PatternMatrix.from_rows(["0**", "*0*", "**0"], symmetric=True)
FIXTURE_NAMES = sorted(
    p.name for p in (Path(__file__).resolve().parent.parent / "fixtures").iterdir() if p.suffix in (".inp", ".json")
)


def drawn_gains(rng, k: int) -> np.ndarray:
    """``k`` nonzero sensor gains, magnitudes from ``STAR_RANGE`` with random signs."""
    return rng.uniform(*STAR_RANGE, size=k) * rng.choice([-1.0, 1.0], size=k)


class TestRankTest:
    def test_swap_system_observable_from_one_state(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        c = np.array([[1.0, 0.0]])
        # stacked rows are e1 and e2, rank 2
        assert observability_rank_test(a, c)

    def test_identity_output_always_observable(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        assert observability_rank_test(a, np.eye(5))

    def test_decoupled_identical_modes_not_observable(self):
        a = np.eye(2)
        c = np.array([[1.0, 0.0]])
        # every power keeps the rows inside span{e1}
        assert not observability_rank_test(a, c)

    def test_no_outputs_never_observable(self):
        assert not observability_rank_test(np.eye(2), np.zeros((0, 2)))

    def test_state_cap_enforced(self):
        n = 31
        with pytest.raises(ValueError, match="cap"):
            observability_rank_test(np.eye(n), np.eye(n))

    def test_rank_test_and_sampler_refuse_in_one_wording(self, monkeypatch):
        refusal = "^31 states exceed the rank-test cap of 30$"
        with pytest.raises(ValueError, match=refusal):
            observability_rank_test(np.eye(31), np.eye(31))
        counts = count_oracle_calls(monkeypatch, "to_pattern", "sample_realizations")
        run = PipelineRun(StateGraph(31))
        with pytest.raises(ValueError, match=refusal):
            sample_and_check(run, trials=1, seed=0)
        assert counts == {"to_pattern": 0, "sample_realizations": 0}
        assert "placement" not in vars(run)  # the sampler refused before any stage of the run

    @pytest.mark.parametrize(
        "a, c, message",
        [
            (np.zeros((2, 3)), np.eye(2), "state matrix must be square, got (2, 3)"),
            (np.zeros(4), np.eye(2), "state matrix must be square, got (4,)"),
            (np.eye(2), np.eye(3), "output matrix shape (3, 3) does not match 2 states"),
            (np.eye(2), np.ones(2), "output matrix shape (2,) does not match 2 states"),
        ],
        ids=["non-square", "one-axis", "column-count", "one-axis-output"],
    )
    def test_shape_refusals(self, a, c, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            observability_rank_test(a, c)

    def test_non_finite_rejected(self):
        a = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            observability_rank_test(a, np.eye(2))

    def test_scaling_keeps_large_powers_stable(self):
        # entries near 2 would overflow raw stacks long before 25 powers
        rng = np.random.default_rng(0)
        a = rng.uniform(1.5, 2.0, size=(25, 25))
        a = (a + a.T) / 2
        assert observability_rank_test(a, np.eye(25))


class TestSampleAndCheck:
    def test_certified_wdn_placement_always_passes(self):
        pat = structured_pattern(TRIANGLE_WDN_INC)
        g = from_pattern(pat)
        p = place_cyclic(g, spanning_tree_dfs(g))
        run = PipelineRun(g, given=p)
        assert run.certificate.sso
        report = sample_and_check(run, trials=100, seed=42)
        assert report.passes == report.trials == 100
        assert report.min_sigma_ratio > 1e-9

    def test_no_sensors_no_passes(self):
        c = PatternMatrix(0, 3, frozenset(), frozenset())
        report = sample_and_check(given_run(TRIANGLE, c), trials=10, seed=7)
        assert report.passes == 0
        assert report.min_sigma_ratio == 0.0

    def test_same_seed_same_report(self):
        run = PipelineRun(from_pattern(structured_pattern(TRIANGLE_WDN_INC)))
        a = sample_and_check(run, trials=25, seed=11)
        assert a == sample_and_check(run, trials=25, seed=11)
        assert a != sample_and_check(run, trials=25, seed=12)

    def test_zero_states_pass_as_they_certify(self):
        a = PatternMatrix(0, 0)
        c = PatternMatrix(0, 0, frozenset(), frozenset())
        assert given_run(a, c).certificate.sso
        assert observability_rank_test(np.zeros((0, 0)), np.zeros((0, 0)))
        report = sample_and_check(given_run(a, c), trials=5, seed=3)
        assert (report.passes, report.min_sigma_ratio) == (5, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(patterns_with_sensors(max_states=12), st.integers(0, 2**32 - 1))
    def test_nonzero_sensor_gains_keep_the_unit_verdict(self, case, seed):
        """Why the oracle measures unit sensors only: a gain only scales C A^k's rows, which the rank test normalises."""
        a_pat, measured = case
        a = sample_realizations(a_pat, [seed])[0]
        unit = unit_rows(PatternMatrix(len(measured), a_pat.rows, frozenset(enumerate(measured)), frozenset()))
        gains = drawn_gains(np.random.default_rng(seed), len(measured))
        assert observability_rank_test(a, unit) == observability_rank_test(a, gains[:, None] * unit)

    def test_sampled_output_gains_variant(self):
        """Drawn nonzero gains on the certified triangle placement pass every trial the unit oracle passes."""
        run = PipelineRun(from_pattern(structured_pattern(TRIANGLE_WDN_INC)))
        assert sample_and_check(run, trials=50, seed=5).passes == 50
        rng = np.random.default_rng(5)
        unit = unit_rows(run.output)
        for a in sample_realizations(to_pattern(run.graph), list(range(50))):
            assert observability_rank_test(a, drawn_gains(rng, unit.shape[0])[:, None] * unit)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_nonzero_sensor_gains_keep_the_oracle_passes(self, fixtures_dir, name):
        """On each fixture, ``oracle --trials 5``'s realizations pass with drawn gains exactly where they pass with unit sensors."""
        run = PipelineRun(load_input(str(fixtures_dir / name)).graph)
        if run.graph.n > DEFAULT_STATE_CAP:  # refused33: the sampler and the rank test refuse in one wording
            refusal = f"^{run.graph.n} states exceed the rank-test cap of {DEFAULT_STATE_CAP}$"
            with pytest.raises(ValueError, match=refusal):
                sample_and_check(run, trials=5, seed=42)
            with pytest.raises(ValueError, match=refusal):
                observability_rank_test(np.eye(run.graph.n), np.eye(run.graph.n))
            return
        report = sample_and_check(run, trials=5, seed=42)
        seeds = np.random.default_rng(42).integers(0, 2**63 - 1, size=10).tolist()  # the sampler's stream
        realizations = sample_realizations(to_pattern(run.graph), seeds[0::2])
        unit = unit_rows(run.output)
        assert report.passes == sum(observability_rank_test(a, unit) for a in realizations)
        gains = [drawn_gains(np.random.default_rng(s), len(unit)) for s in seeds[1::2]]
        assert report.passes == sum(observability_rank_test(a, g[:, None] * unit) for a, g in zip(realizations, gains))

    @pytest.mark.parametrize(
        "a, c, message",
        [
            (PatternMatrix(2, 3), PatternMatrix(1, 2), "square matrix required, got 2x3"),
            (TRIANGLE, PatternMatrix(1, 2), "output pattern has 2 columns, expected 3"),
        ],
        ids=["non-square", "column-count"],
    )
    def test_shape_refusals(self, a, c, message):
        """The sampler reads a run, so a pattern pair of the wrong shape is refused as the run is built."""
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            sample_and_check(given_run(a, c), trials=1, seed=0)

    def test_unknown_c_mode_rejected(self):
        """The sampler takes a run, a trial count and a seed: any ``c_mode`` is an unexpected keyword."""
        assert list(inspect.signature(sample_and_check).parameters) == ["run", "trials", "seed"]
        with pytest.raises(TypeError, match="c_mode"):
            sample_and_check(PipelineRun(from_pattern(TRIANGLE)), trials=1, seed=0, c_mode="unit")

    def test_cap_then_trials_refused_before_any_stage(self, monkeypatch):
        """The state cap is checked first, then the trial count, both before the run's stages or a draw."""
        counts = count_oracle_calls(monkeypatch, "to_pattern", "sample_realizations")
        with pytest.raises(ValueError, match="^31 states exceed the rank-test cap of 30$"):
            sample_and_check(PipelineRun(StateGraph(31)), trials=-1, seed=0)
        run = PipelineRun(from_pattern(TRIANGLE))
        with pytest.raises(ValueError, match="^trials must be non-negative, got -1$"):
            sample_and_check(run, trials=-1, seed=0)
        assert counts == {"to_pattern": 0, "sample_realizations": 0}
        assert "placement" not in vars(run)


class TestExhaustiveMinimum:
    def test_scalar_star_self_loop(self):
        pat = PatternMatrix.from_rows(["*"])
        result = exhaustive_min_sensors(graph_of(pat))
        assert result.minimum_size == 1
        assert result.witnesses == ((0,),)
        assert result.configurations_checked == 2  # the empty set, then {0}

    def test_path_needs_one_end(self):
        pat = PatternMatrix.from_rows(["0*0", "*0*", "0*0"], symmetric=True)
        result = exhaustive_min_sensors(graph_of(pat))
        assert result.minimum_size == 1
        assert (0,) in result.witnesses and (2,) in result.witnesses

    def test_triangle_sweeps_all_seven(self):
        result = exhaustive_min_sensors(graph_of(TRIANGLE))
        assert result.minimum_size == 2
        assert result.witnesses == ((0, 1), (0, 2), (1, 2))
        assert result.configurations_checked == 7  # 1 empty + 3 singles + 3 pairs

    def test_minimum_never_beaten_by_smaller_set(self):
        from itertools import combinations

        result = exhaustive_min_sensors(graph_of(TRIANGLE))
        for size in range(result.minimum_size):
            for combo in combinations(range(3), size):
                c = PatternMatrix(
                    size, 3, frozenset((r, s) for r, s in enumerate(combo)), frozenset()
                )
                assert not given_run(TRIANGLE, c).certificate.sso

    def test_heuristic_is_an_upper_bound(self):
        for seed in range(20):
            pat = random_connected_pattern(seed, n_max=10)
            g = from_pattern(pat)
            p = place_cyclic(g, spanning_tree_dfs(g))
            if not PipelineRun(g, given=p).certificate.sso:
                continue  # the heuristic has known gaps; minimality is about certified runs
            result = exhaustive_min_sensors(g)
            assert result.minimum_size <= p.n_y

    def test_cap_refusal_names_states_and_cap(self):
        pat = PatternMatrix(17, 17)
        with pytest.raises(ValueError, match="^17 states exceed the exhaustive-search cap of 16$"):
            exhaustive_min_sensors(graph_of(pat))

    def test_cap_refusal_stays_short_past_the_int_digit_limit(self):
        """2 ** 15000 - 1 has 4516 digits, past Python's string conversion limit; the refusal names no count."""
        with pytest.raises(ValueError, match="^15000 states exceed the exhaustive-search cap of 16$"):
            exhaustive_min_sensors(StateGraph(15000))

    def test_progress_stream(self):
        updates = []
        exhaustive_min_sensors(graph_of(TRIANGLE), progress=updates.append)
        assert [u["size"] for u in updates] == [0, 1, 2]
        assert updates[-1]["witnesses"] == 3

    def test_witness_cap_respected(self):
        """7 disjoint star pairs: one sensor per pair, 2 ** 7 = 128 minimum sets, ``WITNESS_CAP`` reported."""
        pat = PatternMatrix(14, 14, frozenset(p for i in range(0, 14, 2) for p in ((i, i + 1), (i + 1, i))))
        result = exhaustive_min_sensors(graph_of(pat))
        assert (result.minimum_size, result.configurations_checked) == (7, 9908)
        assert len(result.witnesses) == WITNESS_CAP == 64
        assert result.witnesses[:2] == ((0, 2, 4, 6, 8, 10, 12), (0, 2, 4, 6, 8, 10, 13))


def naive_min_sensors(a: PatternMatrix, witness_cap: int = WITNESS_CAP) -> tuple:
    """The exhaustive search's contract, certifying every subset from scratch."""
    n = a.rows
    checked = 0
    for size in range(n + 1):
        witnesses = []
        for combo in combinations(range(n), size):
            checked += 1
            c = PatternMatrix(size, n, frozenset(enumerate(combo)), frozenset())
            certified = all(
                len(force_closure_reference(build_observability_graph(p, c)).black) == n
                for p in (a, make_abar(a))
            )
            if certified and len(witnesses) < witness_cap:
                witnesses.append(combo)
        if witnesses:
            return size, tuple(witnesses), checked
    return n, (), checked


def random_pattern(seed: int, n_max: int = 7) -> PatternMatrix:
    """Any square pattern of up to ``n_max`` states: zeros, stars and unknowns anywhere."""
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    cells = {(i, j): rng.choice("000*?") for i in range(n) for j in range(n)}
    star = frozenset(p for p, cell in cells.items() if cell == "*")
    return PatternMatrix(n, n, star, frozenset(p for p, cell in cells.items() if cell == "?"))


def count_oracle_calls(monkeypatch, *names) -> dict:
    """Count calls of the named functions as ``strucsense.oracle`` looks them up; a name it does not import stays 0."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        if not hasattr(strucsense.oracle, name):
            continue

        def counting(*args, _fn=getattr(strucsense.oracle, name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(strucsense.oracle, name, counting)
    return counts


def count_closures(g) -> tuple:
    """``exhaustive_min_sensors(g)``, the closure runs it started from scratch and its ``ClosureRun.add`` calls."""
    counts = {"__init__": 0, "add": 0}
    with pytest.MonkeyPatch.context() as mp:
        for name in counts:
            def counting(self, *args, _fn=getattr(ClosureRun, name), _name=name):
                counts[_name] += 1
                _fn(self, *args)

            mp.setattr(ClosureRun, name, counting)
        result = exhaustive_min_sensors(g)
    return result, counts["__init__"], counts["add"]


class TestExhaustiveAgainstNaiveSearch:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("generator", [random_connected_pattern, random_symmetric_pattern])
    def test_same_result_as_certifying_each_subset(self, generator, seed):
        pat = generator(seed, n_max=10)
        for cap in (64, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(strucsense.oracle, "WITNESS_CAP", cap)
                result = exhaustive_min_sensors(graph_of(pat))
            got = (result.minimum_size, result.witnesses, result.configurations_checked)
            assert got == naive_min_sensors(pat, cap)

    def test_asymmetric_pattern(self):
        pat = PatternMatrix.from_rows(["?*00", "0?*0", "00?*", "*00*"])
        result = exhaustive_min_sensors(graph_of(pat))
        got = (result.minimum_size, result.witnesses, result.configurations_checked)
        assert got == naive_min_sensors(pat)

    @pytest.mark.parametrize("cap", [64, 1, 0])
    def test_zero_diagonals_where_a_refuses(self, cap, monkeypatch):
        """Patterns with zeros on the diagonal, where a subset can colour Abar and not A."""
        monkeypatch.setattr(strucsense.oracle, "WITNESS_CAP", cap)
        a_refuses = 0
        for seed in range(40):
            pat = random_pattern(seed)
            result = exhaustive_min_sensors(graph_of(pat))
            got = (result.minimum_size, result.witnesses, result.configurations_checked)
            assert got == naive_min_sensors(pat, cap), seed
            graph = graph_of(pat)
            a_refuses += sum(
                colors_all(companion(graph), combo) and not colors_all(graph, combo)
                for size in range(pat.rows + 1)
                for combo in combinations(range(pat.rows), size)
            )
        assert a_refuses

    @settings(max_examples=200, deadline=None)
    @given(patterns_with_sensors(max_states=8), st.data())
    def test_cached_closures_match_certifying_each_subset(self, case, data):
        """Generated patterns, with a zero on the diagonal or none, under witness caps that stop a size early."""
        a = case[0]
        if data.draw(st.booleans()):
            a = without_zero_diagonal(a, "".join(data.draw(st.lists(st.sampled_from("*?"), min_size=a.rows,
                                                                    max_size=a.rows))))
        size, witnesses, checked = naive_min_sensors(a)
        for cap in (64, 2, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(strucsense.oracle, "WITNESS_CAP", cap)
                result = exhaustive_min_sensors(graph_of(a))
            assert (result.minimum_size, result.witnesses, result.configurations_checked) == (
                size, witnesses[:cap], checked)

    @pytest.mark.parametrize(
        "pat, first_refuses",
        [
            (random_connected_pattern(3, n_min=8, n_max=10), "Abar"),  # no zero on the diagonal
            (PatternMatrix.from_rows(["0*00?", "*0*00", "0*?*0", "00*0*", "?00**"]), "A"),
        ],
    )
    def test_never_closes_from_scratch_per_configuration(self, pat, first_refuses):
        """One root run per graph searched: Abar's alone with no zero on the diagonal, else A's and Abar's."""
        assert count_closures(graph_of(pat))[1] == (1 if first_refuses == "Abar" else 2)

    @pytest.mark.parametrize("name, runs", [("desk14.json", 1), ("cyclic9.json", 2)])
    def test_closes_fewer_times_than_configurations(self, fixtures_dir, name, runs):
        """A closure another prefix or a smaller size reached is reused, not closed again."""
        g = parse_edge_list((fixtures_dir / name).read_text())
        result, got_runs, adds = count_closures(g)
        assert got_runs == runs
        assert adds < result.configurations_checked

    def test_companion_built_once_per_search(self, monkeypatch):
        counts = count_oracle_calls(monkeypatch, "companion")
        result = exhaustive_min_sensors(graph_of(random_connected_pattern(3, n_min=8, n_max=10)))
        assert result.configurations_checked > 1
        assert counts == {"companion": 1}
        assert not hasattr(strucsense.oracle, "make_abar")  # no pattern-level Abar anywhere in the oracle


class TestUnobservableWitness:
    def test_rejected_single_sensor_on_triangle_yields_witness(self):
        c = PatternMatrix(1, 3, frozenset({(0, 0)}), frozenset())
        assert not given_run(TRIANGLE, c).certificate.sso
        realization, vector, lam = find_unobservable_realization(given_run(TRIANGLE, c))
        realization, vector = dense(realization, vector, 3)
        assert is_member(realization, TRIANGLE)
        assert np.allclose(realization @ vector, lam * vector)
        assert vector[0] == 0.0  # invisible to the sensor on state 0
        assert not observability_rank_test(realization, unit_rows(c))

    @pytest.mark.parametrize(
        "rows, measured, lam",
        [
            (["?*0", "*?*", "0*?"], (), 0.0),  # A leaves every state white: plain mode
            (["0**", "*0*", "**0"], (0,), 1.0),  # A colours, Abar does not: shifted mode
        ],
    )
    def test_a_read_run_is_neither_rebuilt_nor_closed_again(self, monkeypatch, rows, measured, lam):
        """Once a refused run's certificate is read, as ``place`` leaves it, the witness only solves."""
        a = PatternMatrix.from_rows(rows, symmetric=True)
        run = given_run(a, PatternMatrix(len(measured), 3, frozenset(enumerate(measured)), frozenset()))
        assert not run.certificate.sso
        counts = count_oracle_calls(monkeypatch, "ClosureRun", "from_pattern", "companion", "sensor_states")
        closures = []
        monkeypatch.setattr(ClosureRun, "__init__", lambda self, *args: closures.append(args))
        realization, vector, got_lam = find_unobservable_realization(run)
        assert got_lam == lam
        realization, vector = dense(realization, vector, 3)
        assert np.allclose(realization @ vector, lam * vector)
        assert counts == dict.fromkeys(counts, 0) and closures == []
        assert not hasattr(strucsense.oracle, "from_pattern") and not hasattr(strucsense.oracle, "sensor_states")

    def test_a_stuck_a_run_leaves_abar_unclosed(self):
        """λ is 0 when A's run is the stuck one, decided without closing Abar."""
        run = given_run(PatternMatrix.from_rows(["?*0", "*?*", "0*?"], symmetric=True), PatternMatrix(0, 3))
        assert find_unobservable_realization(run)[2] == 0.0
        assert "abar_run" not in run.__dict__

    def test_an_asymmetric_graph_is_refused_before_any_solve(self, monkeypatch):
        counts = count_oracle_calls(monkeypatch, "_solve_stuck_rows")
        closures = []
        monkeypatch.setattr(ClosureRun, "__init__", lambda self, *args: closures.append(args))
        run = given_run(PatternMatrix.from_rows(["0*", "00"]), PatternMatrix(0, 2))
        with pytest.raises(ValueError) as exc:
            find_unobservable_realization(run)
        assert str(exc.value) == "symmetric state patterns only; position (0, 1) is unmirrored"
        assert counts == {"_solve_stuck_rows": 0} and closures == []

    def test_a_stuck_run_that_left_a_sensor_white_is_refused(self):
        """The witness checks that the closure blackened every measured state before it solves."""
        run = given_run(TRIANGLE, PatternMatrix(1, 3, frozenset({(0, 0)}), frozenset()))
        run.__dict__["stuck"] = ClosureRun(run.graph, ())  # a closure that never saw the sensor on state 0
        with pytest.raises(AssertionError, match="measured state left white; closure is broken"):
            find_unobservable_realization(run)

    class Draws:
        """Stands in for the witness's ``Random``: every entry of x draws 1.0, every star ``star``."""

        def __init__(self, star):
            self.star = star

        def uniform(self, low, high):
            return 1.0 if (low, high) == (1.0, 2.0) else self.star

    @pytest.mark.parametrize(
        "rows, star, nones",
        [
            # λ = 1; A's row 1: the star on x2 already meets λ x1, so the star it solves for would be 0
            (["0*0", "*0*", "0**"], 1.0, 20),
            # λ = 1; A's row 0: its star loop already meets λ x0, so the star it solves for would be 0
            (["**", "*0"], 1.0, 20),
            # stars of 3.3e11: rounding leaves X x - 0 x above allclose's atol on some row
            (["?0**", "0**0", "****", "*0*0"], 1e12 / 3, 0),
        ],
    )
    def test_draws_that_cannot_realize_are_redrawn_then_refused(self, monkeypatch, rows, star, nones):
        """Each of the two redraw conditions, met on every draw, ends in the exhausted-retries error."""
        run = given_run(PatternMatrix.from_rows(rows, symmetric=True), PatternMatrix(0, len(rows)))
        monkeypatch.setattr(strucsense.oracle, "Random", lambda seed: self.Draws(star))
        solve, solved = strucsense.oracle._solve_stuck_rows, []
        monkeypatch.setattr(strucsense.oracle, "_solve_stuck_rows", lambda *args: solved.append(solve(*args)) or solved[-1])
        with pytest.raises(RuntimeError, match="exhausted retries"):
            find_unobservable_realization(run)
        assert len(solved) == 20 and sum(r is None for r in solved) == nones

    @settings(max_examples=200, deadline=None)
    @given(patterns_with_sensors(), st.integers(0, 2**16))
    def test_the_witness_exists_exactly_when_the_certificate_fails(self, case, seed):
        """On symmetric graphs: None exactly when the run certifies, λ 0 exactly when A's run is stuck."""
        a, measured = case
        run = PipelineRun(from_pattern(a), given=SensorPlacement(tuple(dict.fromkeys(measured)), a.rows, "given"))
        if not run.graph.is_symmetric():
            return
        witness = find_unobservable_realization(run, seed=seed)
        cert = run.certificate
        assert (witness is None) == cert.sso
        if witness is not None:
            realization, vector, lam = witness
            assert lam == (1.0 if cert.colorable_a else 0.0)
            realization, vector = dense(realization, vector, a.rows)
            assert is_member(realization, a)
            assert np.allclose(realization @ vector, lam * vector)
            assert not vector[list(run.placement.measured)].any()

    @pytest.mark.parametrize("name, lam", [("refused33.json", 0.0), ("seed3.inp", 1.0)])
    def test_the_trace_drawing_whites_are_the_witness_support(self, capsys, fixtures_dir, tmp_path, name, lam):
        """``export-dot --stage trace`` and the witness read the same stuck run: its white states are x's support.

        refused33 leaves both graphs white, so both read A's run; L-town-size seed 3 colours A,
        so both read Abar's.
        """
        path = fixtures_dir / name
        if name == "seed3.inp":
            path = tmp_path / name
            path.write_text(cyclic_inp_text(782, 124, 3))
        assert main(["export-dot", str(path), "--stage", "trace"]) == 0
        drawn_white = capsys.readouterr().out.count('|white"')
        run = PipelineRun(load_input(str(path)).graph)
        _, vector, got_lam = find_unobservable_realization(run)
        assert got_lam == lam
        assert drawn_white == len(vector) > 0 and all(vector.values())

    def test_certified_placement_has_no_witness(self):
        pat = structured_pattern(TRIANGLE_WDN_INC)
        g = from_pattern(pat)
        run = PipelineRun(g, given=place_cyclic(g, spanning_tree_dfs(g)))
        assert run.certificate.sso
        assert find_unobservable_realization(run) is None

    def test_every_rejected_random_placement_yields_witness(self):
        produced = 0
        for seed in range(60):
            pat = random_connected_pattern(seed, n_max=30)
            g = from_pattern(pat)
            p = place_cyclic(g, spanning_tree_dfs(g))
            run = PipelineRun(g, given=p)
            if run.certificate.sso:
                continue
            realization, vector, lam = find_unobservable_realization(run, seed=seed)
            realization, vector = dense(realization, vector, pat.rows)
            assert is_member(realization, pat)
            assert np.allclose(realization @ vector, lam * vector)
            assert all(vector[s] == 0.0 for s in p.measured)
            produced += 1
        assert produced >= 2  # the 60-seed range contains known rejections


class TestCertificateOracleAgreement:
    def test_certified_placements_never_fail_sampling(self):
        # compact version of the soundness sweep; acceptance runs 50 pairs
        confirmed = 0
        seed = 0
        while confirmed < 10 and seed < 200:
            pat = random_connected_pattern(seed, n_max=18)
            seed += 1
            if pat.rows > 20:
                continue
            run = PipelineRun(from_pattern(pat))
            if not run.certificate.sso:
                continue
            report = sample_and_check(run, trials=40, seed=1000 + seed)
            assert report.passes == 40, f"seed {seed - 1}"
            confirmed += 1
        assert confirmed == 10


def sample_realization_reference(a: PatternMatrix, seed: int) -> np.ndarray:
    """The sampler's contract one draw at a time: scalar ``uniform`` and ``random`` calls."""
    lo, hi = STAR_RANGE
    rng = np.random.default_rng(seed)
    x = np.zeros((a.rows, a.cols))

    def draw() -> float:
        mag = rng.uniform(lo, hi)
        return mag if rng.random() < 0.5 else -mag

    for (i, j) in sorted(a.star):
        x[i, j] = draw()
    for (i, j) in sorted(a.unknown):
        if rng.random() >= ZERO_PROB:
            x[i, j] = draw()
    return x


def sample_and_check_reference(a_pat, c_pat, trials, seed):
    """The oracle's contract one trial at a time: all seeds in one draw, scalar draws and one SVD per trial."""
    n = a_pat.rows
    trial_seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=2 * trials)
    passes, min_ratio = 0, float("inf")
    c = unit_rows(c_pat)
    for t in range(trials):
        a = sample_realization_reference(a_pat, int(trial_seeds[2 * t]))
        if n == 0:
            ratio = 1.0
        elif c.shape[0] == 0:
            ratio = 0.0
        else:
            blocks, cur = [], c
            for _ in range(n):
                scale = np.max(np.abs(cur), axis=1, keepdims=True)
                scale[scale == 0.0] = 1.0
                cur = cur / scale
                blocks.append(cur)
                cur = cur @ a
            sigmas = np.linalg.svd(np.vstack(blocks), compute_uv=False)
            ratio = float(sigmas[n - 1] / sigmas[0]) if sigmas[0] != 0.0 else 0.0
        passes += ratio > DEFAULT_RANK_TOL
        min_ratio = min(min_ratio, ratio)
    return OracleReport(trials, passes, min_ratio if trials else 0.0, seed)


@st.composite
def oracle_cases(draw):
    """A state pattern (sometimes with a row of unknowns only) and one-star sensor rows."""
    n = draw(st.integers(0, 6))
    rows = [draw(st.text("0*?", min_size=n, max_size=n)) for _ in range(n)]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = "?" * n
    measured = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)) if n else []
    c_pat = PatternMatrix(len(measured), n, frozenset(enumerate(measured)), frozenset())
    a_pat = PatternMatrix.from_rows(rows) if n else PatternMatrix(0, 0)
    return a_pat, c_pat


class TestBatchedAgainstPerTrialReference:
    """The batched oracle gives the per-trial loop's report exactly, no tolerance."""

    @settings(max_examples=150, deadline=None)
    @given(
        oracle_cases(),
        # (chunks, extra): 0 or 1 trials, or one chunk minus one, exactly one, plus one
        st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]),
        st.integers(0, 2**32 - 1),
    )
    def test_same_report(self, case, size, seed):
        a_pat, c_pat = case
        chunks, extra = size
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(strucsense.oracle, "CHUNK_DOUBLES", 200)  # chunks of a few to 200 trials
            trials = chunks * _chunk_trials(a_pat.rows, c_pat.rows) + extra
            got = sample_and_check(given_run(a_pat, c_pat), trials, seed)
        assert got == sample_and_check_reference(a_pat, c_pat, trials, seed)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_thirty_states_across_the_real_chunk(self, offset):
        a_pat = random_symmetric_pattern(4, n_min=30, n_max=30)
        c_pat = PatternMatrix(30, 30, frozenset((i, i) for i in range(30)), frozenset())
        trials = _chunk_trials(30, 30) + offset
        got = sample_and_check(given_run(a_pat, c_pat), trials, 8)
        assert got == sample_and_check_reference(a_pat, c_pat, trials, 8)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sampler_matches_scalar_draws(self, data):
        rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        cells = [data.draw(st.text("0*?", min_size=cols, max_size=cols)) for _ in range(rows)]
        pat = PatternMatrix.from_rows(cells) if rows else PatternMatrix(0, cols)
        seed = data.draw(st.integers(0, 2**63 - 2))
        got = sample_realizations(pat, [seed])[0]
        assert got.tobytes() == sample_realization_reference(pat, seed).tobytes()
