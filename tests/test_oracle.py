import random
from itertools import combinations

import numpy as np
import pytest

from strucsense import (
    PatternMatrix,
    build_output_pattern,
    build_structured_wdn,
    certify_sso,
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
from strucsense.forcing import build_observability_graph, force_closure_reference
from strucsense.oracle import realize_unit_output
from generators import random_connected_pattern, random_symmetric_pattern

TRIANGLE = PatternMatrix.from_rows(["0**", "*0*", "**0"], symmetric=True)

TRIANGLE_WDN_INC = np.array(
    [[-1, 1, 1, 0], [0, 0, -1, 1], [0, -1, 0, -1], [1, 0, 0, 0]], dtype=float
)


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
        pat = build_structured_wdn(TRIANGLE_WDN_INC)
        g = from_pattern(pat, transpose=True)
        p = place_cyclic(g, spanning_tree_dfs(g))
        c = build_output_pattern(p, g.n)
        assert certify_sso(pat, c).sso
        report = sample_and_check(pat, c, trials=100, seed=42)
        assert report.passes == report.trials == 100
        assert report.min_sigma_ratio > 1e-9

    def test_no_sensors_no_passes(self):
        c = PatternMatrix(0, 3, frozenset(), frozenset())
        report = sample_and_check(TRIANGLE, c, trials=10, seed=7)
        assert report.passes == 0
        assert report.min_sigma_ratio == 0.0

    def test_same_seed_same_report(self):
        pat = build_structured_wdn(TRIANGLE_WDN_INC)
        g = from_pattern(pat, transpose=True)
        c = build_output_pattern(place_cyclic(g, spanning_tree_dfs(g)), g.n)
        a = sample_and_check(pat, c, trials=25, seed=11)
        assert a == sample_and_check(pat, c, trials=25, seed=11)
        assert a != sample_and_check(pat, c, trials=25, seed=12)

    def test_sampled_output_gains_variant(self):
        pat = build_structured_wdn(TRIANGLE_WDN_INC)
        g = from_pattern(pat, transpose=True)
        c = build_output_pattern(place_cyclic(g, spanning_tree_dfs(g)), g.n)
        report = sample_and_check(pat, c, trials=50, seed=5, c_mode="sampled")
        assert report.passes == 50  # nonzero gains keep observability intact

    def test_unknown_c_mode_rejected(self):
        c = PatternMatrix(1, 3, frozenset({(0, 0)}), frozenset())
        with pytest.raises(ValueError, match="c_mode"):
            sample_and_check(TRIANGLE, c, trials=1, seed=0, c_mode="nope")


class TestExhaustiveMinimum:
    def test_scalar_star_self_loop(self):
        pat = PatternMatrix.from_rows(["*"])
        result = exhaustive_min_sensors(pat)
        assert result.minimum_size == 1
        assert result.witnesses == ((0,),)
        assert result.configurations_checked == 2  # the empty set, then {0}

    def test_path_needs_one_end(self):
        pat = PatternMatrix.from_rows(["0*0", "*0*", "0*0"], symmetric=True)
        result = exhaustive_min_sensors(pat)
        assert result.minimum_size == 1
        assert (0,) in result.witnesses and (2,) in result.witnesses

    def test_triangle_sweeps_all_seven(self):
        result = exhaustive_min_sensors(TRIANGLE)
        assert result.minimum_size == 2
        assert result.witnesses == ((0, 1), (0, 2), (1, 2))
        assert result.configurations_checked == 7  # 1 empty + 3 singles + 3 pairs

    def test_minimum_never_beaten_by_smaller_set(self):
        from itertools import combinations

        result = exhaustive_min_sensors(TRIANGLE)
        for size in range(result.minimum_size):
            for combo in combinations(range(3), size):
                c = PatternMatrix(
                    size, 3, frozenset((r, s) for r, s in enumerate(combo)), frozenset()
                )
                assert not certify_sso(TRIANGLE, c).sso

    def test_heuristic_is_an_upper_bound(self):
        for seed in range(20):
            pat = random_connected_pattern(seed, n_max=10)
            g = from_pattern(pat, transpose=True)
            p = place_cyclic(g, spanning_tree_dfs(g))
            if not certify_sso(pat, build_output_pattern(p, g.n)).sso:
                continue  # the heuristic has known gaps; minimality is about certified runs
            result = exhaustive_min_sensors(pat)
            assert result.minimum_size <= p.n_y

    def test_cap_refusal_names_configuration_count(self):
        pat = PatternMatrix(17, 17)
        with pytest.raises(ValueError, match=str(2**17 - 1)):
            exhaustive_min_sensors(pat)

    def test_progress_stream(self):
        updates = []
        exhaustive_min_sensors(TRIANGLE, progress=updates.append)
        assert [u["size"] for u in updates] == [0, 1, 2]
        assert updates[-1]["witnesses"] == 3

    def test_witness_cap_respected(self):
        pat = build_structured_wdn(TRIANGLE_WDN_INC)
        result = exhaustive_min_sensors(pat, witness_cap=1)
        assert len(result.witnesses) == 1
        assert result.minimum_size == 2


def naive_min_sensors(a: PatternMatrix, witness_cap: int = 64) -> tuple:
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


def count_oracle_calls(monkeypatch, *names) -> dict:
    """Count calls of the named functions as ``strucsense.oracle`` looks them up."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _fn=getattr(strucsense.oracle, name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(strucsense.oracle, name, counting)
    return counts


class TestExhaustiveAgainstNaiveSearch:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("generator", [random_connected_pattern, random_symmetric_pattern])
    def test_same_result_as_certifying_each_subset(self, generator, seed):
        pat = generator(seed, n_max=10)
        for cap in (64, 2):
            result = exhaustive_min_sensors(pat, witness_cap=cap)
            got = (result.minimum_size, result.witnesses, result.configurations_checked)
            assert got == naive_min_sensors(pat, cap)

    def test_asymmetric_pattern(self):
        pat = PatternMatrix.from_rows(["?*00", "0?*0", "00?*", "*00*"])
        result = exhaustive_min_sensors(pat)
        got = (result.minimum_size, result.witnesses, result.configurations_checked)
        assert got == naive_min_sensors(pat)

    def test_companion_built_once_per_search(self, monkeypatch):
        counts = count_oracle_calls(monkeypatch, "make_abar", "compile_pattern")
        result = exhaustive_min_sensors(random_connected_pattern(3, n_min=8, n_max=10))
        assert result.configurations_checked > 1
        assert counts == {"make_abar": 0, "compile_pattern": 1}


class TestUnobservableWitness:
    def test_rejected_single_sensor_on_triangle_yields_witness(self):
        c = PatternMatrix(1, 3, frozenset({(0, 0)}), frozenset())
        assert not certify_sso(TRIANGLE, c).sso
        realization, vector, lam = find_unobservable_realization(TRIANGLE, c)
        assert is_member(realization, TRIANGLE)
        assert np.allclose(realization @ vector, lam * vector)
        assert vector[0] == 0.0  # invisible to the sensor on state 0
        assert not observability_rank_test(realization, realize_unit_output(c))

    @pytest.mark.parametrize(
        "rows, measured, lam",
        [
            (["?*0", "*?*", "0*?"], (), 0.0),  # A leaves every state white: plain mode
            (["0**", "*0*", "**0"], (0,), 1.0),  # A colours, Abar does not: shifted mode
        ],
    )
    def test_pattern_compiled_once(self, monkeypatch, rows, measured, lam):
        a = PatternMatrix.from_rows(rows, symmetric=True)
        c = PatternMatrix(len(measured), 3, frozenset(enumerate(measured)), frozenset())
        counts = count_oracle_calls(monkeypatch, "compile_pattern")
        realization, vector, got_lam = find_unobservable_realization(a, c)
        assert got_lam == lam
        assert np.allclose(realization @ vector, lam * vector)
        assert counts == {"compile_pattern": 1}

    def test_certified_placement_has_no_witness(self):
        pat = build_structured_wdn(TRIANGLE_WDN_INC)
        g = from_pattern(pat, transpose=True)
        c = build_output_pattern(place_cyclic(g, spanning_tree_dfs(g)), g.n)
        assert certify_sso(pat, c).sso
        assert find_unobservable_realization(pat, c) is None

    def test_every_rejected_random_placement_yields_witness(self):
        produced = 0
        for seed in range(60):
            pat = random_connected_pattern(seed, n_max=30)
            g = from_pattern(pat, transpose=True)
            p = place_cyclic(g, spanning_tree_dfs(g))
            c = build_output_pattern(p, g.n)
            if certify_sso(pat, c).sso:
                continue
            realization, vector, lam = find_unobservable_realization(pat, c, seed=seed)
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
            g = from_pattern(pat, transpose=True)
            p = place_cyclic(g, spanning_tree_dfs(g))
            c = build_output_pattern(p, g.n)
            if not certify_sso(pat, c).sso:
                continue
            report = sample_and_check(pat, c, trials=40, seed=1000 + seed)
            assert report.passes == 40, f"seed {seed - 1}"
            confirmed += 1
        assert confirmed == 10
