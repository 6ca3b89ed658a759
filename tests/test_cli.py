import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import strucsense
from strucsense.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, *names) -> dict:
    """Count calls of library functions wherever the CLI's modules look them up."""
    counts = dict.fromkeys(names, 0)
    for module in (strucsense.cli, strucsense.netgraph, strucsense.placement, strucsense.forcing):
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def counting(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    return counts


def _gap14() -> dict:
    """Edge list whose leaf placement is provably not observable (the known heuristic gap)."""
    pairs = [
        [0, 1], [0, 2], [0, 3], [0, 6], [2, 4], [2, 5], [2, 9], [3, 5],
        [3, 9], [3, 11], [4, 7], [4, 8], [4, 12], [5, 13], [7, 11], [9, 10],
    ]
    diag = "******??????**"
    star = pairs + [[i, i] for i, ch in enumerate(diag) if ch == "*"]
    unknown = [[i, i] for i, ch in enumerate(diag) if ch == "?"]
    return {"n": 14, "star": star, "unknown": unknown}


GAP14 = _gap14()


def dot_is_well_formed(text: str) -> bool:
    """Minimal structural check of DOT output: header, one statement per line."""
    lines = [l for l in text.strip().splitlines()]
    if not re.match(r'^(graph|digraph) "[^"]+" \{$', lines[0]) or lines[-1] != "}":
        return False
    node = re.compile(r'^  "[^"]*"( \[.*\])?;$')
    edge = re.compile(r'^  "[^"]*" (--|->) "[^"]*"( \[.*\])?;$')
    return all(node.match(l) or edge.match(l) for l in lines[1:-1])


class TestInfo:
    def test_triangle_summary(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "info", str(fixtures_dir / "triangle_wdn.inp"), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["hydraulic_nodes"] == 4
        assert payload["links"] == 4
        assert payload["state_nodes"] == 8
        assert payload["cycles"] == 1
        assert payload["extreme"] == ["h:4"]
        assert payload["intersection"] == ["h:1"]
        assert payload["preconditions"]["symmetric"] is True

    def test_edge_list_summary(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "info", str(fixtures_dir / "cyclic9.json"), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "edge_list"
        assert payload["hydraulic_nodes"] is None
        assert payload["state_nodes"] == 9
        assert payload["cycles"] == 2

    def test_state_graph_built_and_classified_once(self, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "from_pattern", "classify_nodes")
        code, _, _ = run_cli(capsys, "info", str(fixtures_dir / "triangle_wdn.inp"), "--format", "json")
        assert code == 0
        assert counts == {"from_pattern": 1, "classify_nodes": 1}

    def test_star_components_computed_once(self, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "connected_components_star")
        code, _, _ = run_cli(capsys, "info", str(fixtures_dir / "triangle_wdn.inp"), "--format", "json")
        assert code == 0
        assert counts == {"connected_components_star": 1}

    def test_malformed_file_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "broken.inp"
        bad.write_text("[JUNCTIONS]\n a 1\n[PIPES]\n p a zz 1\n")
        code, _, err = run_cli(capsys, "info", str(bad))
        assert code == 1
        assert "undeclared" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"star": [[0, 1]]}', 'no "n"'),
            ('{"n": "3"}', '"n" must be an integer'),
            ("[1, 2]", "must be a JSON object"),
            ('{"n": 3, "star": 5}', '"star" must be a list'),
            ('{"n": 3, "unknown": null}', '"unknown" must be a list'),
            ('{"n": 3, "star": [[0]]}', "star entry [0] is not a pair of integers"),
            ('{"n": 3, "star": [[0, null]]}', "star entry [0, null] is not a pair"),
        ],
    )
    def test_malformed_edge_list_is_input_error(self, capsys, tmp_path, text, message):
        bad = tmp_path / "broken.json"
        bad.write_text(text)
        code, out, err = run_cli(capsys, "info", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_self_loop_link_is_input_error_with_line(self, capsys, tmp_path):
        bad = tmp_path / "loop.inp"
        bad.write_text("[JUNCTIONS]\n a 1\n b 1\n[PIPES]\n p1 a b 1\n p2 b b 1\n")
        code, _, err = run_cli(capsys, "info", str(bad))
        assert code == 1
        assert "itself" in err
        assert "(line 6)" in err

    def test_incidence_and_pattern_dumps(self, capsys, fixtures_dir, tmp_path):
        inc_path = tmp_path / "inc.csv"
        pat_path = tmp_path / "pattern.json"
        code, _, _ = run_cli(
            capsys,
            "info",
            str(fixtures_dir / "triangle_wdn.inp"),
            "--dump-incidence",
            str(inc_path),
            "--dump-pattern",
            str(pat_path),
        )
        assert code == 0
        rows = [line.split(",") for line in inc_path.read_text().strip().splitlines()]
        assert rows[0] == ["-1", "1", "1", "0"]
        assert rows[3] == ["1", "0", "0", "0"]
        pattern = json.loads(pat_path.read_text())
        assert pattern["rows"] == 8


class TestPlace:
    def test_triangle_wdn_placement(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "place", str(fixtures_dir / "triangle_wdn.inp"), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["placement"]["measured"] == [2, 7]
        assert payload["placement"]["labels"] == ["q:e3", "h:4"]
        assert payload["certificate"]["sso"] is True
        assert payload["counts"] == {
            "extreme_nodes": 1,
            "cycles": 1,
            "sensors": 2,
            "bound_ok": True,
        }

    def test_one_compiled_graph_and_no_companion_pattern(self, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "make_abar", "compile_pattern")
        code, _, _ = run_cli(capsys, "place", str(fixtures_dir / "triangle_wdn.inp"), "--format", "json")
        assert code == 0
        assert counts == {"make_abar": 0, "compile_pattern": 1}

    def test_companion_graph_shares_the_compiled_lists(self, capsys, fixtures_dir, monkeypatch):
        derive, graphs = strucsense.forcing.ClosureGraph.companion, []

        def recording(graph):
            graphs.extend((graph, derive(graph)))
            return graphs[-1]

        monkeypatch.setattr(strucsense.forcing.ClosureGraph, "companion", recording)
        code, _, _ = run_cli(capsys, "place", str(fixtures_dir / "triangle_wdn.inp"), "--format", "json")
        assert code == 0
        a_graph, abar_graph = graphs
        assert a_graph.inn is a_graph.out  # the WDN pattern is symmetric
        assert abar_graph.out is a_graph.out
        assert abar_graph.inn is a_graph.inn
        assert abar_graph.star_out is a_graph.star_out
        assert abar_graph.out_degree == a_graph.out_degree  # every WDN state has a self-loop

    def test_tree_mode_on_path_network(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "place", str(fixtures_dir / "path4.inp"), "--mode", "tree", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["placement"]["measured"]) == 1
        # tree rule: one fewer sensor than extreme nodes still satisfies its bound
        assert payload["counts"] == {
            "extreme_nodes": 2,
            "cycles": 0,
            "sensors": 1,
            "bound_ok": True,
        }

    def test_tree_mode_builds_no_forest_and_classifies_once(self, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "spanning_tree_dfs", "classify_nodes")
        code, _, _ = run_cli(capsys, "place", str(fixtures_dir / "path4.inp"), "--mode", "tree")
        assert code == 0
        assert counts == {"spanning_tree_dfs": 0, "classify_nodes": 1}

    def test_tree_mode_computes_star_components_once(self, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "connected_components_star")
        code, _, _ = run_cli(capsys, "place", str(fixtures_dir / "path4.inp"), "--mode", "tree")
        assert code == 0
        assert counts == {"connected_components_star": 1}

    def test_cyclic_mode_runs_each_stage_once(self, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "spanning_tree_dfs", "certify_sso", "classify_nodes")
        code, _, _ = run_cli(capsys, "place", str(fixtures_dir / "triangle_wdn.inp"), "--format", "json")
        assert code == 0
        assert counts == {"spanning_tree_dfs": 1, "certify_sso": 1, "classify_nodes": 1}

    def test_cyclic_mode_reads_the_cycle_count_off_the_forest(self, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "connected_components_star")
        code, out, _ = run_cli(capsys, "place", str(fixtures_dir / "two_loop.inp"), "--format", "json")
        assert code == 0
        assert counts == {"connected_components_star": 0}
        assert json.loads(out)["counts"]["cycles"] == 2

    def test_tree_mode_rejects_cyclic_input(self, capsys, fixtures_dir):
        code, _, err = run_cli(
            capsys, "place", str(fixtures_dir / "triangle_wdn.inp"), "--mode", "tree"
        )
        assert code == 1
        assert "cyclic" in err

    def test_csv_output(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "place", str(fixtures_dir / "triangle_wdn.inp"), "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "sensor,state_index,label"
        assert out.splitlines()[1] == "0,2,q:e3"

    def test_byte_identical_reruns(self, capsys, fixtures_dir):
        _, first, _ = run_cli(
            capsys, "place", str(fixtures_dir / "two_loop.inp"), "--format", "json"
        )
        _, second, _ = run_cli(
            capsys, "place", str(fixtures_dir / "two_loop.inp"), "--format", "json"
        )
        assert first == second

    def test_uncertifiable_placement_exits_2_with_trace(self, capsys, tmp_path):
        # the pipeline must refuse to emit a leaf placement it cannot certify
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(GAP14))
        code, out, err = run_cli(capsys, "place", str(path), "--format", "json")
        assert code == 2
        assert out == ""
        assert "failed certification" in err
        assert '"sso": false' in err

    def test_refusal_names_the_white_states_before_the_certificate(self, capsys, tmp_path):
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(GAP14))
        code, _, err = run_cli(capsys, "place", str(path), "--format", "json")
        assert code == 2
        *_, whites, certificate = err.splitlines()
        assert whites == "white states: Abar has 4 (first: 2, 3, 7, 11)"
        assert json.loads(certificate)["sso"] is False
        abar = json.loads(certificate)["graphs"][1]
        assert sorted(set(range(14)) - {u for _, u in abar["trace"]}) == [2, 3, 7, 11]


class TestCertify:
    def test_proposed_placement_accepted(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "certify",
            str(fixtures_dir / "cyclic9.json"),
            "--sensors",
            "0,2,6",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["certificate"]["sso"] is True

    def test_empty_proposal_is_reported_false(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "certify",
            str(fixtures_dir / "cyclic9.json"),
            "--sensors",
            "",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["certificate"]["sso"] is False

    def test_all_states_sensed_accepted(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "certify",
            str(fixtures_dir / "cyclic9.json"),
            "--sensors",
            ",".join(str(i) for i in range(9)),
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["certificate"]["sso"] is True

    def test_labels_resolve(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "certify",
            str(fixtures_dir / "triangle_wdn.inp"),
            "--sensors",
            "q:e3,h:4",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sensors"] == [2, 7]
        assert payload["certificate"]["sso"] is True

    def test_unknown_label_is_input_error(self, capsys, fixtures_dir):
        code, _, err = run_cli(
            capsys, "certify", str(fixtures_dir / "triangle_wdn.inp"), "--sensors", "q:zz"
        )
        assert code == 1
        assert "unknown sensor label" in err

    @pytest.mark.parametrize(
        "sensors, message",
        [("0,0", "duplicate measured indices"), ("99", "measured index 99 outside 0..8")],
    )
    def test_invalid_sensor_indices_rejected_by_placement(self, capsys, fixtures_dir, sensors, message):
        code, out, err = run_cli(capsys, "certify", str(fixtures_dir / "cyclic9.json"), "--sensors", sensors)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


class TestOracleCommand:
    def test_default_placement_sampled(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "oracle",
            str(fixtures_dir / "triangle_wdn.inp"),
            "--trials",
            "20",
            "--seed",
            "42",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 20
        assert payload["passes"] == 20
        assert payload["sensors"] == [2, 7]

    def test_sensor_override(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "oracle",
            str(fixtures_dir / "triangle3.json"),
            "--sensors",
            "0",
            "--trials",
            "10",
            "--seed",
            "1",
        )
        assert code == 0
        assert json.loads(out)["sensors"] == [0]

    def test_negative_trials_is_input_error(self, capsys, fixtures_dir):
        code, out, err = run_cli(capsys, "oracle", str(fixtures_dir / "triangle3.json"), "--trials", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: trials must be non-negative, got -1\n"

    def test_zero_trials_reports_empty_sample(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "oracle", str(fixtures_dir / "triangle3.json"), "--trials", "0")
        assert code == 0
        payload = json.loads(out)
        assert (payload["trials"], payload["passes"], payload["min_sigma_ratio"]) == (0, 0, 0.0)


class TestMinimize:
    def test_triangle_reports_both_counts(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "minimize", str(fixtures_dir / "triangle3.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["minimum_size"] == 2
        assert payload["heuristic_sensors"] == 2
        assert payload["configurations_checked"] == 7
        assert sorted(map(tuple, payload["witnesses"])) == [(0, 1), (0, 2), (1, 2)]

    def test_wdn_minimum_below_heuristic(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "minimize", str(fixtures_dir / "star_k13.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["minimum_size"] == 2
        assert payload["heuristic_sensors"] == 3

    def test_heuristic_count_certifies_and_classifies_nothing(self, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "certify_sso", "classify_nodes", "spanning_tree_dfs")
        code, _, _ = run_cli(capsys, "minimize", str(fixtures_dir / "triangle3.json"))
        assert code == 0
        assert counts == {"certify_sso": 0, "classify_nodes": 0, "spanning_tree_dfs": 1}


class TestExportDot:
    @pytest.mark.parametrize("stage", ["graph", "tree", "placement", "trace"])
    def test_stages_emit_well_formed_dot(self, capsys, fixtures_dir, stage):
        code, out, _ = run_cli(
            capsys, "export-dot", str(fixtures_dir / "triangle_wdn.inp"), "--stage", stage
        )
        assert code == 0
        assert dot_is_well_formed(out)

    def test_graph_stage_styles(self, capsys, fixtures_dir):
        _, out, _ = run_cli(
            capsys, "export-dot", str(fixtures_dir / "triangle_wdn.inp"), "--stage", "graph"
        )
        assert out.startswith('graph "network"')  # symmetric input renders undirected
        assert "style=solid" in out and "style=dashed" in out
        assert "shape=box" in out and "shape=circle" in out

    def test_tree_stage_marks_chords(self, capsys, fixtures_dir):
        _, out, _ = run_cli(
            capsys, "export-dot", str(fixtures_dir / "triangle_wdn.inp"), "--stage", "tree"
        )
        assert "style=dotted" in out

    def test_placement_stage_draws_sensors(self, capsys, fixtures_dir):
        _, out, _ = run_cli(
            capsys, "export-dot", str(fixtures_dir / "triangle_wdn.inp"), "--stage", "placement"
        )
        assert "shape=hexagon" in out and "color=red" in out

    def test_placement_stage_certifies_nothing(self, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "certify_sso")
        code, _, _ = run_cli(
            capsys, "export-dot", str(fixtures_dir / "triangle_wdn.inp"), "--stage", "placement"
        )
        assert code == 0
        assert counts == {"certify_sso": 0}

    def test_trace_stage_numbers_steps(self, capsys, fixtures_dir):
        _, out, _ = run_cli(
            capsys, "export-dot", str(fixtures_dir / "triangle_wdn.inp"), "--stage", "trace"
        )
        assert "#1" in out and "penwidth" in out

    def test_out_file(self, capsys, fixtures_dir, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = run_cli(
            capsys,
            "export-dot",
            str(fixtures_dir / "star_k13.json"),
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert dot_is_well_formed(target.read_text())


class TestBench:
    def test_fixture_rows(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "bench",
            str(fixtures_dir / "triangle_wdn.inp"),
            str(fixtures_dir / "two_loop.inp"),
            "--format",
            "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["name"] for r in rows] == ["triangle_wdn", "two_loop"]
        triangle = rows[0]
        assert triangle["state_nodes"] == 8
        assert triangle["cycles"] == 1
        assert triangle["extreme_nodes"] == 1
        assert triangle["sensors"] == 2
        assert 0 <= triangle["elapsed_seconds"] < 0.5

    def test_counts_match_place(self, capsys, fixtures_dir):
        paths = sorted(str(p) for p in fixtures_dir.iterdir() if p.suffix in (".inp", ".json"))
        _, out, _ = run_cli(capsys, "bench", *paths, "--format", "json")
        rows = {row["name"]: row for row in json.loads(out)}
        assert rows
        for path in paths:
            if Path(path).stem not in rows:
                continue  # bench refused it, as place does
            code, placed, _ = run_cli(capsys, "place", path, "--format", "json")
            assert code == 0
            counts = json.loads(placed)["counts"]
            row = rows[Path(path).stem]
            assert {k: row[k] for k in ("cycles", "extreme_nodes", "sensors")} == {
                k: counts[k] for k in ("cycles", "extreme_nodes", "sensors")
            }

    def test_empty_path_list(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--format", "csv")
        assert code == 0
        assert out.strip() == "name,state_nodes,cycles,extreme_nodes,sensors,elapsed_seconds"

    def test_failures_reported_but_not_fatal(self, capsys, fixtures_dir, tmp_path):
        bad = tmp_path / "nope.inp"
        bad.write_text("[JUNCTIONS]\n a 1\n")
        code, out, err = run_cli(
            capsys, "bench", str(bad), str(fixtures_dir / "path4.inp"), "--format", "json"
        )
        assert code == 1
        assert "bench failed" in err
        rows = json.loads(out)
        assert [r["name"] for r in rows] == ["path4"]

    def test_markdown_table(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "bench", str(fixtures_dir / "path4.inp"))
        assert code == 0
        assert out.splitlines()[0].startswith("| name |")


def source_pythonpath() -> str:
    """``PYTHONPATH`` that makes a child process import the package under test.

    pytest's ``pythonpath`` setting reaches only this process, so a child
    is pointed at the directory holding the imported ``strucsense``, ahead
    of any inherited entries.
    """
    package_root = str(Path(strucsense.__file__).resolve().parent.parent)
    return os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))


class TestEntryPoint:
    def test_console_script_runs(self, fixtures_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "strucsense.cli", "info", str(fixtures_dir / "path4.inp")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": source_pythonpath()},
        )
        assert proc.returncode == 0, proc.stderr
        assert "state nodes: 7" in proc.stdout

    def test_verbose_minimize_streams_progress(self, fixtures_dir):
        # the environment is otherwise empty: no inherited settings leak in
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "strucsense.cli",
                "minimize",
                str(fixtures_dir / "triangle3.json"),
            ],
            capture_output=True,
            text=True,
            env={"PATH": "", "PYTHONPATH": source_pythonpath(), "STRUCSENSE_LOG": "info"},
        )
        assert proc.returncode == 0, proc.stderr
        progress = [json.loads(line) for line in proc.stderr.strip().splitlines() if line.startswith("{")]
        assert [u["size"] for u in progress] == [0, 1, 2]
