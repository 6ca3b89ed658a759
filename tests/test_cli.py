import ast
import collections
import contextlib
import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strucsense
from strucsense.cli import BENCH_COLUMNS, _white_states_line, load_input, main
from strucsense.dot import trace_dot
from strucsense.forcing import Certificate, ClosureRun
from strucsense.oracle import MinimalPlacementResult, OracleReport
from strucsense.pattern import PatternMatrix
from strucsense.placement import PipelineRun, SensorCountReport
from generators import cyclic_inp_text, random_connected_pattern, to_inp_text, wdn_networks


# 200,000 items of JSON, ~1.5 MB, for the malformed-value cases whose error quotes only the first 60 characters
HUGE_LIST = ", ".join(map(str, range(200_000)))
HUGE_DICT = ", ".join(f'"{k}": 0' for k in range(200_000))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, *names) -> dict:
    """Count calls of library functions wherever the CLI's modules look them up."""
    counts = dict.fromkeys(names, 0)
    for module in (strucsense.cli, strucsense.netgraph, strucsense.placement, strucsense.forcing, strucsense.oracle):
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def counting(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    return counts


def record_loads_and_patterns(monkeypatch) -> tuple:
    """Keep every input bundle the CLI loads and the shape of every ``PatternMatrix`` built.

    Shapes are read at ``_store``, the fields' one writer, so checked and unchecked constructions both count.
    """
    bundles, shapes = [], []
    load, store = strucsense.cli.load_input, PatternMatrix._store

    def loading(path):
        bundles.append(load(path))
        return bundles[-1]

    def storing(self, rows, cols, *args, **kwargs):
        shapes.append((rows, cols))
        return store(self, rows, cols, *args, **kwargs)

    monkeypatch.setattr(strucsense.cli, "load_input", loading)
    monkeypatch.setattr(PatternMatrix, "_store", storing)
    return bundles, shapes


def record_closure_runs(monkeypatch) -> list:
    """The graph of every ``ClosureRun`` built, in order."""
    graphs, init = [], ClosureRun.__init__

    def recording(self, graph, *args, **kwargs):
        graphs.append(graph)
        init(self, graph, *args, **kwargs)

    monkeypatch.setattr(ClosureRun, "__init__", recording)
    return graphs


def assert_no_state_pattern(bundles: list, shapes: list) -> None:
    """The loaded graph's state pattern was never built, nor its edge sets."""
    (bundle,) = bundles
    n = bundle.graph.n
    assert (n, n) not in shapes
    assert "star_edges" not in vars(bundle.graph) and "unknown_edges" not in vars(bundle.graph)


def white_states_line_reference(cert, labels: list) -> str:
    """The refusal's white-state line as first defined: every white label listed, then cut to ten."""
    parts = []
    for name, colorable, trace in cert.graphs:
        if not colorable:
            forced = {u for (_, u) in trace}
            whites = [label for v, label in enumerate(labels) if v not in forced]
            parts.append(f"{name} has {len(whites)} (first: {', '.join(whites[:10])})")
    return "white states: " + "; ".join(parts)


# a reservoir and two junctions in a chain, labels holding a comma and a quote; both chain ends are measured
QUOTED_LABELS_INP = """[RESERVOIRS]
 R,1 0
[JUNCTIONS]
 J2 0
 J"3 0
[PIPES]
 P,1 R,1 J2 100 300 100
 P2 J2 J"3 100 300 100
"""


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

    @pytest.mark.parametrize("name", ["two_loop.inp", "desk14.json"])
    def test_csv_rows_have_one_field_per_column(self, capsys, fixtures_dir, name):
        """A label list holds commas; the writer quotes it, so a CSV reader sees one value."""
        import csv

        _, out, _ = run_cli(capsys, "info", str(fixtures_dir / name), "--format", "csv")
        _, text, _ = run_cli(capsys, "info", str(fixtures_dir / name), "--format", "json")
        payload = json.loads(text)
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        values = dict(rows[1:])
        assert max(len(payload["extreme"]), len(payload["intersection"])) > 1
        for key in ("extreme", "intersection"):
            assert ast.literal_eval(values[key]) == payload[key]
        assert values["hydraulic_nodes"] == ("" if payload["hydraulic_nodes"] is None else str(payload["hydraulic_nodes"]))

    def test_incidence_export_refuses_an_edge_list(self, capsys, fixtures_dir, tmp_path):
        target = tmp_path / "incidence.csv"
        code, out, err = run_cli(capsys, "info", str(fixtures_dir / "triangle3.json"), "--dump-incidence", str(target))
        assert code == 1
        assert (out, err) == ("", "error: incidence export needs a water-network input\n")
        assert not target.exists()

    def test_state_graph_built_and_classified_once(self, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "state_graph", "to_pattern", "from_pattern", "classify_nodes")
        bundles, shapes = record_loads_and_patterns(monkeypatch)
        code, _, _ = run_cli(capsys, "info", str(fixtures_dir / "triangle_wdn.inp"), "--format", "json")
        assert code == 0
        # the graph is read off the links; no state pattern is built
        assert counts == {"state_graph": 1, "to_pattern": 0, "from_pattern": 0, "classify_nodes": 1}
        assert_no_state_pattern(bundles, shapes)
        assert shapes == []

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
            ('{"n": -1}', '"n" must be non-negative'),
            ("[1, 2]", "must be a JSON object"),
            ('{"n": 3, "star": 5}', '"star" must be a list'),
            ('{"n": 3, "unknown": null}', '"unknown" must be a list'),
            ('{"n": 3, "star": [[0]]}', "star entry [0] is not a pair of integers"),
            ('{"n": 3, "star": [[0, null]]}', "star entry [0, null] is not a pair"),
            ('{"n": 3, "star": [[1, 2], [0, 1]], "unknown": [[1, 0]]}', "edge (0, 1) is both star and unknown"),
            pytest.param('{"n": 2, "star": ' + "[" * 1500 + "]" * 1500 + "}", "nested too deeply to parse", id="nested-1500"),
            # a 1.5 MB malformed value is quoted by the first 60 characters of its JSON
            pytest.param('{"n": 3, "star": [[%s]]}' % HUGE_LIST, "star entry [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, "
                         "13, 14, 15, 16, 1… is not a pair of integers", id="huge-entry"),
            pytest.param('{"n": 3, "unknown": {%s}}' % HUGE_DICT, '"unknown" must be a list of [i, j] pairs, got '
                         '{"0": 0, "1": 0, "2": 0, "3": 0, "4": 0, "5": 0, "6": 0, "7"…', id="huge-list"),
            pytest.param('{"n": [%s]}' % HUGE_LIST, '"n" must be an integer, got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, '
                         '12, 13, 14, 15, 16, 1…', id="huge-n"),
            pytest.param('{"n": 3, "star": [[0, %s]]}' % ("9" * 4000), "star pair (0, %s…) outside 0..2" % ("9" * 60),
                         id="huge-pair"),
        ],
    )
    def test_malformed_edge_list_is_input_error(self, capsys, tmp_path, text, message):
        bad = tmp_path / "broken.json"
        bad.write_text(text)
        code, out, err = run_cli(capsys, "info", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err and err.count("\n") == 1 and len(err) < 200
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

    def test_one_companion_graph_and_no_companion_pattern(self, capsys, fixtures_dir, monkeypatch):
        names = ("make_abar", "companion", "state_graph", "to_pattern", "from_pattern")
        counts = count_calls(monkeypatch, *names)
        bundles, shapes = record_loads_and_patterns(monkeypatch)
        code, _, _ = run_cli(capsys, "place", str(fixtures_dir / "triangle_wdn.inp"), "--format", "json")
        assert code == 0
        # the certificate closes the graph the input was loaded into, and no state pattern is built
        assert counts == dict(zip(names, (0, 1, 1, 0, 0)))
        assert_no_state_pattern(bundles, shapes)
        assert shapes == []  # nor an output pattern: the runs close the placement's states

    @pytest.mark.parametrize("name", ["triangle_wdn.inp", "two_loop.inp", "cyclic9.json", "star_k13.json"])
    def test_the_tree_edge_set_is_never_built(self, capsys, fixtures_dir, monkeypatch, name):
        def refuse(tree):
            raise AssertionError("tree edge set built")

        monkeypatch.setattr(strucsense.spanning.SpanningTree, "tree_edges", property(refuse))
        for fmt in ("json", "csv", "text"):
            code, out, _ = run_cli(capsys, "place", str(fixtures_dir / name), "--format", fmt)
            assert code == 0 and out
        code, _, _ = run_cli(capsys, "bench", str(fixtures_dir / name))
        assert code == 0
        with pytest.raises(AssertionError, match="tree edge set built"):  # the patch is live
            strucsense.spanning_tree_dfs(load_input(str(fixtures_dir / name)).graph).tree_edges

    def test_companion_graph_shares_the_state_graph_lists(self, capsys, fixtures_dir, monkeypatch):
        derive, graphs = strucsense.placement.companion, []

        def recording(graph):
            graphs.extend((graph, derive(graph)))
            return graphs[-1]

        monkeypatch.setattr(strucsense.placement, "companion", recording)
        code, _, _ = run_cli(capsys, "place", str(fixtures_dir / "triangle_wdn.inp"), "--format", "json")
        assert code == 0
        a_graph, abar_graph = graphs
        assert a_graph.inn is a_graph.out  # the WDN pattern is symmetric
        for name in ("star_nbrs", "nbrs", "star_out", "out", "inn"):
            assert getattr(abar_graph, name) is getattr(a_graph, name), name

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

    def test_tree_mode_builds_one_forest_and_never_classifies(self, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "spanning_tree_dfs", "classify_nodes")
        code, _, _ = run_cli(capsys, "place", str(fixtures_dir / "path4.inp"), "--mode", "tree")
        assert code == 0
        assert counts == {"spanning_tree_dfs": 1, "classify_nodes": 0}

    def test_tree_mode_reads_star_components_off_the_forest(self, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "connected_components_star")
        code, _, _ = run_cli(capsys, "place", str(fixtures_dir / "path4.inp"), "--mode", "tree")
        assert code == 0
        assert counts == {"connected_components_star": 0}

    def test_cyclic_mode_runs_each_stage_once(self, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "spanning_tree_dfs", "classify_nodes", "companion")
        closed = record_closure_runs(monkeypatch)
        bundles, _ = record_loads_and_patterns(monkeypatch)
        code, _, _ = run_cli(capsys, "place", str(fixtures_dir / "triangle_wdn.inp"), "--format", "json")
        assert code == 0
        assert counts == {"spanning_tree_dfs": 1, "classify_nodes": 0, "companion": 1}
        assert not hasattr(strucsense.forcing, "certify_sso")  # the record is the one certificate path
        # one closure per graph: the loaded graph, then its companion
        (bundle,) = bundles
        assert len(closed) == 2
        assert closed[0] is bundle.graph
        assert closed[1] == strucsense.netgraph.companion(bundle.graph) != bundle.graph

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

    def test_csv_quotes_labels_holding_a_comma_or_a_quote(self, capsys, tmp_path):
        path = tmp_path / "quoted.inp"
        path.write_text(QUOTED_LABELS_INP)
        code, out, _ = run_cli(capsys, "place", str(path), "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["sensor", "state_index", "label"]
        assert all(len(row) == 3 for row in rows)
        labels = load_input(str(path)).labels
        assert [row[2] for row in rows] == [labels[int(row[1])] for row in rows] == ['h:R,1', 'h:J"3']

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

    def test_refusal_first_line_names_a_refusal_not_a_fault(self, capsys, tmp_path):
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(GAP14))
        code, _, err = run_cli(capsys, "place", str(path), "--format", "json")
        assert code == 2
        first, whites, certificate = err.splitlines()
        assert first == "refused: the cyclic placement failed certification on this input"
        assert whites.startswith("white states: ") and json.loads(certificate)["sso"] is False

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

    @pytest.mark.parametrize("mode", ["cyclic", "tree"])
    def test_empty_graph_certifies_with_no_sensor(self, capsys, tmp_path, mode):
        path = tmp_path / "empty.json"
        path.write_text('{"n": 0}')
        code, out, _ = run_cli(capsys, "place", str(path), "--mode", mode, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["placement"]["measured"] == []
        assert payload["counts"] == {"extreme_nodes": 0, "cycles": 0, "sensors": 0, "bound_ok": True}
        assert payload["certificate"]["sso"] is True

    def test_refused_network_white_states_match_the_full_listing(self, capsys, tmp_path):
        path = tmp_path / "refused.inp"
        path.write_text(cyclic_inp_text(782, 124, 3))
        code, _, err = run_cli(capsys, "place", str(path))
        assert code == 2
        bundle = load_input(str(path))
        assert err.splitlines()[1] == white_states_line_reference(PipelineRun(bundle.graph).certificate, bundle.labels)

    def test_white_states_line_names_both_failing_graphs(self):
        labels = [f"s{v}" for v in range(15)]
        cert = Certificate(False, ((15, 3), (3, 4)), False, ((15, 3),))
        line = _white_states_line(cert, labels)
        assert line == white_states_line_reference(cert, labels)
        assert line == (
            "white states: A has 13 (first: s0, s1, s2, s5, s6, s7, s8, s9, s10, s11); "
            "Abar has 14 (first: s0, s1, s2, s4, s5, s6, s7, s8, s9, s10)"
        )


class TestStatePatternOnDemand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "--dump-pattern", "{tmp}/pattern.json"],
            ["oracle", "--trials", "3"],
        ],
        ids=["info-dump-pattern", "oracle"],
    )
    def test_commands_reading_the_pattern_build_it_once(self, argv, capsys, fixtures_dir, monkeypatch, tmp_path):
        counts = count_calls(monkeypatch, "state_graph", "to_pattern")
        bundles, shapes = record_loads_and_patterns(monkeypatch)
        path = str(fixtures_dir / "triangle_wdn.inp")
        code, _, _ = run_cli(capsys, argv[0], path, *(arg.format(tmp=tmp_path) for arg in argv[1:]))
        assert code == 0
        assert counts == {"state_graph": 1, "to_pattern": 1}
        assert shapes.count((8, 8)) == 1

    @pytest.mark.parametrize(
        "argv", [["minimize"], ["export-dot", "--stage", "trace"]], ids=["minimize", "export-dot-trace"]
    )
    def test_graph_commands_build_no_state_pattern(self, argv, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "state_graph", "to_pattern", "from_pattern")
        bundles, shapes = record_loads_and_patterns(monkeypatch)
        code, _, _ = run_cli(capsys, argv[0], str(fixtures_dir / "triangle_wdn.inp"), *argv[1:])
        assert code == 0
        assert counts == {"state_graph": 1, "to_pattern": 0, "from_pattern": 0}
        assert_no_state_pattern(bundles, shapes)

    def test_certify_builds_no_state_pattern(self, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "to_pattern")
        bundles, shapes = record_loads_and_patterns(monkeypatch)
        code, _, _ = run_cli(capsys, "certify", str(fixtures_dir / "triangle_wdn.inp"), "--sensors", "2,7")
        assert code == 0
        assert counts == {"to_pattern": 0}
        assert_no_state_pattern(bundles, shapes)


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

    @pytest.mark.parametrize(
        "command, text, message",
        [
            (("certify", "--sensors", "0"), '{"n": 0}', "measured index 0 outside a graph with no states"),
            (("info",), '{"n": 0, "star": [[0, 0]]}', "star pair (0, 0) outside a graph with no states"),
        ],
    )
    def test_index_into_a_graph_with_no_states_says_so(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "empty.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
        assert (code, out, err) == (1, "", f"error: {message}\n")


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

    def test_empty_sensor_list_tests_no_sensors(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "oracle", str(fixtures_dir / "triangle3.json"), "--sensors", "", "--trials", "5")
        assert code == 0
        payload = json.loads(out)
        assert (payload["sensors"], payload["passes"], payload["min_sigma_ratio"]) == ([], 0, 0.0)

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

    def test_refuses_over_the_cap_before_any_pipeline_stage(self, capsys, fixtures_dir, monkeypatch):
        counts = count_calls(monkeypatch, "spanning_tree_dfs", "to_pattern", "build_output_pattern")
        code, out, err = run_cli(capsys, "oracle", str(fixtures_dir / "refused33.json"), "--trials", "20")
        assert (code, out, err) == (1, "", "error: 33 states exceed the rank-test cap of 30\n")
        assert counts == {"spanning_tree_dfs": 0, "to_pattern": 0, "build_output_pattern": 0}


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
        counts = count_calls(monkeypatch, "Certificate", "classify_nodes", "spanning_tree_dfs")
        code, _, _ = run_cli(capsys, "minimize", str(fixtures_dir / "triangle3.json"))
        assert code == 0
        assert counts == {"Certificate": 0, "classify_nodes": 0, "spanning_tree_dfs": 1}


@pytest.mark.parametrize(
    "argv, record, report_keys",
    [
        (("place", "--format", "json"), SensorCountReport, lambda payload: set(payload["counts"])),
        (("oracle", "--trials", "5"), OracleReport, lambda payload: set(payload) - {"sensors"}),
        (("minimize",), MinimalPlacementResult, lambda payload: set(payload) - {"heuristic_sensors"}),
    ],
    ids=["place", "oracle", "minimize"],
)
def test_a_report_is_written_as_its_record_fields(capsys, fixtures_dir, argv, record, report_keys):
    command, *options = argv
    code, out, _ = run_cli(capsys, command, str(fixtures_dir / "triangle_wdn.inp"), *options)
    assert code == 0
    assert report_keys(json.loads(out)) == set(record._fields)


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
        closed = record_closure_runs(monkeypatch)
        code, _, _ = run_cli(
            capsys, "export-dot", str(fixtures_dir / "triangle_wdn.inp"), "--stage", "placement"
        )
        assert code == 0
        assert closed == []

    @pytest.mark.parametrize("name, companions", [("triangle_wdn.inp", 1), ("refused33.json", 0)])
    def test_trace_stage_closes_the_companion_only_when_a_colours(self, capsys, fixtures_dir, monkeypatch,
                                                                 name, companions):
        """Each graph is closed once; Abar only when A colours, since only then can Abar be the one that refuses."""
        counts = count_calls(monkeypatch, "companion")
        closed = record_closure_runs(monkeypatch)
        bundles, shapes = record_loads_and_patterns(monkeypatch)
        code, _, _ = run_cli(capsys, "export-dot", str(fixtures_dir / name), "--stage", "trace")
        assert code == 0
        assert counts == {"companion": companions}
        (bundle,) = bundles
        assert len(closed) == 1 + companions and closed[0] is bundle.graph
        assert shapes == []

    def test_trace_stage_draws_abar_when_only_abar_refuses(self, capsys, tmp_path):
        """The C5 family's seed 83: A colours and Abar leaves states white, so the drawing is Abar's closure."""
        a = random_connected_pattern(83)
        path = tmp_path / "seed83.json"
        path.write_text(json.dumps({"n": a.rows, "star": sorted(a.star), "unknown": sorted(a.unknown)}))
        code, out, _ = run_cli(capsys, "export-dot", str(path), "--stage", "trace")
        assert code == 0
        bundle = load_input(str(path))
        run = PipelineRun(bundle.graph)
        assert run.certificate.colorable_a and not run.certificate.colorable_abar
        assert "|white" in out
        assert out == trace_dot(run.abar_run.graph, run.placement.measured, run.abar_run.trace, bundle.labels)
        # A's drawing, the one drawn before, shows no white state
        assert "|white" not in trace_dot(bundle.graph, run.placement.measured, run.a_run.trace, bundle.labels)

    @pytest.mark.parametrize("name", ["triangle_wdn.inp", "refused33.json"])
    @pytest.mark.parametrize("stage", ["graph", "tree", "placement", "trace"])
    def test_stages_build_no_edge_set(self, capsys, fixtures_dir, monkeypatch, name, stage):
        """Every stage draws the graph from its neighbour lists; the edge sets stay unbuilt."""
        bundles, _ = record_loads_and_patterns(monkeypatch)
        code, _, _ = run_cli(capsys, "export-dot", str(fixtures_dir / name), "--stage", stage)
        assert code == 0
        (bundle,) = bundles
        assert "star_edges" not in vars(bundle.graph) and "unknown_edges" not in vars(bundle.graph)

    def test_trace_stage_numbers_steps(self, capsys, fixtures_dir):
        _, out, _ = run_cli(
            capsys, "export-dot", str(fixtures_dir / "triangle_wdn.inp"), "--stage", "trace"
        )
        assert "#1" in out and "penwidth" in out

    @pytest.mark.parametrize("stage", ["graph", "tree", "placement", "trace"])
    def test_labels_holding_backslashes_and_quotes_stay_quoted(self, capsys, tmp_path, stage):
        path = tmp_path / "escapes.inp"
        path.write_text('[JUNCTIONS]\n J\\ 0\n a"b 0\n c\\" 0\n[PIPES]\n P\\ J\\ a"b 1\n q"\\ a"b c\\" 1\n')
        labels = load_input(str(path)).labels
        assert labels == ["q:P\\", 'q:q"\\', "h:J\\", 'h:a"b', 'h:c\\"']
        code, out, _ = run_cli(capsys, "export-dot", str(path), "--stage", stage)
        assert code == 0
        quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
        shown = {}
        for line in out.splitlines():
            assert '"' not in quoted.sub("", line), line  # every quote opens or closes a quoted string
            state = re.match(r'  "(\d+)" \[', line)
            if state and "label=" in line:
                text = quoted.match(line, line.index("label=") + len("label=")).group()
                shown[int(state[1])] = re.sub(r"\\(.)", r"\1", text[1:-1])
        if stage == "trace":
            shown = {v: text.rpartition("|")[0] for v, text in shown.items() if v < len(labels)}
        assert shown == dict(enumerate(labels))

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

    def test_csv_quotes_a_name_holding_a_comma(self, capsys, fixtures_dir, tmp_path):
        path = tmp_path / "a,b" / "pa,th.inp"
        path.parent.mkdir()
        path.write_text((fixtures_dir / "path4.inp").read_text())
        code, out, _ = run_cli(capsys, "bench", str(path), "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["name", "state_nodes", "cycles", "extreme_nodes", "sensors", "elapsed_seconds"]
        assert len(rows) == 1 and all(len(row) == 6 for row in rows)
        assert rows[0][0] == "pa,th"

    def test_markdown_table(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "bench", str(fixtures_dir / "path4.inp"))
        assert code == 0
        assert out.splitlines()[0].startswith("| name |")

    def test_a_refused_placement_is_reported_but_not_fatal(self, capsys, fixtures_dir, tmp_path):
        refused = tmp_path / "gap.json"
        refused.write_text(json.dumps(GAP14))
        code, out, err = run_cli(capsys, "bench", str(refused), str(fixtures_dir / "path4.inp"), "--format", "json")
        assert code == 1
        assert err == f"bench failed for {refused}: placement for {refused} failed certification\n"
        assert [r["name"] for r in json.loads(out)] == ["path4"]

    def test_an_internal_fault_propagates(self, fixtures_dir, monkeypatch):
        def broken(g, t):
            raise TypeError("internal fault")

        monkeypatch.setattr(strucsense.placement, "place_cyclic", broken)
        with pytest.raises(TypeError, match="internal fault"), contextlib.redirect_stdout(io.StringIO()):
            main(["bench", str(fixtures_dir / "path4.inp")])

    def test_every_format_writes_the_bench_columns(self, capsys, fixtures_dir):
        path = str(fixtures_dir / "path4.inp")
        rows = json.loads(run_cli(capsys, "bench", path, "--format", "json")[1])
        header = next(csv.reader(io.StringIO(run_cli(capsys, "bench", path, "--format", "csv")[1])))
        table = run_cli(capsys, "bench", path)[1].splitlines()
        assert [set(row) for row in rows] == [set(BENCH_COLUMNS)]
        assert tuple(header) == BENCH_COLUMNS
        assert table[0] == "| " + " | ".join(BENCH_COLUMNS) + " |"
        assert table[2].count("|") == len(BENCH_COLUMNS) + 1


def captured_main(*argv) -> tuple:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestDeterminism:
    @settings(max_examples=60, deadline=None)
    @given(wdn_networks())
    def test_info_and_place_json_identical_across_runs(self, net):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "net.inp")
            Path(path).write_text(to_inp_text(net))
            for command in ("info", "place"):
                first = captured_main(command, path, "--format", "json")
                assert first[0] in (0, 2), first[2]  # place may refuse an uncertified placement
                assert captured_main(command, path, "--format", "json") == first

    @settings(max_examples=40, deadline=None)
    @given(wdn_networks(max_nodes=5, max_links=6), st.data())
    def test_certify_oracle_and_minimize_identical_across_runs(self, net, data):
        n = net.n_links + net.n_nodes  # at most 11 states: minimize sweeps at most 2**11 sets
        sensors = data.draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)) if n else []
        seed = data.draw(st.integers(0, 2**32 - 1))
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "net.inp")
            Path(path).write_text(to_inp_text(net))
            for argv in (
                ("certify", path, "--sensors", ",".join(map(str, sensors)), "--format", "json"),
                ("oracle", path, "--trials", "4", "--seed", str(seed)),
                ("minimize", path),
            ):
                first = captured_main(*argv)
                assert first[0] == 0, first[2]
                assert captured_main(*argv) == first


INTS = st.integers(-(2**70), 2**70)
# scalars json writes through its own paths: escapes, float repr, NaN/Infinity, -0.0, true/false/null
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    INTS,
    st.floats(),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "é \U0001f600", '"\\/\b\f\n\r\t']),
)
# the writer's one-pass shapes, and near misses: bools among ints, ragged rows, tuple rows
INT_LISTS = st.lists(st.one_of(INTS, st.booleans()), max_size=8)
INT_ROWS = st.integers(0, 4).flatmap(
    lambda width: st.lists(
        st.one_of(st.lists(INTS, min_size=width, max_size=width), st.tuples(*[INTS] * width)), max_size=8
    )
)
RAGGED_ROWS = st.lists(st.lists(st.one_of(INTS, st.booleans()), max_size=4), max_size=6)
Pair = collections.namedtuple("Pair", "first second")  # a tuple subclass: json writes it as a list
JSON_VALUES = st.recursive(
    st.one_of(JSON_SCALARS, INT_LISTS, INT_ROWS, RAGGED_ROWS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.builds(Pair, children, children),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


class TestJsonWriter:
    """JSON output is ``json.dumps(..., sort_keys=True, indent=2)`` without the pure-Python encoder."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_writer_is_json_dumps_byte_for_byte(self, value):
        assert strucsense.cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(), st.integers()), max_size=8))
    def test_tuple_rows_write_as_list_rows(self, trace):
        """A certificate's trace reaches the writer as (forcer, forced) tuples, and prints as lists would."""
        rows = tuple(trace)
        assert strucsense.cli._json_text(rows) == strucsense.cli._json_text([list(row) for row in rows])
        assert strucsense.cli._json_text({"trace": rows}) == json.dumps({"trace": trace}, indent=2)

    @pytest.mark.parametrize("key", [1, None, ("a",)], ids=["int", "none", "tuple"])
    def test_a_key_that_is_not_a_str_is_refused(self, key):
        """``json.dumps`` would coerce an int or ``None`` key to a string; the writer refuses every such key."""
        with pytest.raises(TypeError, match="^JSON output keys must be str$"):
            strucsense.cli._json_text({"a": 1, key: 2})

    @pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="no C-accelerated json encoder")
    def test_no_command_output_uses_the_pure_python_encoder(self, fixtures_dir, monkeypatch):
        golden = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())

        def refuse(*args, **kwargs):
            raise AssertionError("pure-Python JSON encoder used")

        monkeypatch.chdir(fixtures_dir.parent)
        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError, match="pure-Python"):
            json.dumps([1], indent=2)  # the patch is where json.dumps looks
        for argv in (
            "place fixtures/two_loop.inp --format json",
            "info fixtures/two_loop.inp --format json",
            "minimize fixtures/triangle3.json",
        ):
            expected = golden[argv]
            assert captured_main(*argv.split()) == (expected["exit"], expected["stdout"], expected["stderr"])
        code, out, err = captured_main("bench", "fixtures/two_loop.inp", "fixtures/tree9.json", "--format", "json")
        monkeypatch.undo()
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


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

    @pytest.mark.parametrize(
        "level, verbose",
        [("info", True), ("INFO", True), ("debug", True), ("warning", False), ("error", False),
         (None, False), ("chatty", False)],
    )
    def test_log_level_decides_bench_progress(self, level, verbose, fixtures_dir):
        """At info or debug, one ``INFO strucsense: bench <path> done`` line per path; else nothing."""
        paths = [str(fixtures_dir / "path4.inp"), str(fixtures_dir / "two_loop.inp")]
        env = {"PATH": "", "PYTHONPATH": source_pythonpath()}
        if level is not None:
            env["STRUCSENSE_LOG"] = level
        proc = subprocess.run(
            [sys.executable, "-m", "strucsense.cli", "bench", *paths, "--format", "csv"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ("".join(f"INFO strucsense: bench {p} done\n" for p in paths) if verbose else "")
        assert len(proc.stdout.splitlines()) == 3


class TestLogLinesInProcess:
    """``STRUCSENSE_LOG`` read by ``main`` in this process, where a line-coverage run sees the writers run."""

    LEVELS = [("info", True), ("debug", True), ("warning", False), ("", False), (None, False)]

    @staticmethod
    def set_level(monkeypatch, level):
        if level is None:
            monkeypatch.delenv("STRUCSENSE_LOG", raising=False)
        else:
            monkeypatch.setenv("STRUCSENSE_LOG", level)

    @pytest.mark.parametrize("level, verbose", LEVELS)
    def test_minimize_writes_one_sorted_json_line_per_size(self, capsys, fixtures_dir, monkeypatch, level, verbose):
        self.set_level(monkeypatch, level)
        code, out, err = run_cli(capsys, "minimize", str(fixtures_dir / "triangle3.json"))
        assert code == 0
        if not verbose:
            assert err == ""
            return
        lines = err.splitlines()
        updates = [json.loads(line) for line in lines]
        assert lines == [json.dumps(u, sort_keys=True) for u in updates]
        payload = json.loads(out)
        assert [u["size"] for u in updates] == list(range(payload["minimum_size"] + 1)) == [0, 1, 2]
        assert updates[-1] == {"size": 2, "checked": payload["configurations_checked"],
                               "witnesses": len(payload["witnesses"])}

    @pytest.mark.parametrize("level, verbose", LEVELS)
    def test_bench_writes_one_done_line_per_path(self, capsys, fixtures_dir, monkeypatch, level, verbose):
        self.set_level(monkeypatch, level)
        paths = [str(fixtures_dir / "path4.inp"), str(fixtures_dir / "two_loop.inp")]
        code, out, err = run_cli(capsys, "bench", *paths, "--format", "csv")
        assert code == 0
        assert err == ("".join(f"INFO strucsense: bench {p} done\n" for p in paths) if verbose else "")
        assert len(out.splitlines()) == 3


def fresh_interpreter(code: str, *args: str):
    """Run ``code`` in a new interpreter on the package under test; it prints one JSON line."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": source_pythonpath()},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# modules the structural commands start without: numpy, and the stdlib modules whose import cost
# the package avoids (records are NamedTuples or plain classes; progress lines go straight to stderr)
UNLOADED = ("numpy", "dataclasses", "logging")

# runs one CLI command with its output swallowed, then reports its exit code and which of UNLOADED got loaded
COLD_START = f"""
import contextlib, io, json, sys
from strucsense.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, [m for m in {UNLOADED!r} if m in sys.modules]]))
"""


class TestColdStart:
    """Only the commands that compute with arrays load numpy; the structural ones start without it.

    No command and no import of the CLI loads ``dataclasses`` or ``logging``.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "{inp}"],
            ["info", "{inp}", "--dump-pattern", "{tmp}/pattern.json"],
            ["info", "{inp}", "--dump-incidence", "{tmp}/incidence.csv"],
            ["place", "{inp}"],
            ["certify", "{inp}", "--sensors", "0,1"],
            ["minimize", "{json}"],
            ["export-dot", "{inp}", "--stage", "graph"],
            ["export-dot", "{inp}", "--stage", "tree"],
            ["export-dot", "{inp}", "--stage", "placement"],
            ["export-dot", "{inp}", "--stage", "trace"],
            ["bench", "{inp}"],
        ],
        ids=lambda argv: " ".join(a for a in argv if "{" not in a),
    )
    def test_structural_command_leaves_numpy_unloaded(self, argv, fixtures_dir, tmp_path):
        paths = {"inp": fixtures_dir / "two_loop.inp", "json": fixtures_dir / "triangle3.json", "tmp": tmp_path}
        argv = [a.format(**paths) for a in argv]
        assert fresh_interpreter(COLD_START, *argv) == [0, []]

    def test_oracle_loads_numpy(self, fixtures_dir):
        """The probe sees numpy when a command does load it."""
        argv = ["oracle", str(fixtures_dir / "two_loop.inp"), "--trials", "2"]
        code, loaded = fresh_interpreter(COLD_START, *argv)
        assert code == 0 and "numpy" in loaded

    def test_the_witness_needs_no_numpy(self, fixtures_dir):
        """With numpy unimportable, refused33's refusal still gets its realization (λ 0)."""
        code = """
import json, sys
sys.modules["numpy"] = None
from strucsense import PipelineRun, find_unobservable_realization
from strucsense.cli import load_input
_, vector, lam = find_unobservable_realization(PipelineRun(load_input(sys.argv[1]).graph))
print(json.dumps([lam, len(vector)]))
"""
        lam, support = fresh_interpreter(code, str(fixtures_dir / "refused33.json"))
        assert lam == 0.0 and support > 0

    def test_only_the_numeric_modules_import_numpy(self):
        """Sparse end to end: of the package's modules, only ``oracle`` and ``pattern`` import numpy, at any depth."""
        importers = set()
        for path in Path(strucsense.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                if any(name.partition(".")[0] == "numpy" for name in names):
                    importers.add(path.stem)
        assert importers <= {"oracle", "pattern"}, sorted(importers)
        assert "oracle" in importers  # the walk sees function-level imports

    def test_cli_import_loads_every_layer_but_not_numpy(self):
        """Every layer module is imported eagerly, so per-layer tracing finds each in ``sys.modules``."""
        loaded = set(fresh_interpreter("import json, sys, strucsense.cli; print(json.dumps(sorted(sys.modules)))"))
        layers = ("cli", "wdn", "pattern", "netgraph", "spanning", "placement", "forcing", "oracle")
        assert {f"strucsense.{layer}" for layer in layers} <= loaded
        assert not loaded & set(UNLOADED)


class TestParserReuse:
    """One parser per process, and each call parses into a fresh namespace: nothing carries over."""

    def test_parser_is_built_once(self):
        assert strucsense.cli.build_parser() is strucsense.cli.build_parser()

    def test_given_sensors_do_not_carry_over(self, fixtures_dir):
        path = str(fixtures_dir / "two_loop.inp")
        given = json.loads(captured_main("oracle", path, "--sensors", "0,1", "--trials", "2")[1])
        assert given["sensors"] == [0, 1]
        code, out, _ = captured_main("oracle", path, "--trials", "2")
        assert code == 0
        placed = json.loads(captured_main("place", path, "--format", "json")[1])["placement"]["measured"]
        assert json.loads(out)["sensors"] == placed != [0, 1]

    def test_mode_does_not_carry_over(self, fixtures_dir):
        path = str(fixtures_dir / "two_loop.inp")
        assert captured_main("place", path, "--mode", "tree", "--format", "json")[0] == 1
        code, out, _ = captured_main("place", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["placement"]["mode"] == "cyclic"

    def test_usage_error_leaves_the_next_command_as_in_a_fresh_interpreter(self, fixtures_dir):
        argv = ["place", str(fixtures_dir / "triangle_wdn.inp"), "--format", "json"]
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            main(["place", str(fixtures_dir / "triangle_wdn.inp"), "--mode", "loop"])
        assert exc.value.code == 1
        fresh = subprocess.run(
            [sys.executable, "-m", "strucsense.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": source_pythonpath()},
        )
        assert captured_main(*argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


class TestUsage:
    """A usage error exits 1, as an input error does, so that 2 stays a refused placement's code alone."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["place", "fixtures/path4.inp", "--bogus"],
            ["place", "fixtures/path4.inp", "--mode", "loop"],
            ["place"],
            [],
            ["oracle", "fixtures/path4.inp", "--c-mode", "sampled"],
        ],
        ids=["unknown-flag", "bad-choice", "missing-path", "no-command", "removed-c-mode"],
    )
    def test_usage_error_exits_1(self, argv):
        err = io.StringIO()
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
            main(argv)
        assert exc.value.code == 1
        assert err.getvalue().startswith("usage: strucsense") and "error: " in err.getvalue()

    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(io.StringIO()):
            main(["place", "--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("command", ["oracle", "minimize"])
    def test_a_command_with_one_output_format_takes_no_format(self, command, fixtures_dir):
        out, err = io.StringIO(), io.StringIO()
        with pytest.raises(SystemExit), contextlib.redirect_stdout(out):
            main([command, "--help"])
        assert "--format" not in out.getvalue()
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
            main([command, str(fixtures_dir / "path4.inp"), "--format", "json"])
        assert exc.value.code == 1
        assert err.getvalue().endswith("error: unrecognized arguments: --format json\n")

    @pytest.mark.parametrize("command", ["info", "place", "certify", "oracle", "minimize", "export-dot", "bench"])
    def test_every_command_documents_out(self, command):
        out = io.StringIO()
        with pytest.raises(SystemExit), contextlib.redirect_stdout(out):
            main([command, "--help"])
        assert "write output to this path instead of stdout" in " ".join(out.getvalue().split())


FIXTURE_NAMES = sorted(p.name for p in (Path(__file__).resolve().parent.parent / "fixtures").iterdir())
EVERY_COMMAND = [
    ["info", "{path}", "--format", "json"],
    ["place", "{path}", "--format", "json"],
    ["place", "{path}", "--mode", "tree", "--format", "json"],
    ["certify", "{path}", "--sensors", "0", "--format", "json"],
    ["oracle", "{path}"],
    ["minimize", "{path}"],
    *[["export-dot", "{path}", "--stage", stage] for stage in ("graph", "tree", "placement", "trace")],
    ["bench", "{path}"],
]


def cyclic_garbage_of_a_second_run(argv: list) -> int:
    """Objects the cyclic collector frees after a command's second in-process run.

    The first run pays the one-time costs, such as numpy's first import, which
    leaves unreachable objects of its own behind.
    """
    captured_main(*argv)
    gc.collect()
    captured_main(*argv)
    return gc.collect()


def refused_1x_network(tmp_path) -> str:
    """A 1x L-town-size network whose leaf placement does not certify, so ``place`` exits 2."""
    path = tmp_path / "refused.inp"
    path.write_text(cyclic_inp_text(782, 124, seed=3))
    return str(path)


def malformed_network(tmp_path) -> str:
    path = tmp_path / "malformed.inp"
    path.write_text("[JUNCTIONS]\n a 1\n")  # no link section: exit 1
    return str(path)


class TestCycleFree:
    """Every command's structures are freed by reference counting, so pausing the cyclic collector is safe."""

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: " ".join(a for a in argv if "{" not in a))
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_commands_leave_no_cyclic_garbage(self, argv, name, fixtures_dir):
        argv = [a.format(path=fixtures_dir / name) for a in argv]
        assert cyclic_garbage_of_a_second_run(argv) == 0

    def test_refused_placement_leaves_no_cyclic_garbage(self, tmp_path):
        argv = ["place", refused_1x_network(tmp_path), "--format", "json"]
        assert captured_main(*argv)[0] == 2
        assert cyclic_garbage_of_a_second_run(argv) == 0

    @pytest.mark.parametrize("command", ["info", "place"])
    def test_input_error_leaves_no_cyclic_garbage(self, command, tmp_path):
        argv = [command, malformed_network(tmp_path)]
        assert captured_main(*argv)[0] == 1
        assert cyclic_garbage_of_a_second_run(argv) == 0


class TestCollectorPaused:
    """``main`` pauses the cyclic collector around the command and restores the caller's setting."""

    def exits(self, fixtures_dir, tmp_path) -> list:
        return [
            (["place", str(fixtures_dir / "two_loop.inp"), "--format", "json"], 0),
            (["place", malformed_network(tmp_path)], 1),
            (["place", refused_1x_network(tmp_path), "--format", "json"], 2),
        ]

    def test_enabled_again_after_every_exit_code(self, fixtures_dir, tmp_path):
        for argv, code in self.exits(fixtures_dir, tmp_path):
            assert gc.isenabled()
            assert captured_main(*argv)[0] == code
            assert gc.isenabled()

    def test_enabled_again_after_an_unexpected_exception(self, fixtures_dir, monkeypatch):
        def broken(path):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(strucsense.cli, "load_input", broken)
        with pytest.raises(RuntimeError, match="unexpected"):
            main(["info", str(fixtures_dir / "two_loop.inp")])
        assert gc.isenabled()

    def test_a_caller_that_disabled_it_keeps_it_disabled(self, fixtures_dir, tmp_path, monkeypatch):
        gc.disable()
        try:
            for argv, code in self.exits(fixtures_dir, tmp_path):
                assert captured_main(*argv)[0] == code
                assert not gc.isenabled()
            monkeypatch.setattr(strucsense.cli, "load_input", lambda path: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                main(["info", str(fixtures_dir / "two_loop.inp")])
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_no_cyclic_pass_inside_a_1x_place(self, tmp_path):
        path = refused_1x_network(tmp_path)
        passes = []

        def count(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        gc.callbacks.append(count)
        try:
            load_input(path)  # with the collector on, loading alone allocates enough to trigger passes
            outside = len(passes)
            code = captured_main("place", path, "--format", "json")[0]
        finally:
            gc.callbacks.remove(count)
        assert outside > 0
        assert code == 2
        assert len(passes) == outside


class TestStageTimesScript:
    def test_one_json_line_per_input_with_every_stage(self, fixtures_dir):
        script = Path(__file__).resolve().parent.parent / "scripts" / "stage_times.py"
        paths = [str(fixtures_dir / name) for name in ("triangle_wdn.inp", "two_loop.inp", "cyclic9.json")]
        proc = subprocess.run(
            [sys.executable, str(script), *paths],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": source_pythonpath()},
        )
        assert proc.returncode == 0, proc.stderr
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [row["path"] for row in rows] == paths
        stages = ("parse_inp", "state_graph", "labels", "check_preconditions", "paper", "forest", "leaves", "output",
                  "certificate", "counts", "place_cmd", "info_cmd")
        for row in rows[:2]:
            assert set(row) == {"path", "states", "json_output", "kernel_ms", *stages}
            assert all(row[stage] >= 0 for stage in stages)
            assert row["kernel_ms"] > 0
        assert rows[0]["states"] == 8
        search = ("parse_edge_list", "exhaustive_min_sensors", "minimize_cmd", "oracle_cmd")
        assert set(rows[2]) == {"path", "states", "kernel_ms", *search}
        assert all(rows[2][stage] >= 0 for stage in search)
        assert rows[2]["states"] == 9


class TestUntestedLinesScript:
    def test_lists_unrun_lines_and_a_total(self):
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "untested_lines.py"), "-q", "-p", "no:cacheprovider",
             "tests/test_records.py"],
            capture_output=True,
            text=True,
            cwd=root,
            env={**os.environ, "PYTHONPATH": source_pythonpath()},
        )
        assert proc.returncode == 0, proc.stderr
        *listed, total = proc.stdout.splitlines()
        assert listed
        for line in listed:
            assert re.fullmatch(r"src/strucsense/\w+\.py:[1-9]\d*: \S.*", line), line
        unrun, lines = map(int, re.fullmatch(r"(\d+) of (\d+) lines that compile to code were not run", total).groups())
        assert unrun == len(listed) < lines
