from pathlib import Path

import numpy as np
import pytest

from strucsense import (
    Entry,
    ParseError,
    build_structured_wdn,
    check_preconditions,
    classify_nodes,
    from_pattern,
    incidence,
    parse_edge_list,
    parse_inp,
    structured_state_labels,
)
from strucsense.wdn import to_inp_text, write_incidence_csv

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

MINIMAL = """
[JUNCTIONS]
 a  10
 b  10
[PIPES]
 p1  a  b  100 300 100
[END]
"""

# node-by-link layout of the triangular tank-fed toy network
TRIANGLE_INC = np.array(
    [[-1, 1, 1, 0], [0, 0, -1, 1], [0, -1, 0, -1], [1, 0, 0, 0]], dtype=float
)


class TestParseInp:
    def test_minimal_network(self):
        net = parse_inp(MINIMAL)
        assert net.n_nodes == 2 and net.n_links == 1
        assert [n.label for n in net.nodes] == ["a", "b"]
        assert net.links[0].from_label == "a" and net.links[0].to_label == "b"

    def test_triangle_fixture(self, fixtures_dir):
        net = parse_inp((fixtures_dir / "triangle_wdn.inp").read_text())
        assert net.n_nodes == 4 and net.n_links == 4
        assert [n.kind for n in net.nodes] == ["junction"] * 3 + ["tank"]
        assert [l.label for l in net.links] == ["e1", "e2", "e3", "e4"]
        assert net.coordinates["4"] == (0.0, 100.0)

    def test_comments_and_blanks_ignored(self):
        noisy = MINIMAL.replace("[PIPES]", ";leading comment\n\n[PIPES]  ;trailing\n\n")
        clean, noisy = parse_inp(MINIMAL), parse_inp(noisy)
        assert clean.nodes == noisy.nodes and clean.links == noisy.links

    def test_unknown_sections_skipped(self):
        text = MINIMAL.replace("[END]", "[OPTIONS]\n UNITS LPS\n[END]")
        assert parse_inp(text).n_links == 1

    def test_undeclared_endpoint_reports_line(self):
        bad = MINIMAL.replace(" p1  a  b", " p1  a  zz")
        with pytest.raises(ParseError, match="undeclared") as err:
            parse_inp(bad)
        assert err.value.line is not None

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ParseError, match="duplicate node"):
            parse_inp(MINIMAL.replace(" b  10", " a  10"))
        doubled = MINIMAL.replace("[PIPES]\n p1  a  b  100 300 100", "[PIPES]\n p1 a b 1\n p1 b a 1")
        with pytest.raises(ParseError, match="duplicate link"):
            parse_inp(doubled)

    def test_missing_link_section_rejected(self):
        with pytest.raises(ParseError, match="link section"):
            parse_inp("[JUNCTIONS]\n a 10\n b 10\n[END]\n")

    def test_pumps_and_valves_are_links(self):
        text = """
[JUNCTIONS]
 1 0
 2 0
 3 0
[PIPES]
 p1 1 2 1 1 1
[PUMPS]
 pm 2 3 HEAD 1
[VALVES]
 v1 3 1 300 PRV 0
"""
        net = parse_inp(text)
        assert [l.kind for l in net.links] == ["pipe", "pump", "valve"]

    def test_round_trip_preserves_labels_in_order(self, fixtures_dir):
        net = parse_inp((fixtures_dir / "triangle_wdn.inp").read_text())
        again = parse_inp(to_inp_text(net))
        assert [n.label for n in again.nodes] == [n.label for n in net.nodes]
        assert [l.label for l in again.links] == [l.label for l in net.links]
        assert [(l.from_label, l.to_label) for l in again.links] == [
            (l.from_label, l.to_label) for l in net.links
        ]


class TestIncidence:
    def test_triangle_fixture_matches_frozen_layout(self, fixtures_dir):
        net = parse_inp((fixtures_dir / "triangle_wdn.inp").read_text())
        assert np.array_equal(incidence(net), TRIANGLE_INC)

    def test_single_pipe_column(self):
        mat = incidence(parse_inp(MINIMAL))
        assert np.array_equal(mat, np.array([[1.0], [-1.0]]))

    def test_reversed_link_negates_column(self):
        mat = incidence(parse_inp(MINIMAL.replace(" p1  a  b", " p1  b  a")))
        assert np.array_equal(mat, np.array([[-1.0], [1.0]]))

    def test_each_column_one_plus_one_minus(self, fixtures_dir):
        net = parse_inp((fixtures_dir / "two_loop.inp").read_text())
        mat = incidence(net)
        assert ((mat == 1).sum(axis=0) == 1).all()
        assert ((mat == -1).sum(axis=0) == 1).all()
        assert np.array_equal(mat.sum(axis=0), np.zeros(net.n_links))

    def test_row_sums_are_degree_imbalances(self, fixtures_dir):
        net = parse_inp((fixtures_dir / "two_loop.inp").read_text())
        mat = incidence(net)
        out_deg = np.zeros(net.n_nodes)
        in_deg = np.zeros(net.n_nodes)
        for link in net.links:
            out_deg[net.node_index(link.from_label)] += 1
            in_deg[net.node_index(link.to_label)] += 1
        assert np.array_equal(mat.sum(axis=1), out_deg - in_deg)

    def test_self_connecting_link_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            incidence(parse_inp(MINIMAL.replace(" p1  a  b", " p1  a  a")))


class TestWriteIncidenceCsv:
    @pytest.mark.parametrize(
        "text",
        [
            *(path.read_text() for path in sorted(FIXTURES.glob("*.inp"))),
            MINIMAL,
            "[JUNCTIONS]\n a 0\n b 0\n[PIPES]\n",  # nodes without links
            "[PIPES]\n",  # no nodes at all
        ],
    )
    def test_matches_the_dense_matrix_csv(self, text, tmp_path):
        net = parse_inp(text)
        path = tmp_path / "incidence.csv"
        write_incidence_csv(net, path)
        dense = "\n".join(",".join(f"{v:g}" for v in row) for row in incidence(net)) + "\n"
        assert path.read_text() == dense

    def test_node_lookup_is_built_once(self):
        net = parse_inp(MINIMAL)
        assert net.node_index("b") == 1
        assert net._node_lookup is net._node_lookup == {"a": 0, "b": 1}


class TestStructuredPattern:
    def test_triangle_blocks(self):
        pat = build_structured_wdn(TRIANGLE_INC)
        assert (pat.rows, pat.cols) == (8, 8)
        diag = [pat.entry(i, i) for i in range(8)]
        assert diag[:4] == [Entry.STAR] * 4      # flow self-loops
        assert diag[4:] == [Entry.UNKNOWN] * 4   # head self-loops
        off_stars = [(i, j) for (i, j) in pat.star if i != j]
        assert len(off_stars) == 16              # two ends per link, mirrored
        assert pat.symmetric
        assert check_preconditions(pat).symmetric

    def test_single_pipe_pattern(self):
        pat = build_structured_wdn(np.array([[1.0], [-1.0]]))
        assert (pat.rows, pat.cols) == (3, 3)
        assert pat.entry(0, 0) is Entry.STAR
        assert pat.entry(1, 1) is Entry.UNKNOWN and pat.entry(2, 2) is Entry.UNKNOWN
        assert pat.entry(0, 1) is Entry.STAR and pat.entry(0, 2) is Entry.STAR

    def test_flow_head_bipartite_without_self_loops(self, fixtures_dir):
        net = parse_inp((fixtures_dir / "two_loop.inp").read_text())
        m = net.n_links
        pat = build_structured_wdn(incidence(net))
        for (i, j) in pat.star | pat.unknown:
            if i != j:
                assert (i < m) != (j < m)  # couplings always join a flow to a head

    def test_labels_follow_state_order(self, fixtures_dir):
        net = parse_inp((fixtures_dir / "triangle_wdn.inp").read_text())
        labels = structured_state_labels(net)
        assert labels == ["q:e1", "q:e2", "q:e3", "q:e4", "h:1", "h:2", "h:3", "h:4"]

    def test_graph_roles_on_triangle(self):
        g = from_pattern(build_structured_wdn(TRIANGLE_INC), transpose=True)
        cls = classify_nodes(g)
        assert cls.extreme == (7,)
        assert cls.intersection == (4,)


class TestParseEdgeList:
    def test_path(self):
        g = parse_edge_list('{"n": 3, "star": [[0, 1], [1, 2]]}')
        assert g.undirected_star_pairs() == {(0, 1), (1, 2)}
        assert (1, 0) in g.star_edges  # symmetrized

    def test_triangle(self):
        g = parse_edge_list('{"n": 3, "star": [[0, 1], [0, 2], [1, 2]]}')
        assert len(g.undirected_star_pairs()) == 3

    def test_single_isolated_node(self):
        g = parse_edge_list('{"n": 1, "star": []}')
        assert g.n == 1 and not g.star_edges

    def test_unknown_edges(self):
        g = parse_edge_list('{"n": 2, "star": [], "unknown": [[0, 1]]}')
        assert (1, 0) in g.unknown_edges

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            parse_edge_list('{"n": 2, "star": [[0, 5]]}')
