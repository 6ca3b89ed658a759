import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strucsense import (
    Entry,
    ParseError,
    PatternMatrix,
    check_preconditions,
    classify_nodes,
    from_pattern,
    parse_edge_list,
    parse_inp,
    StateGraph,
    state_graph,
    structured_state_labels,
    to_pattern,
)
import strucsense.wdn
from strucsense.cli import main
from strucsense.wdn import MAX_EDGE_LIST_STATES, write_incidence_csv
from generators import TRIANGLE_WDN_INC, cyclic_inp_text, to_inp_text, wdn_networks
from inp_reference import parse_inp as reference_parse_inp

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

MINIMAL = """
[JUNCTIONS]
 a  10
 b  10
[PIPES]
 p1  a  b  100 300 100
[END]
"""

# every node and link kind, two parallel links (p1, v1), a pump reversing a pipe, an unlinked node
MIXED = """
[JUNCTIONS]
 a 0
 b 0
 lone 0
[RESERVOIRS]
 r 0
[TANKS]
 t 0 10 0 20 50 0
[PIPES]
 p1 a b 100 300 100
 p2 r a 100 300 100
[PUMPS]
 pm b t HEAD 1
 pr t b HEAD 1
[VALVES]
 v1 b a 300 PRV 0
[END]
"""



def incidence_rows(net, tmp_path) -> list:
    """The incidence ``write_incidence_csv`` writes, read back as one list of ints per node."""
    path = tmp_path / "incidence.csv"
    write_incidence_csv(net, path)
    return [[int(v) for v in line.split(",")] for line in path.read_text().splitlines()]


class TestParseInp:
    def test_minimal_network(self):
        net = parse_inp(MINIMAL)
        assert net.n_nodes == 2 and net.n_links == 1
        assert net.node_labels == ("a", "b")
        assert net.ends == ((0,), (1,))

    def test_triangle_fixture(self, fixtures_dir):
        net = parse_inp((fixtures_dir / "triangle_wdn.inp").read_text())
        assert net.n_nodes == 4 and net.n_links == 4
        assert net.node_kinds == ("junction",) * 3 + ("tank",)
        assert net.link_labels == ("e1", "e2", "e3", "e4")

    def test_comments_and_blanks_ignored(self):
        noisy = MINIMAL.replace("[PIPES]", ";leading comment\n\n[PIPES]  ;trailing\n\n")
        clean, noisy = parse_inp(MINIMAL), parse_inp(noisy)
        assert clean == noisy

    def test_unknown_sections_skipped(self):
        text = MINIMAL.replace("[END]", "[OPTIONS]\n UNITS LPS\n[END]")
        assert parse_inp(text).n_links == 1
        for case in ("comments and blanks", "malformed floats", "bracket in a comment"):
            assert parse_inp(MINIMAL + SKIPPED_SECTIONS[case]) == parse_inp(MINIMAL)

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

    def test_separators_inside_a_comment_do_not_end_the_line(self):
        net = parse_inp("[JUNCTIONS]\n a ; note\x0cpage\n b\n[PIPES]\n p a b\n")
        assert net.node_labels == ("a", "b")

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_line_numbers_count_newlines_only(self, sep):
        text = f"[JUNCTIONS]\n a ;{sep} note\n b\n[PIPES]\n p a zz\n"
        for variant in (text, text.replace("\n", "\r\n")):
            with pytest.raises(ParseError, match="undeclared") as err:
                parse_inp(variant)
            assert err.value.line == 5

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
        assert net.link_kinds == ("pipe", "pump", "valve")

    @settings(max_examples=200, deadline=None)
    @given(wdn_networks())
    def test_round_trip_on_generated_networks(self, net):
        assert parse_inp(to_inp_text(net)) == net

    def test_round_trip_preserves_labels_in_order(self, fixtures_dir):
        net = parse_inp((fixtures_dir / "triangle_wdn.inp").read_text())
        assert parse_inp(to_inp_text(net)) == net


# sections the parser skips, with comments, blank lines and "[" inside lines that are not headers
SKIPPED_SECTIONS = {
    "comments and blanks": "[COORDINATES]\n;Node X Y\n\n a 1 2 ; pinned\n\n\t\r\n b 3.5 -4\r\n c;d 1 2\n e 5 6;7\n",
    "malformed floats": "[COORDINATES]\n a x 2\n b 1 y\n c 1\n d 1e400 -0\n b 5 6 7\n a 0x1 2\n",
    "bracket in a comment": "[COORDINATES]\n a 1 2 ; [moved]\n b [3 4\n c 5 6 [7]\n ; [note]\n",
    "header after": "[COORDINATES]\n a 1 2\n[PIPES]\n p2 b a 1\n [ coordinates ] ; again\n b 7 8\n[END]\n a 9 9\n",
}


# the cases that hold no line of a section the parser reads
SKIPPED_ONLY = [case for case in SKIPPED_SECTIONS if case != "header after"]


def without_coordinates(text: str) -> str:
    """``text`` with its ``[COORDINATES]`` section cut, up to the next header."""
    kept, inside = [], False
    for line in text.split("\n"):
        if line.startswith("["):
            inside = line.strip().upper() == "[COORDINATES]"
        if not inside:
            kept.append(line)
    return "\n".join(kept)


class TestSkippedSections:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.inp")))
    def test_a_section_before_any_header_leaves_the_fixture_as_it_was(self, name):
        lines = (FIXTURES / name).read_text().split("\n")
        net = parse_inp("\n".join(lines))
        for i in [i for i, line in enumerate(lines) if line.startswith("[")] + [len(lines)]:
            for case in SKIPPED_ONLY:
                assert parse_inp("\n".join(lines[:i] + [SKIPPED_SECTIONS[case]] + lines[i:])) == net, (i, case)

    def test_the_triangle_fixture_parses_the_same_without_its_coordinates(self, fixtures_dir):
        text = (fixtures_dir / "triangle_wdn.inp").read_text()
        assert "[COORDINATES]" in text and "[COORDINATES]" not in without_coordinates(text)
        assert parse_inp(without_coordinates(text)) == parse_inp(text)

    @pytest.mark.parametrize("case", SKIPPED_ONLY)
    def test_a_section_between_two_read_sections_is_skipped(self, case):
        text = MINIMAL.replace("[PIPES]", SKIPPED_SECTIONS[case] + "[PIPES]")
        assert parse_inp(text) == parse_inp(MINIMAL)

    @settings(max_examples=100, deadline=None)
    @given(wdn_networks(), st.sampled_from(SKIPPED_ONLY), st.data())
    def test_generated_networks_parse_the_same_with_a_section_before_any_header(self, net, case, data):
        lines = to_inp_text(net).split("\n")
        i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("[")]))
        assert parse_inp("\n".join(lines[:i] + [SKIPPED_SECTIONS[case]] + lines[i:])) == net

    @pytest.mark.parametrize("command", ["info", "place"])
    def test_info_and_place_print_the_same_without_the_section(self, command, fixtures_dir, tmp_path, monkeypatch, capsys):
        text = (fixtures_dir / "triangle_wdn.inp").read_text()
        for name, body in (("with", text), ("without", without_coordinates(text))):
            (tmp_path / name).mkdir()
            (tmp_path / name / "net.inp").write_text(body)
        for fmt in ("json", "csv", "text"):
            outputs = []
            for name in ("with", "without"):
                monkeypatch.chdir(tmp_path / name)
                assert main([command, "net.inp", "--format", fmt]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1] != ""

    def test_a_header_after_the_section_still_opens_its_own(self):
        net = parse_inp(MINIMAL + SKIPPED_SECTIONS["header after"])
        assert net.link_labels == ("p1", "p2")
        assert net.ends == ((0, 1), (1, 0))

    def test_errors_after_the_section_keep_their_line(self):
        text = MINIMAL + "[COORDINATES]\n a 1 2\n ; [x]\n[PIPES]\n p2 a zz 1\n"
        with pytest.raises(ParseError, match="undeclared node 'zz'") as err:
            parse_inp(text)
        assert err.value.line == text.split("\n").index(" p2 a zz 1") + 1


class TestIncidence:
    def test_triangle_fixture_matches_frozen_layout(self, fixtures_dir, tmp_path):
        net = parse_inp((fixtures_dir / "triangle_wdn.inp").read_text())
        assert incidence_rows(net, tmp_path) == [list(row) for row in TRIANGLE_WDN_INC]

    def test_single_pipe_column(self, tmp_path):
        assert incidence_rows(parse_inp(MINIMAL), tmp_path) == [[1], [-1]]

    def test_reversed_link_negates_column(self, tmp_path):
        assert incidence_rows(parse_inp(MINIMAL.replace(" p1  a  b", " p1  b  a")), tmp_path) == [[-1], [1]]

    def test_each_column_one_plus_one_minus(self, fixtures_dir, tmp_path):
        net = parse_inp((fixtures_dir / "two_loop.inp").read_text())
        columns = list(zip(*incidence_rows(net, tmp_path)))
        assert len(columns) == net.n_links
        assert all(col.count(1) == 1 and col.count(-1) == 1 and sum(col) == 0 for col in columns)

    def test_row_sums_are_degree_imbalances(self, fixtures_dir, tmp_path):
        net = parse_inp((fixtures_dir / "two_loop.inp").read_text())
        out_deg = [0] * net.n_nodes
        in_deg = [0] * net.n_nodes
        for a, b in zip(*net.ends):
            out_deg[a] += 1
            in_deg[b] += 1
        assert [sum(row) for row in incidence_rows(net, tmp_path)] == [o - i for o, i in zip(out_deg, in_deg)]

    def test_self_connecting_link_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            parse_inp(MINIMAL.replace(" p1  a  b", " p1  a  a"))


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
        dense = [["0"] * net.n_links for _ in range(net.n_nodes)]  # the documented layout, entry by entry
        for j, (a, b) in enumerate(zip(*net.ends)):
            dense[a][j] = "1"
            dense[b][j] = "-1"
        assert path.read_text() == "\n".join(",".join(row) for row in dense) + "\n"


class TestStructuredPattern:
    def test_triangle_blocks(self, fixtures_dir):
        g = state_graph(parse_inp((fixtures_dir / "triangle_wdn.inp").read_text()))
        pat = to_pattern(g)
        assert (pat.rows, pat.cols) == (8, 8)
        diag = [pat.entry(i, i) for i in range(8)]
        assert diag[:4] == [Entry.STAR] * 4      # flow self-loops
        assert diag[4:] == [Entry.UNKNOWN] * 4   # head self-loops
        off_stars = [(i, j) for (i, j) in pat.star if i != j]
        assert len(off_stars) == 16              # two ends per link, mirrored
        assert all(pat.entry(j, i) is pat.entry(i, j) for (i, j) in pat.star | pat.unknown)
        assert check_preconditions(g).symmetric

    def test_single_pipe_pattern(self):
        pat = to_pattern(state_graph(parse_inp(MINIMAL)))
        assert (pat.rows, pat.cols) == (3, 3)
        assert pat.entry(0, 0) is Entry.STAR
        assert pat.entry(1, 1) is Entry.UNKNOWN and pat.entry(2, 2) is Entry.UNKNOWN
        assert pat.entry(0, 1) is Entry.STAR and pat.entry(0, 2) is Entry.STAR

    def test_flow_head_bipartite_without_self_loops(self, fixtures_dir):
        net = parse_inp((fixtures_dir / "two_loop.inp").read_text())
        m = net.n_links
        pat = to_pattern(state_graph(net))
        for (i, j) in pat.star | pat.unknown:
            if i != j:
                assert (i < m) != (j < m)  # couplings always join a flow to a head

    def test_labels_follow_state_order(self, fixtures_dir):
        net = parse_inp((fixtures_dir / "triangle_wdn.inp").read_text())
        labels = structured_state_labels(net)
        assert labels == ["q:e1", "q:e2", "q:e3", "q:e4", "h:1", "h:2", "h:3", "h:4"]

    def test_graph_roles_on_triangle(self, fixtures_dir):
        g = state_graph(parse_inp((fixtures_dir / "triangle_wdn.inp").read_text()))
        cls = classify_nodes(g)
        assert cls.extreme == (7,)
        assert cls.intersection == (4,)


def reference_pattern(net) -> PatternMatrix:
    """The structured pattern written out entry by entry, independently of the library's walk."""
    m = net.n_links
    star = {(k, k) for k in range(m)}
    unknown = {(m + i, m + i) for i in range(net.n_nodes)}
    for j, link_ends in enumerate(zip(*net.ends)):
        for end in link_ends:
            i = m + end
            star |= {(j, i), (i, j)}
    return PatternMatrix(m + net.n_nodes, m + net.n_nodes, frozenset(star), frozenset(unknown), symmetric=True)


def assert_link_built_graph_matches(net) -> None:
    """``state_graph`` equals the graph of the reference pattern, and its pattern view is that pattern."""
    g, expected = state_graph(net), reference_pattern(net)
    assert "star_edges" not in vars(g) and "unknown_edges" not in vars(g)  # derived only on first read
    ref = from_pattern(expected)
    assert g.n == ref.n
    for name in ("star_nbrs", "nbrs", "star_out", "out", "inn", "loops"):
        assert getattr(g, name) == getattr(ref, name), name
    assert g.star_edges == ref.star_edges and g.unknown_edges == ref.unknown_edges
    assert g == ref and g.is_symmetric()
    assert to_pattern(g) == expected


class TestStateGraph:
    @pytest.mark.parametrize(
        "text", [*(path.read_text() for path in sorted(FIXTURES.glob("*.inp"))), MINIMAL, MIXED],
    )
    def test_matches_the_pattern_graph_on_fixtures(self, text):
        assert_link_built_graph_matches(parse_inp(text))

    @settings(max_examples=300, deadline=None)
    @given(wdn_networks())
    def test_matches_the_pattern_graph_on_generated_networks(self, net):
        assert_link_built_graph_matches(net)

    def test_parallel_links_and_unlinked_node(self):
        net = parse_inp(MIXED)
        g = state_graph(net)
        m = net.n_links  # flows p1 p2 pm pr v1, then heads a b lone r t
        assert g.nbrs[:m] == ((m, m + 1), (m, m + 3), (m + 1, m + 4), (m + 1, m + 4), (m, m + 1))
        assert g.nbrs[m:] == ((0, 1, 4), (0, 2, 3, 4), (), (1,), (2, 3))
        assert g.loops == (Entry.STAR,) * m + (Entry.UNKNOWN,) * net.n_nodes

    def test_empty_network(self):
        g = state_graph(parse_inp("[PIPES]\n"))
        assert g.n == 0 and g.star_edges == frozenset() and g.unknown_edges == frozenset()


def parse_outcome(parse, text: str) -> tuple:
    """A parser's network, or its error."""
    try:
        net = parse(text)
    except ParseError as err:
        return "error", str(err), err.line
    return "network", net


# INP sections whose lines meet every check the parser makes, or trip one: duplicate nodes or
# links (also across sections), short link lines, self-loops, undeclared endpoints; and headers
# behind ";", "[" inside labels and skipped sections, form feeds inside comments, text before the
# first header, repeated sections, "\r" line ends
_NAMES = st.sampled_from(["a", "b", "c", "a[1", "zz"])
_QUIET_LINES = st.sampled_from(["", " ", ";", " ; [PIPES]", ";\x0c[VALVES]", " ;\x0cnote"])
_ODD_LINES = st.sampled_from(["[", "a ; [PUMPS]", " p1 b", " p3 a ; b c", " b 1 ;\x0cx", " b [3 4", " c 5 6 [7]", " a 1e400 -0"])
_NODE_LINES = st.builds(lambda label, rest: f" {label}{rest}", _NAMES, st.sampled_from(["", " 0", "\t1 ;x", " 2 3"]))
_LINK_LINES = st.builds(
    lambda label, ends, rest: f" {label} {ends[0]} {ends[1]}{rest}",
    st.sampled_from(["p1", "p2", "v1"]),
    st.tuples(_NAMES, _NAMES),
    st.sampled_from(["", " 100", " ; c d", "\t1 2 3"]),
)
_SECTIONS = st.one_of(
    st.tuples(
        st.sampled_from(["[JUNCTIONS]", "[RESERVOIRS]", "[TANKS]"]),
        st.lists(st.one_of(_NODE_LINES, _NODE_LINES, _QUIET_LINES, _ODD_LINES), max_size=4),
    ),
    st.tuples(
        st.sampled_from(["[PIPES]", "[PUMPS]", "[VALVES]", " [ pipes ] ; again"]),
        st.lists(st.one_of(_LINK_LINES, _LINK_LINES, _QUIET_LINES, _ODD_LINES), max_size=4),
    ),
    st.tuples(
        st.sampled_from(["[COORDINATES]", "[END]", "[OPTIONS]", "[x 0"]),
        st.lists(st.one_of(_NODE_LINES, _QUIET_LINES, _ODD_LINES), max_size=3),
    ),
)
INP_FRAGMENT_TEXTS = st.builds(
    lambda preamble, sections, crlf: ("\r\n" if crlf else "\n").join(
        preamble + [line for header, lines in sections for line in [header, *lines]]
    ),
    st.lists(st.one_of(_QUIET_LINES, _ODD_LINES), max_size=2),
    st.lists(_SECTIONS, max_size=5),
    st.booleans(),
)


_HEADERS = st.sampled_from(["[JUNCTIONS]", "[TANKS]", "[PIPES]", "[PUMPS]", "[COORDINATES]", "[END]", " [ valves ] ; x"])


@st.composite
def edited_network_texts(draw) -> str:
    """A generated network's INP text with up to three lines inserted, most of which trip one check.

    The inserted lines reuse the network's own labels: links between its
    nodes (self-loops among them), repeated node and link labels, short
    link lines, headers and comment lines.
    """
    net = draw(wdn_networks())
    lines = to_inp_text(net).split("\n")
    name = st.sampled_from([*net.node_labels, "zz"])
    link = st.sampled_from([*net.link_labels, "q1"])
    extra = st.one_of(
        st.builds(lambda label, a, b: f" {label} {a} {b} 1", link, name, name),
        st.builds(lambda label, a: f" {label} {a}", link, name),
        st.builds(" {}\t0".format, name),
        _HEADERS,
        _QUIET_LINES,
        _ODD_LINES,
    )
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(extra))
    return ("\r\n" if draw(st.booleans()) else "\n").join(lines)


class TestReferenceParser:
    """The bulk parser against the line-by-line reference: equal networks, or the same error and line."""

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(INP_FRAGMENT_TEXTS, edited_network_texts()))
    def test_generated_texts_parse_as_the_reference_does(self, text):
        assert parse_outcome(parse_inp, text) == parse_outcome(reference_parse_inp, text)

    @pytest.mark.parametrize(
        "text",
        [*(path.read_text() for path in sorted(FIXTURES.glob("*.inp"))), MINIMAL, MIXED, "",
         *(MINIMAL + text for text in SKIPPED_SECTIONS.values())],
    )
    def test_fixtures_parse_as_the_reference_does(self, text):
        assert parse_outcome(parse_inp, text) == parse_outcome(reference_parse_inp, text)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_state_graph_and_labels_match_the_reference_route(self, seed):
        text = cyclic_inp_text(782, 124, seed)  # L-town's size: 1687 states
        net, ref = parse_inp(text), reference_parse_inp(text)
        g, expected = state_graph(net), state_graph(ref)
        assert g.n == expected.n == 1687
        for name in ("star_nbrs", "nbrs", "star_out", "out", "inn", "loops"):
            assert getattr(g, name) == getattr(expected, name), name
        assert g == expected
        assert structured_state_labels(net) == structured_state_labels(ref)
        assert net == ref


def parse_error(text: str) -> tuple:
    with pytest.raises(ParseError) as err:
        parse_inp(text)
    return str(err.value), err.value.line


class TestParseErrors:
    """One pin per error kind and per precedence rule: the exact message and line."""

    def test_duplicate_node_across_sections(self):
        text = "[JUNCTIONS]\n a 0\n[TANKS]\n b 0\n a 0\n[PIPES]\n p a b\n"
        assert parse_error(text) == ("duplicate node label 'a' (line 5)", 5)

    def test_duplicate_link_across_pipes_and_pumps(self):
        text = "[JUNCTIONS]\n a\n b\n[PIPES]\n p a b\n[PUMPS]\n p b a HEAD 1\n"
        assert parse_error(text) == ("duplicate link label 'p' (line 7)", 7)

    def test_short_link_line_quotes_it_without_its_comment(self):
        text = "[JUNCTIONS]\n a\n[PIPES]\n\t p  a ; b\r\n"
        assert parse_error(text) == ("link line needs id and two endpoints: 'p  a' (line 4)", 4)

    def test_self_loop(self):
        text = "[JUNCTIONS]\n a\n[PIPES]\n p a a\n"
        assert parse_error(text) == ("link 'p' connects node 'a' to itself (line 4)", 4)

    def test_no_link_section_has_no_line(self):
        assert parse_error("[JUNCTIONS]\n a\n ; [PIPES]\n") == ("no link section ([PIPES], [PUMPS] or [VALVES]) found", None)
        assert parse_error("") == ("no link section ([PIPES], [PUMPS] or [VALVES]) found", None)

    def test_undeclared_endpoint(self):
        text = "[JUNCTIONS]\n a\n[PIPES]\n p a zz\n"
        assert parse_error(text) == ("link 'p' references undeclared node 'zz' (line 4)", 4)

    def test_earliest_line_wins_across_sections(self):
        # a short link line before a later duplicate node and a later duplicate link
        text = "[JUNCTIONS]\n a\n b\n[PIPES]\n p a b\n q a\n[RESERVOIRS]\n a\n[PUMPS]\n p b a\n"
        assert parse_error(text) == ("link line needs id and two endpoints: 'q a' (line 6)", 6)
        assert parse_error(text.replace(" q a\n", "")) == ("duplicate node label 'a' (line 7)", 7)

    def test_short_line_before_duplicate_before_self_loop_on_one_line(self):
        base = "[JUNCTIONS]\n a\n b\n[PIPES]\n p a b\n"
        assert parse_error(base + " p\n") == ("link line needs id and two endpoints: 'p' (line 6)", 6)
        assert parse_error(base + " p a a\n") == ("duplicate link label 'p' (line 6)", 6)
        assert parse_error(base + " q a a\n") == ("link 'q' connects node 'a' to itself (line 6)", 6)

    def test_line_errors_before_no_link_section_before_undeclared_endpoints(self):
        assert parse_error("[JUNCTIONS]\n a\n a\n") == ("duplicate node label 'a' (line 3)", 3)
        # an undeclared endpoint on an earlier line still yields to a later line's error
        text = "[JUNCTIONS]\n a\n[PIPES]\n p a zz\n q a a\n"
        assert parse_error(text) == ("link 'q' connects node 'a' to itself (line 5)", 5)

    def test_undeclared_endpoints_in_link_order_from_before_to(self):
        text = "[JUNCTIONS]\n a\n[PIPES]\n p a y\n q x z\n"
        assert parse_error(text) == ("link 'p' references undeclared node 'y' (line 4)", 4)
        assert parse_error(text.replace(" p a y\n", "")) == ("link 'q' references undeclared node 'x' (line 4)", 4)
        # a self-loop on an undeclared node is a self-loop
        assert parse_error(text.replace(" p a y", " p y y")) == ("link 'p' connects node 'y' to itself (line 4)", 4)


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

    def test_negative_state_count_rejected(self):
        with pytest.raises(ValueError, match='"n" must be non-negative, got -1'):
            parse_edge_list('{"n": -1}')
        with pytest.raises(ValueError, match="negative state count"):
            StateGraph(-3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            parse_edge_list('{"n": 2, "star": [[0, 5]]}')

    def test_pair_in_a_graph_with_no_states_says_so(self):
        with pytest.raises(ValueError) as exc:
            parse_edge_list('{"n": 0, "star": [[0, 0]]}')
        assert str(exc.value) == "star pair (0, 0) outside a graph with no states"
        with pytest.raises(ValueError) as exc:
            parse_edge_list('{"n": 1, "unknown": [[0, 1]]}')
        assert str(exc.value) == "unknown pair (0, 1) outside 0..0"

    def test_state_count_above_the_cap_rejected_before_any_graph(self, monkeypatch, tmp_path, capsys):
        def no_graph(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(strucsense.wdn, "StateGraph", no_graph)
        text = '{"n": 1000000000}'
        with pytest.raises(ValueError, match=f"cap of {MAX_EDGE_LIST_STATES} states"):
            parse_edge_list(text)
        path = tmp_path / "huge.json"
        path.write_text(text)
        assert main(["info", str(path)]) == 1
        assert str(MAX_EDGE_LIST_STATES) in capsys.readouterr().err


# INP-shaped text: section headers, labels, numbers, comments, and every kind of line break
_INP_PIECES = st.sampled_from([
    "[JUNCTIONS]", "[RESERVOIRS]", "[TANKS]", "[PIPES]", "[PUMPS]", "[VALVES]", "[COORDINATES]", "[END]",
    "[", "]", ";", " ", "\t", "\n", "\r", "\x0c", "\x85", "\u2028", "a", "b", "c", "1", "-2.5", "1e400", "nan",
])
INP_TEXTS = st.one_of(st.text(), st.lists(_INP_PIECES, max_size=40).map("".join))
# JSON of any shape, keys an edge list reads included; small integers keep every "n" a small graph
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["n", "star", "unknown", "x"]), inner),
    max_leaves=20,
)
EDGE_LIST_TEXTS = st.one_of(st.text(), _JSON.map(json.dumps))


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(INP_TEXTS)
    def test_parse_inp_raises_only_parse_errors_with_a_line(self, text):
        try:
            parse_inp(text)
        except ParseError as err:
            assert err.line is not None or str(err).startswith("no link section")
        except ValueError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(INP_TEXTS)
    def test_parse_inp_matches_the_reference(self, text):
        assert parse_outcome(parse_inp, text) == parse_outcome(reference_parse_inp, text)

    @settings(max_examples=300, deadline=None)
    @given(EDGE_LIST_TEXTS)
    def test_parse_edge_list_raises_only_value_errors(self, text):
        try:
            parse_edge_list(text)
        except ValueError:
            pass
