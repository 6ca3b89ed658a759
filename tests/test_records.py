"""Value semantics of every record the package defines.

Equal constructor arguments give equal records; records that hash, hash
alike; the validating constructors reject bad input with fixed messages.
A pipeline run is a computation, not a value: it compares by identity.
"""

import inspect
import json

import pytest

from strucsense.cli import InputBundle
from strucsense.dot import graph_dot, placement_dot, trace_dot, tree_dot
import strucsense.forcing
import strucsense.wdn
from strucsense.forcing import Certificate, ClosureRun, ColoringState, ObservabilityGraph
from strucsense.netgraph import NodeClassification, PreconditionReport, StateGraph, companion, star_graph, to_pattern
from strucsense.oracle import (
    MinimalPlacementResult,
    OracleReport,
    exhaustive_min_sensors,
    observability_rank_test,
    sample_and_check,
)
from strucsense.pattern import Entry, PatternMatrix, make_abar, sample_realizations
from strucsense.placement import PipelineRun, SensorCountReport, SensorPlacement, build_output_pattern
from strucsense.spanning import SpanningTree, spanning_tree_dfs
from strucsense.wdn import WdnNetwork, parse_inp
from generators import hand_built_forest

STAR, NONE, UNKNOWN = Entry.STAR, Entry.ZERO, Entry.UNKNOWN


def path3() -> StateGraph:
    """0 - 1 - 2 over stars, a star loop on 0 and an unknown loop on 2."""
    star = frozenset({(0, 1), (1, 0), (1, 2), (2, 1), (0, 0)})
    return StateGraph(3, star, frozenset({(2, 2)}))


def network() -> WdnNetwork:
    return WdnNetwork(("J1", "R1"), ("junction", "reservoir"), ("P1",), ("pipe",), ((1,), (0,)))


# class -> a fresh record built from the same constructor arguments on every call
RECORDS = {
    WdnNetwork: network,
    ObservabilityGraph: lambda: ObservabilityGraph(2, 1, ((1,), (), (0,)), ((), (0,), ())),
    ColoringState: lambda: ColoringState(frozenset({0, 1}), ((2, 0), (0, 1))),
    Certificate: lambda: Certificate(True, ((2, 0), (0, 1)), False, ((2, 0),)),
    StateGraph: path3,
    NodeClassification: lambda: NodeClassification((0, 2), ()),
    PreconditionReport: lambda: PreconditionReport(
        True, True, True, None, ((0, 1, 2),), NodeClassification((0, 2), ())
    ),
    OracleReport: lambda: OracleReport(10, 9, 0.25, 42),
    MinimalPlacementResult: lambda: MinimalPlacementResult(2, ((0, 1), (1, 2)), 7),
    PatternMatrix: lambda: PatternMatrix(2, 2, frozenset({(0, 1)}), frozenset({(1, 1)})),
    SensorPlacement: lambda: SensorPlacement((0, 2), 3, "cyclic"),
    SensorCountReport: lambda: SensorCountReport(2, 1, 3, True),
    SpanningTree: lambda: hand_built_forest((None, 0), (0,)),
    InputBundle: lambda: InputBundle("g.json", path3(), ["0", "1", "2"]),
}
# a bundle's labels are a list: it does not hash
UNHASHABLE = {InputBundle}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_equal_arguments_give_equal_records(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_defaults_give_equal_records():
    assert PatternMatrix(2, 3) == PatternMatrix(2, 3, frozenset(), frozenset())
    assert StateGraph(2) == StateGraph(2, frozenset(), frozenset())
    assert InputBundle("g.json", path3(), ["0", "1", "2"]) == InputBundle("g.json", path3(), ["0", "1", "2"], None)


def test_different_arguments_give_unequal_records():
    assert PatternMatrix(2, 2, frozenset({(0, 1)})) != PatternMatrix(2, 2, frozenset({(1, 0)}))
    assert StateGraph(2, frozenset({(0, 1)})) != StateGraph(2, frozenset(), frozenset({(0, 1)}))
    assert SensorPlacement((0,), 3, "cyclic") != SensorPlacement((0,), 3, "given")
    assert network() != network()._replace(ends=((0,), (1,)))
    assert network() != network()._replace(link_kinds=("pump",))
    star, other = star_graph(((1,), (0,)), (STAR, NONE)), star_graph(((1,), (0,)), (UNKNOWN, NONE))
    assert star != other and companion(star) == companion(other)
    assert companion(star) != companion(star_graph(((1,), (0,)), (UNKNOWN, UNKNOWN)))


# the records with a hand-written ``__eq__``, and the tuple of the fields it compares
OWN_EQUALITY = {
    PatternMatrix: lambda a: (a.rows, a.cols, a.star, a.unknown),
    StateGraph: lambda g: (g.n, g.star_out, g.out, g.loops),
    SensorPlacement: lambda p: (p.measured, p.n_states, p.mode),
}


@pytest.mark.parametrize("cls", list(OWN_EQUALITY), ids=lambda cls: cls.__name__)
def test_a_foreign_object_is_never_equal(cls):
    """Not even the tuple of the record's own fields: the comparison is left to the other operand."""
    record = RECORDS[cls]()
    for other in (OWN_EQUALITY[cls](record), None, "record", 0):
        assert record.__eq__(other) is NotImplemented
        assert record != other and other != record


def test_two_runs_of_one_graph_are_two_runs():
    g, given = path3(), SensorPlacement((0,), 3, "given")
    a, b = PipelineRun(g, "cyclic", given), PipelineRun(g, "cyclic", given)
    assert a != b and a == a
    assert hash(a) != hash(b)  # an identity hash, which reads none of the graph


REPORTS = (OracleReport, MinimalPlacementResult, SensorCountReport)


def test_reports_serialize_through_their_own_fields():
    for cls in REPORTS:
        assert not hasattr(cls, "as_dict"), cls.__name__
    assert SensorCountReport._fields == ("extreme_nodes", "cycles", "sensors", "bound_ok")


def test_node_classification_holds_the_two_roles_it_names():
    assert NodeClassification._fields == ("extreme", "intersection")


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if hasattr(cls, "_fields")], ids=lambda cls: cls.__name__)
def test_no_record_copies_its_fields_by_hand(cls):
    """An ``as_dict`` that gives the record's ``_asdict()``, as is or as JSON, is a second copy of the fields."""
    record = RECORDS[cls]()
    if hasattr(cls, "as_dict"):
        assert json.loads(json.dumps(record.as_dict())) != json.loads(json.dumps(record._asdict()))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SensorPlacement((1, 1), 3, "given"), "duplicate measured indices"),
        (lambda: SensorPlacement((0, 3), 3, "given"), "measured index 3 outside 0..2"),
        (lambda: SensorPlacement((-1,), 3, "given"), "measured index -1 outside 0..2"),
        (lambda: SensorPlacement((0,), 0, "given"), "measured index 0 outside a graph with no states"),
        (lambda: PatternMatrix(-1, 2), "negative dimensions"),
        (lambda: PatternMatrix(2, 2, frozenset({(2, 0)})), "position (2, 0) outside 2x2"),
        (lambda: PatternMatrix(2, 2, frozenset({(0, 1)}), frozenset({(0, 1)})), "position (0, 1) is both star and unknown"),
        (lambda: PatternMatrix(2, 3, symmetric=True), "symmetric flag on a non-square matrix"),
        (lambda: PatternMatrix(2, 2, frozenset({(0, 1)}), symmetric=True), "symmetric flag set but star (0, 1) unmirrored"),
        (lambda: PatternMatrix(2, 2, unknown=frozenset({(1, 0)}), symmetric=True), "symmetric flag set but unknown (1, 0) unmirrored"),
        (lambda: StateGraph(-1), "negative state count -1"),
        (lambda: StateGraph(2, frozenset({(0, 2)})), "edge (0, 2) outside node range 0..1"),
        (lambda: StateGraph(0, frozenset({(0, 0)})), "edge (0, 0) outside a graph with no states"),
        (lambda: StateGraph(2, frozenset({(0, 1)}), frozenset({(0, 1)})), "edge (0, 1) is both star and unknown"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_validating_constructors_normalize_pairs_to_tuples():
    assert PatternMatrix(2, 2, [[0, 1]]).star == frozenset({(0, 1)})
    assert StateGraph(2, [[0, 1]]).star_edges == frozenset({(0, 1)})


def test_star_graph_equals_the_validating_constructors_graph():
    built = star_graph(((1,), (0, 2), (1,)), (STAR, NONE, UNKNOWN))
    checked = path3()
    assert built == checked and checked == built
    assert hash(built) == hash(checked)
    assert built != star_graph(((1,), (0, 2), (1,)), (STAR, NONE, NONE))


GRAPH_FIELDS = {"n", "loops", "star_nbrs", "nbrs", "star_out", "out", "inn"}
GRAPH_VIEWS = {"star_edges", "unknown_edges"}
NETWORK_COLUMNS = {"node_labels", "node_kinds", "link_labels", "link_kinds", "ends"}
NETWORK_VIEWS = {"n_nodes", "n_links"}
PARSED_INP = "[RESERVOIRS]\n R1\n[JUNCTIONS]\n J1\n[PIPES]\n P1 R1 J1\n"
# constructor -> (a fresh record, the fields that are its stored form, the views derived from them)
STORED_FORMS = {
    "StateGraph": (path3, GRAPH_FIELDS, GRAPH_VIEWS),
    "star_graph": (lambda: star_graph(((1,), (0, 2), (1,)), (STAR, NONE, UNKNOWN)), GRAPH_FIELDS, GRAPH_VIEWS),
    "companion": (lambda: companion(path3()), GRAPH_FIELDS, GRAPH_VIEWS),
    "WdnNetwork": (network, NETWORK_COLUMNS, NETWORK_VIEWS),
    "parse_inp": (lambda: parse_inp(PARSED_INP), NETWORK_COLUMNS, NETWORK_VIEWS),
}


PATTERN_FIELDS = {"rows", "cols", "star", "unknown"}
MIRRORED = (frozenset({(0, 1), (1, 0)}), frozenset({(1, 1)}))
# construction -> a fresh pattern; each stores exactly PATTERN_FIELDS
PATTERN_CONSTRUCTIONS = {
    "PatternMatrix": lambda: PatternMatrix(2, 2, *MIRRORED),
    "PatternMatrix symmetric": lambda: PatternMatrix(2, 2, *MIRRORED, symmetric=True),
    "_unchecked": lambda: PatternMatrix._unchecked(2, 2, *MIRRORED),
    "from_rows": lambda: PatternMatrix.from_rows(["0*", "*?"], symmetric=True),
    "from_json": lambda: PatternMatrix.from_json(PatternMatrix(2, 2, *MIRRORED).to_json(), symmetric=True),
    "make_abar": lambda: make_abar(PatternMatrix(2, 2, *MIRRORED, symmetric=True)),
    "to_pattern": lambda: to_pattern(path3()),
    "build_output_pattern": lambda: build_output_pattern(SensorPlacement((0, 2), 3, "cyclic"), 3),
}


@pytest.mark.parametrize("construction", list(PATTERN_CONSTRUCTIONS))
def test_a_pattern_stores_its_entries_and_no_symmetry_claim(construction):
    assert set(vars(PATTERN_CONSTRUCTIONS[construction]())) == PATTERN_FIELDS


def stored_fields(record) -> set:
    """The names a record stores: a tuple's fields, with no instance dict to cache a view in; else its instance dict."""
    if isinstance(record, tuple):
        assert not hasattr(record, "__dict__")
        return set(record._fields)
    return set(vars(record))


@pytest.mark.parametrize("constructor", list(STORED_FORMS))
def test_a_new_record_holds_its_stored_form_and_no_view(constructor):
    """One stored form per record, whichever constructor ran; every other view is derived on read."""
    build, stored, views = STORED_FORMS[constructor]
    fields = stored_fields(build())
    assert stored <= fields
    assert not fields & views


def test_both_graph_constructors_store_the_same_fields_and_derive_the_same_views():
    built, checked = STORED_FORMS["star_graph"][0](), path3()
    assert set(vars(built)) == set(vars(checked)) == set(vars(companion(checked))) == GRAPH_FIELDS
    assert (built.star_edges, built.unknown_edges) == (checked.star_edges, checked.unknown_edges)


def test_a_network_and_a_bundle_are_tuples_of_their_columns():
    assert WdnNetwork._fields == ("node_labels", "node_kinds", "link_labels", "link_kinds", "ends")
    assert InputBundle._fields == ("path", "graph", "labels", "net")


def test_a_record_restates_no_fact_it_stores():
    """A bundle's input kind and flow count are read off ``net``, a report's verdict off its three flags.

    An entry keeps the enum's own ``__str__``: no writer prints one.
    """
    for name in ("kind", "flow_count"):
        assert not hasattr(InputBundle, name), name
    assert not hasattr(PreconditionReport, "all_ok")
    assert "__str__" not in Entry.__dict__


def test_parse_inp_returns_exactly_a_network():
    net = parse_inp("[JUNCTIONS]\n J1\n[RESERVOIRS]\n R1\n[PIPES]\n P1 R1 J1\n[COORDINATES]\n J1 0 1.5\n")
    assert type(net) is WdnNetwork
    assert net == network()


def test_a_network_has_no_rows_and_no_coordinates():
    for name in ("HydraulicNode", "Link", "_parse_coordinates"):
        assert not hasattr(strucsense.wdn, name), name


def test_a_closure_run_holds_its_graph_and_its_counts_only():
    assert set(vars(ClosureRun(path3()))) == {"graph", "k", "trace", "black", "white_out"}


def test_the_closure_runs_on_the_state_graph_alone():
    assert not hasattr(strucsense.forcing, "ClosureGraph")
    assert not hasattr(strucsense.forcing, "compile_graph")


@pytest.mark.parametrize(
    "graph",
    [
        path3(),
        StateGraph(3, frozenset({(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)})),  # a cycle
        StateGraph(3, frozenset({(0, 1), (1, 0)})),  # two components
    ],
    ids=["path", "cycle", "disconnected"],
)
@pytest.mark.parametrize(
    "mode, given",
    [("tree", None), ("cyclic", None), ("cyclic", SensorPlacement((0,), 3, "given"))],
    ids=["tree", "cyclic", "given"],
)
def test_every_pipeline_run_has_its_forest(graph, mode, given):
    assert PipelineRun(graph, mode, given).tree == spanning_tree_dfs(graph)


# settings that became module constants: the closure's one schedule, the sampler's distribution,
# the oracle's rank tolerance and the search's caps
REMOVED_SETTINGS = {"rng", "cfg", "tol", "star_range", "zero_prob", "max_states", "witness_cap"}
# function -> the removed names it keeps
KEPT_SETTINGS = {
    ClosureRun: set(),
    sample_realizations: set(),
    sample_and_check: set(),
    observability_rank_test: {"max_states"},  # C5 rank-tests 60-state realizations
    exhaustive_min_sensors: set(),
}


@pytest.mark.parametrize("fn", list(KEPT_SETTINGS), ids=lambda fn: fn.__qualname__)
def test_removed_settings_stay_removed(fn):
    assert set(inspect.signature(fn).parameters) & REMOVED_SETTINGS == KEPT_SETTINGS[fn]


@pytest.mark.parametrize("fn", [graph_dot, tree_dot, placement_dot, trace_dot, SensorPlacement.as_dict],
                         ids=lambda fn: fn.__qualname__)
def test_labels_are_required(fn):
    assert inspect.signature(fn).parameters["labels"].default is inspect.Parameter.empty
