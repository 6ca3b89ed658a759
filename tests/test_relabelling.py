"""The certificate does not depend on the state order.

Relabelling a state graph as another file order would (a network's link
flows among link flows and its node heads among node heads, any state
among all states for an edge list) and mapping a sensor set through the
same permutation maps both closures' verdicts and black sets exactly: the
colour-change rule is confluent (AIM Minimum Rank group, LAA 2008), so its
black set is the graph's and the sensors', whatever order the engine forces
in. Checked for the paper's leaf placement, and for a refused set (the
longest prefix of the leaves that some graph refuses) so that white states
are compared too.

The tree rule's own placement moves with the order, since the extreme node
it leaves out is the highest-indexed one; on every tree input and every
order it still certifies with one sensor fewer than the extreme nodes. The
cyclic rule's leaves move too, and its verdict with them: one order in 40
of the L-town-size networks is refused.
"""

import random
from pathlib import Path

import pytest

from strucsense.cli import load_input
from strucsense.forcing import ClosureRun
from strucsense.netgraph import StateGraph, classify_nodes, companion
from strucsense.placement import PipelineRun
from strucsense.wdn import parse_inp, state_graph
from generators import cyclic_inp_text, tree_inp_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ORDERS = 3  # seeded relabellings per input
GENERATED = ("1x_seed0.inp", "1x_seed1.inp")  # cyclic_inp_text(782, 124, seed): 1687 states, 124 cycles
INPUTS = sorted(path.name for path in FIXTURES.iterdir()) + list(GENERATED)
TREE_ORDERS = 20  # seeded relabellings per tree input
GENERATED_TREE = "tree847.inp"  # tree_inp_text(847): 1693 states
TREES = ("path4.inp", "star_k13.json", "tree9.json", GENERATED_TREE)
CYCLIC_SEEDS, CYCLIC_ORDERS = range(4), 10  # cyclic_inp_text(782, 124, seed) x seeded relabellings


@pytest.fixture(scope="module")
def generated_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("relabelling")
    for seed, name in enumerate(GENERATED):
        (root / name).write_text(cyclic_inp_text(782, 124, seed))
    (root / GENERATED_TREE).write_text(tree_inp_text(847))
    return root


def relabelled(g: StateGraph, perm: list) -> StateGraph:
    """``g`` with state ``v`` renamed ``perm[v]``, self-loops included."""
    star = {(perm[i], perm[j]) for (i, j) in g.star_edges}
    unknown = {(perm[i], perm[j]) for (i, j) in g.unknown_edges}
    return StateGraph(g.n, frozenset(star), frozenset(unknown))


def state_order(n: int, n_links: int, rng: random.Random) -> list:
    """A random permutation keeping the first ``n_links`` states (link flows) among themselves."""
    links, nodes = list(range(n_links)), list(range(n_links, n))
    rng.shuffle(links)
    rng.shuffle(nodes)
    return links + nodes


def black_states(graph: StateGraph, measured) -> frozenset:
    return frozenset(v for v, black in enumerate(ClosureRun(graph, measured).black) if black)


@pytest.mark.parametrize("name", INPUTS)
def test_verdicts_and_black_sets_follow_a_relabelling(name, generated_dir):
    bundle = load_input(str((generated_dir if name in GENERATED else FIXTURES) / name))
    g = bundle.graph
    leaves = PipelineRun(g).placement.measured
    graphs = (g, companion(g))
    prefixes = (leaves[:k] for k in range(len(leaves), -1, -1))
    refused = next((p for p in prefixes if any(len(black_states(graph, p)) < g.n for graph in graphs)), None)
    assert refused is not None
    n_links = bundle.net.n_links if bundle.net else 0
    for seed in range(ORDERS):
        perm = state_order(g.n, n_links, random.Random(seed))
        h = relabelled(g, perm)
        for measured in (leaves, refused):
            moved = [perm[s] for s in measured]
            for graph, twin in zip(graphs, (h, companion(h))):
                before, after = black_states(graph, measured), black_states(twin, moved)
                assert after == {perm[v] for v in before}
                assert (len(after) == g.n) == (len(before) == g.n)  # the verdict


@pytest.mark.parametrize("name", TREES)
def test_the_tree_rule_certifies_under_every_order(name, generated_dir):
    bundle = load_input(str((generated_dir if name == GENERATED_TREE else FIXTURES) / name))
    g = bundle.graph
    extreme = set(classify_nodes(g).extreme)
    n_links = bundle.net.n_links if bundle.net else 0
    omitted = set()  # the original name of each order's unmeasured extreme node
    for seed in range(TREE_ORDERS):
        perm = state_order(g.n, n_links, random.Random(seed))
        run = PipelineRun(relabelled(g, perm), "tree")
        assert run.placement.n_y == len(extreme) - 1
        assert run.certificate.sso, f"order {seed}"
        placed = set(run.placement.measured)
        measured = {v for v in range(g.n) if perm[v] in placed}
        omitted |= extreme - measured
    assert len(omitted) > 1


def test_the_cyclic_rule_certifies_under_all_but_one_order():
    """The leaf rule's order rate: 39 of 40 orders certify, and the one refused is seed 3's order 9."""
    refused = []
    for seed in CYCLIC_SEEDS:
        net = parse_inp(cyclic_inp_text(782, 124, seed))
        g = state_graph(net)
        for k in range(CYCLIC_ORDERS):
            if not PipelineRun(relabelled(g, state_order(g.n, net.n_links, random.Random(k)))).certificate.sso:
                refused.append((seed, k))
    assert refused == [(3, 9)]
