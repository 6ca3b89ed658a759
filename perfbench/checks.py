"""Correctness checks of the program's outputs, run outside the timed region.

Each check returns a list of problems, empty when the output is right. The
expected structure comes from the generators, not from the program: only
the closure replay, the spanning forest and the two-graph construction are
the program's own public functions, as the certificate's definition needs.
"""

from __future__ import annotations

import json

from strucsense.forcing import build_observability_graph, force_closure_reference, replay_trace
from strucsense.netgraph import StateGraph
from strucsense.pattern import PatternMatrix, make_abar
from strucsense.spanning import spanning_tree_dfs

ORACLE_TRIALS = 100  # the CLI's default


def output_pattern(measured, n: int) -> PatternMatrix:
    return PatternMatrix(len(measured), n, frozenset(enumerate(measured)), frozenset())


def leaves(a: PatternMatrix) -> list:
    """States the paper's leaf rule measures: tree degree below two."""
    tree = spanning_tree_dfs(StateGraph(a.rows, frozenset((j, i) for (i, j) in a.star), frozenset()))
    return [v for v, d in enumerate(tree.degrees()) if d < 2]


def _stuck_problem(g, black) -> str | None:
    """A closure must stop only when no state or sensor can force any more."""
    for v in range(g.n_nodes):
        whites = [u for u in g.star_out[v] + g.unknown_out[v] if u not in black]
        if len(whites) == 1 and whites[0] in g.star_out[v]:
            return f"closure stopped while {v} could still force {whites[0]}"
    return None


def certificate_problems(a: PatternMatrix, measured, cert: dict) -> list:
    """Replay both traces and confirm each verdict against its final colouring."""
    c = output_pattern(measured, a.rows)
    graphs = {g.get("name"): g for g in cert.get("graphs", [])}
    problems = []
    verdicts = []
    for name, pattern in (("A", a), ("Abar", make_abar(a))):
        entry = graphs.get(name)
        if entry is None:
            problems.append(f"certificate has no graph {name}")
            continue
        graph = build_observability_graph(pattern, c)
        try:
            black = replay_trace(graph, [tuple(step) for step in entry["trace"]])
        except ValueError as exc:
            problems.append(f"{name} trace does not replay: {exc}")
            continue
        white = [v for v in range(a.rows) if v not in black]
        if entry.get("colorable") != (not white):
            problems.append(f"{name} says colorable={entry.get('colorable')} but {len(white)} states stay white")
        if white:
            stuck = _stuck_problem(graph, black)
            if stuck:
                problems.append(f"{name}: {stuck}")
        verdicts.append(not white)
    if not problems and cert.get("sso") != all(verdicts):
        problems.append(f"sso={cert.get('sso')} disagrees with the replayed graphs")
    return problems


def _load(text: str):
    try:
        return json.loads(text), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def info_problems(net, out: str) -> list:
    payload, problem = _load(out)
    if problem:
        return [problem]
    degree = [0] * net.n_nodes
    for a, b in net.links:
        degree[a] += 1
        degree[b] += 1
    expected = {
        "kind": "wdn",
        "hydraulic_nodes": net.n_nodes,
        "links": len(net.links),
        "state_nodes": net.n_states,
        "cycles": net.cycles,
        "extreme_count": sum(1 for d in degree if d == 1),
        "intersection_count": sum(1 for d in degree if d >= 3),
    }
    problems = [f"info {key}={payload.get(key)!r}, expected {want!r}" for key, want in expected.items() if payload.get(key) != want]
    pre = payload.get("preconditions", {})
    for key in ("symmetric", "fully_connected", "has_extreme"):
        if pre.get(key) is not True:
            problems.append(f"info preconditions.{key}={pre.get(key)!r}, expected True")
    return problems


def place_problems(net, a: PatternMatrix, rc: int, out: str, err: str) -> list:
    """Exit 0 needs a replayed full colouring; exit 2 a replayed, honest refusal."""
    if rc == 0:
        payload, problem = _load(out)
        if problem:
            return [problem]
        measured = payload["placement"]["measured"]
        problems = certificate_problems(a, measured, payload["certificate"])
        if payload["certificate"].get("sso") is not True:
            problems.append("exit 0 without a true certificate")
        missing = set(leaves(a)) - set(measured)
        if missing:
            problems.append(f"{len(missing)} spanning-forest leaves unmeasured, e.g. {min(missing)}")
        if payload["placement"]["labels"] != [net.labels[i] for i in measured]:
            problems.append("placement labels do not match the measured states")
        counts = payload["counts"]
        if counts.get("sensors") != len(measured) or counts.get("cycles") != net.cycles:
            problems.append(f"counts {counts} disagree with the placement or the network")
        return problems
    # exit 2: the refused leaf placement's certificate is the last stderr line
    lines = [line for line in err.splitlines() if line.strip()]
    cert, problem = _load(lines[-1] if lines else "")
    if problem:
        return [problem]
    problems = certificate_problems(a, leaves(a), cert)
    if cert.get("sso") is not False:
        problems.append("exit 2 with a certificate that is not sso: false")
    return problems


def reference_certifies(a: PatternMatrix, measured) -> bool:
    """Both graphs colour fully under the naive reference closure."""
    c = output_pattern(measured, a.rows)
    for pattern in (a, make_abar(a)):
        black = force_closure_reference(build_observability_graph(pattern, c)).black
        if any(v not in black for v in range(a.rows)):
            return False
    return True


def minimize_problems(desk, out: str) -> list:
    """The minimum matches the generator's; every witness re-certifies under
    the naive reference closure on A and Abar.

    The leaf heuristic may use fewer sensors than the minimum only when its
    placement does not certify (the paper's rule can fail, see criterion 5).
    """
    payload, problem = _load(out)
    if problem:
        return [problem]
    size, witnesses = payload.get("minimum_size"), payload.get("witnesses") or []
    if not witnesses:
        return ["minimize reported no witness"]
    problems = []
    if desk.minimum is not None and size != desk.minimum:
        problems.append(f"minimum_size={size}, the generator's own search found {desk.minimum}")
    a = PatternMatrix(desk.n, desk.n, desk.star, desk.unknown, symmetric=True)
    for witness in witnesses:
        if len(witness) != size or len(set(witness)) != size or not all(0 <= v < desk.n for v in witness):
            problems.append(f"witness {witness} is not {size} distinct states")
            continue
        if not reference_certifies(a, witness):
            problems.append(f"witness {witness} does not colour A and Abar under the reference closure")
    heuristic = leaves(a)
    if payload.get("heuristic_sensors") != len(heuristic):
        problems.append(f"heuristic_sensors={payload.get('heuristic_sensors')}, the leaf rule measures {len(heuristic)}")
    elif len(heuristic) < size and reference_certifies(a, heuristic):
        problems.append(f"the {len(heuristic)}-sensor leaf placement certifies, below the reported minimum {size}")
    if payload.get("configurations_checked", 0) < len(witnesses):
        problems.append("fewer configurations checked than witnesses found")
    return problems


def oracle_problems(witness, out: str) -> list:
    """A certified placement must pass every sampled rank test."""
    payload, problem = _load(out)
    if problem:
        return [problem]
    problems = []
    if payload.get("sensors") != witness:
        problems.append(f"oracle checked {payload.get('sensors')}, asked for {witness}")
    if payload.get("trials") != ORACLE_TRIALS or payload.get("passes") != ORACLE_TRIALS:
        problems.append(f"certified witness passed {payload.get('passes')} of {payload.get('trials')} trials")
    return problems
