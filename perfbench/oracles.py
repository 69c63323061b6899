"""Answers computed apart from the Datalog engines, and the checks.

* Transitive closure: breadth-first search from every node.
* Example 2.1 (w-avoiding path): ``repro.graphs.paths.avoiding_path_exists``
  for every triple.
* ``Q_{2,1}`` (Theorem 6.1): Menger's theorem through
  ``repro.flow.has_node_disjoint_paths_to_targets``.  The program also
  derives tuples with ``s1 == s``; for those the first path is a cycle
  back to ``s``, which the flow oracle answers on a copy of the graph in
  which a fresh node takes over the edges into ``s``.
* The served view: the benchmark's own copy of the edge set, searched
  after every update.

Every check compares a whole answer with the oracle's and names the
first tuple missing and the first tuple extra.  :func:`self_test` feeds
each check an answer with one tuple dropped and one with a tuple added,
and fails unless both are rejected.
"""

from __future__ import annotations

from collections import deque

from repro.flow import has_node_disjoint_paths_to_targets
from repro.graphs.digraph import DiGraph
from repro.graphs.paths import avoiding_path_exists

#: A label that is never a node: the end of a cycle back to ``s`` in the
#: ``Q_{2,1}`` oracle, and the wrong tuple the self-test adds.
_NOT_A_NODE = "s*"


def _adjacency(edges) -> dict:
    adjacency: dict = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
    return adjacency


def reach(adjacency: dict, source) -> set:
    """Nodes reachable from ``source`` along at least one edge."""
    seen: set = set()
    frontier = deque(adjacency.get(source, ()))
    while frontier:
        node = frontier.popleft()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(adjacency.get(node, ()))
    return seen


def closure(edges, nodes) -> frozenset:
    adjacency = _adjacency(edges)
    return frozenset((x, y) for x in nodes for y in reach(adjacency, x))


def avoiding_paths(edges, nodes) -> frozenset:
    graph = DiGraph(nodes, edges)
    return frozenset(
        (x, y, w)
        for x in nodes for y in nodes for w in nodes
        if avoiding_path_exists(graph, x, y, {w})
    )


def disjoint_paths(edges, nodes) -> frozenset:
    """``Q_{2,1}(s, s1, s2, t1)``: two node-disjoint ``t1``-avoiding paths
    from ``s`` to ``s1`` and to ``s2``."""
    graph = DiGraph(nodes, edges)
    answers = set()
    for s in nodes:
        cyclic = DiGraph(
            list(nodes) + [_NOT_A_NODE],
            list(edges) + [(u, _NOT_A_NODE) for u, v in edges if v == s],
        )
        for s1 in nodes:
            for s2 in nodes:
                if s2 in (s, s1):
                    continue
                for t1 in nodes:
                    if t1 in (s, s1, s2):
                        continue
                    if s1 == s:
                        holds = has_node_disjoint_paths_to_targets(
                            cyclic, s, [_NOT_A_NODE, s2], avoid=[t1]
                        )
                    else:
                        holds = has_node_disjoint_paths_to_targets(
                            graph, s, [s1, s2], avoid=[t1]
                        )
                    if holds:
                        answers.add((s, s1, s2, t1))
    return frozenset(answers)


def diff(answer, expected: frozenset) -> str | None:
    """``None`` when the answer is the expected set, else what differs."""
    answer = set(answer)
    if answer == expected:
        return None
    missing = sorted(expected - answer)
    extra = sorted(answer - expected)
    return (
        f"{len(missing)} missing (first {missing[:1]}), "
        f"{len(extra)} extra (first {extra[:1]})"
    )


def wire_rows(rows) -> set:
    """Rows as the protocol sends them (lists) -> a set of tuples."""
    return {tuple(row) for row in rows}


class PassOracle:
    """Expected relations for one batch pass (program name -> rows)."""

    def __init__(self, inputs) -> None:
        def nodes_of(edges):
            return sorted({x for edge in edges for x in edge}, key=int)

        self.expected = {
            "tc": closure(inputs.tc_edges, nodes_of(inputs.tc_edges)),
            "ap": avoiding_paths(inputs.ap_edges, nodes_of(inputs.ap_edges)),
            "q21": disjoint_paths(inputs.q_edges, nodes_of(inputs.q_edges)),
        }

    def check(self, results: dict) -> str | None:
        for name, expected in self.expected.items():
            problem = diff(results[name], expected)
            if problem:
                return f"{name}: {problem}"
        return None


class ServedOracle:
    """The benchmark's own copy of the served edge set."""

    def __init__(self, edges, nodes) -> None:
        self.nodes = tuple(nodes)
        self.edges = set(edges)

    def apply(self, op: str, u, v) -> None:
        if op == "insert":
            self.edges.add((u, v))
        else:
            self.edges.discard((u, v))

    def bound_rows(self, x) -> frozenset:
        return frozenset(
            (x, y) for y in reach(_adjacency(self.edges), x)
        )

    def check_read(self, x, rows) -> str | None:
        return diff(wire_rows(rows), self.bound_rows(x))

    def full(self) -> frozenset:
        return closure(self.edges, self.nodes)

    def check_full(self, rows) -> str | None:
        return diff(wire_rows(rows), self.full())


def _mutations(expected: frozenset, arity: int):
    victim = sorted(expected)[0]
    yield "dropped", expected - {victim}
    yield "added", expected | {(_NOT_A_NODE,) * arity}


def self_test(passes: PassOracle, served: ServedOracle) -> list[str]:
    """Feed every check a wrong answer both ways; return the escapes."""
    escapes = []
    for name, expected in passes.expected.items():
        arity = len(next(iter(expected)))
        for how, wrong in _mutations(expected, arity):
            results = dict(passes.expected)
            results[name] = wrong
            if passes.check(results) is None:
                escapes.append(f"pass/{name}: {how} tuple accepted")
    x = max(served.nodes, key=lambda node: len(served.bound_rows(node)))
    for how, wrong in _mutations(served.bound_rows(x), 2):
        if served.check_read(x, [list(row) for row in wrong]) is None:
            escapes.append(f"read: {how} tuple accepted")
    for how, wrong in _mutations(served.full(), 2):
        if served.check_full([list(row) for row in wrong]) is None:
            escapes.append(f"full read / folded deltas: {how} tuple accepted")
    return escapes
