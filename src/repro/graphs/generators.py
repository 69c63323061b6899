"""Graph generators, including every example structure from the paper.

* :func:`path_graph` / :func:`cycle_graph` / :func:`complete_digraph` --
  stock shapes.
* :func:`path_pair_structures` -- Example 4.4: a short path and a long
  path, on which Player II wins one direction of the existential game and
  Player I the other.
* :func:`crossed_paths_structure_pair` -- Example 4.5: two disjoint paths
  vs. two paths crossing at their middle vertex.
* :func:`disjoint_paths_graph` -- the Theorem 6.6 structure A_k: two
  node-disjoint simple paths of prescribed lengths with four distinguished
  endpoints.
* :func:`random_digraph` / :func:`layered_random_dag` /
  :func:`strongly_connected_digraph` -- seeded random instances for
  property tests and benchmarks.
"""

from __future__ import annotations

import random
from typing import Hashable, Sequence

from repro.graphs.digraph import DiGraph
from repro.structures.structure import Structure

Node = Hashable


def path_graph(n: int, prefix: str = "v") -> DiGraph:
    """A directed path with ``n`` nodes ``prefix0 -> ... -> prefix{n-1}``."""
    if n < 1:
        raise ValueError("a path needs at least one node")
    nodes = [f"{prefix}{i}" for i in range(n)]
    edges = list(zip(nodes, nodes[1:]))
    return DiGraph(nodes, edges)


def cycle_graph(n: int, prefix: str = "v") -> DiGraph:
    """A directed cycle with ``n`` nodes."""
    if n < 1:
        raise ValueError("a cycle needs at least one node")
    nodes = [f"{prefix}{i}" for i in range(n)]
    edges = list(zip(nodes, nodes[1:])) + [(nodes[-1], nodes[0])]
    return DiGraph(nodes, edges)


def complete_digraph(n: int, loops: bool = False) -> DiGraph:
    """The complete directed graph on ``n`` nodes."""
    nodes = list(range(n))
    edges = [
        (u, v) for u in nodes for v in nodes if loops or u != v
    ]
    return DiGraph(nodes, edges)


def path_pair_structures(m: int, n: int) -> tuple[Structure, Structure]:
    """Example 4.4: directed paths with ``m`` and ``n`` vertices.

    Returns ``(A, B)`` as structures over the graph vocabulary (no
    constants).  The paper shows that for ``n > m >= 2`` Player II wins
    the existential k-pebble game on (A, B) for every k, while Player I
    wins the 2-pebble game on (B, A).
    """
    a = path_graph(m, prefix="a")
    b = path_graph(n, prefix="b")
    return a.to_structure(), b.to_structure()


def disjoint_paths_graph(
    length_first: int,
    length_second: int,
    names: Sequence[str] = ("w1", "w2", "w3", "w4"),
) -> DiGraph:
    """Two node-disjoint simple paths with distinguished endpoints.

    The first path has ``length_first`` edges and runs from the node named
    by ``names[0]`` to ``names[1]``; the second has ``length_second`` edges
    from ``names[2]`` to ``names[3]``.  This is the shape of the structure
    A_k in the proof of Theorem 6.6.
    """
    if length_first < 1 or length_second < 1:
        raise ValueError("each path needs at least one edge")
    first = [("p", i) for i in range(length_first + 1)]
    second = [("q", i) for i in range(length_second + 1)]
    edges = list(zip(first, first[1:])) + list(zip(second, second[1:]))
    distinguished = {
        names[0]: first[0],
        names[1]: first[-1],
        names[2]: second[0],
        names[3]: second[-1],
    }
    return DiGraph(first + second, edges, distinguished)


def crossed_paths_structure_pair(n: int) -> tuple[Structure, Structure]:
    """Example 4.5: structures A (disjoint) and B (crossing) for given n.

    A is two disjoint directed paths, each with ``2n + 1`` vertices.  B is
    two directed paths, each with ``2n + 1`` vertices, sharing exactly
    their ``(n+1)``-th vertex.  The paper shows Player I wins the
    existential 3-pebble game on (A, B).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    length = 2 * n + 1
    a_first = [("a", i) for i in range(1, length + 1)]
    a_second = [("a'", i) for i in range(1, length + 1)]
    a_edges = list(zip(a_first, a_first[1:])) + list(zip(a_second, a_second[1:]))
    a = DiGraph(a_first + a_second, a_edges)

    b_first: list[Node] = [("b", i) for i in range(1, length + 1)]
    b_second: list[Node] = [("b'", i) for i in range(1, length + 1)]
    # The two paths intersect only at their (n+1)-th vertex.
    b_second[n] = b_first[n]
    b_edges = list(zip(b_first, b_first[1:])) + list(zip(b_second, b_second[1:]))
    b = DiGraph(set(b_first) | set(b_second), b_edges)
    return a.to_structure(), b.to_structure()


def random_digraph(
    n: int, edge_probability: float, seed: int, loops: bool = False
) -> DiGraph:
    """A seeded Erdos-Renyi style random directed graph on ``n`` nodes."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    nodes = list(range(n))
    edges = [
        (u, v)
        for u in nodes
        for v in nodes
        if (loops or u != v) and rng.random() < edge_probability
    ]
    return DiGraph(nodes, edges)


def strongly_connected_digraph(
    n: int, seed: int, prefix: str = "v"
) -> DiGraph:
    """A seeded strongly connected digraph: the directed ``n``-cycle plus
    one random extra successor per node."""
    rng = random.Random(seed)
    graph = cycle_graph(n, prefix)
    nodes = sorted(graph.nodes)
    return graph.add_edges({(u, rng.choice(nodes)) for u in nodes})


def layered_random_dag(
    layers: int, width: int, edge_probability: float, seed: int
) -> DiGraph:
    """A seeded random DAG: ``layers`` layers of ``width`` nodes each,
    edges only from layer i to layer i+1.

    Useful for exercising the acyclic-input algorithms of Theorem 6.2 on
    graphs that are guaranteed to be DAGs by construction.
    """
    if layers < 1 or width < 1:
        raise ValueError("layers and width must be positive")
    rng = random.Random(seed)
    nodes = [(layer, slot) for layer in range(layers) for slot in range(width)]
    edges = [
        ((layer, a), (layer + 1, b))
        for layer in range(layers - 1)
        for a in range(width)
        for b in range(width)
        if rng.random() < edge_probability
    ]
    return DiGraph(nodes, edges)
