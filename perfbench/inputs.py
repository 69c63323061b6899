"""Seeded inputs and operation sequences for the three workloads.

Everything here is a pure function of ``(workload, seed)``: the same seed
gives the same graphs and the same operations in the same order, whatever
the run length, so a traced run can replay exactly what an untraced run
issued.

Graphs are random strongly connected digraphs: a random Hamiltonian
cycle plus ``degree - 1`` further random successors per node, so every
node has out-degree ``degree``.  On random graphs with independent edges
the share of node pairs joined by a path swings widely from seed to seed
at these sizes, and every cost with it (a bound read on 100 nodes took
8 to 13 ms across five seeds).  Strong connectivity fixes the closure at
``n * n`` tuples and puts every delete on a cycle, where DRed
over-deletes the most; the seed still draws every edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  Each round issues, in this order:

    * ``passes`` batch passes (in-process ``evaluate`` of TC, the
      w-avoiding path and ``Q_{2,1}``, each on its own graph), unless
      there are enough to put one before every insert instead;
    * ``free_reads`` bound view reads, with a magic read after every
      ``free_reads // magic`` of them;
    * ``write_cycles`` stationary write cycles of four updates (insert a
      new edge, delete an existing edge, reinsert it, delete the new
      edge), each update followed by ``reads_per_update`` bound view
      reads;
    * the passes left over, then the magic reads left over (``magic``
      in all per round).

    The server checkpoints once per round (``checkpoint_every`` is the
    round's update count), so every round starts right after a
    checkpoint and the crash at the end of a run always leaves the same
    one-record WAL suffix to replay.  ``fsync`` is the server's WAL
    flush policy (``--fsync``).  The cycle ends on a delete, so
    the checkpoint always lands on a delete, whose cost dwarfs it: were
    it to land on every second insert, as it would in a cycle ending on
    an insert, the insert median would sit between the two.  Where a
    pass goes before every insert (``eval``), each insert comes more
    than the WAL's ``interval`` fsync period after the last fsync and
    after the server has idled for the same time, so the inserts are
    alike.  Elsewhere a pass before only the first insert would make
    that one the only insert to meet an idle server, so the passes open
    the round instead.
    """

    name: str
    tc_nodes: int
    ap_nodes: int
    q_nodes: int
    serve_nodes: int
    passes: int
    free_reads: int
    write_cycles: int
    reads_per_update: int
    magic: int
    fsync: str

    @property
    def checkpoint_every(self) -> int:
        return 4 * self.write_cycles


#: ``tc_nodes == serve_nodes`` means the batch TC pass runs on the served
#: graph itself: the from-scratch recompute a user could run instead of
#: keeping the view.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="eval",
            tc_nodes=200, ap_nodes=32, q_nodes=10, serve_nodes=30,
            passes=3, free_reads=0, write_cycles=1, reads_per_update=8,
            magic=2, fsync="interval",
        ),
        Workload(
            name="serve-read",
            tc_nodes=100, ap_nodes=16, q_nodes=6, serve_nodes=100,
            passes=1, free_reads=100, write_cycles=1, reads_per_update=1,
            magic=10, fsync="always",
        ),
        Workload(
            name="serve-mixed",
            tc_nodes=50, ap_nodes=16, q_nodes=6, serve_nodes=50,
            passes=1, free_reads=0, write_cycles=2, reads_per_update=1,
            magic=1, fsync="always",
        ),
    )
}

#: Out-degree of the TC, w-avoiding-path and served graphs, and of the
#: Q_{2,1} graph (Theorem 6.1 needs denser graphs to have many answers).
DEGREE = 2
Q_DEGREE = 3


def strongly_connected_digraph(nodes: int, degree: int,
                               rng: random.Random) -> list[tuple]:
    """Edges on ``"0" .. str(nodes - 1)``: a random Hamiltonian cycle and
    ``degree - 1`` more distinct random successors (never the node
    itself) for every node."""
    labels = [str(i) for i in range(nodes)]
    order = labels[:]
    rng.shuffle(order)
    cycle = {order[i - 1]: order[i] for i in range(nodes)}
    edges = []
    for u in labels:
        others = [v for v in labels if v not in (u, cycle[u])]
        edges.append((u, cycle[u]))
        edges.extend((u, v) for v in rng.sample(others, degree - 1))
    return edges


@dataclass(frozen=True)
class Inputs:
    """The graphs of one ``(workload, seed)``; nodes are string labels,
    as ``repro`` graph files give them."""

    tc_edges: tuple
    ap_edges: tuple
    q_edges: tuple
    serve_edges: tuple
    serve_nodes: tuple


def make_inputs(workload: Workload, seed: int) -> Inputs:
    def graph(part: str, nodes: int, degree: int) -> tuple:
        rng = random.Random(f"{workload.name}:{seed}:{part}")
        return tuple(strongly_connected_digraph(nodes, degree, rng))

    serve = graph("serve", workload.serve_nodes, DEGREE)
    tc = (
        serve if workload.tc_nodes == workload.serve_nodes
        else graph("tc", workload.tc_nodes, DEGREE)
    )
    return Inputs(
        tc_edges=tc,
        ap_edges=graph("ap", workload.ap_nodes, DEGREE),
        q_edges=graph("q", workload.q_nodes, Q_DEGREE),
        serve_edges=serve,
        serve_nodes=tuple(str(i) for i in range(workload.serve_nodes)),
    )


def graph_file_text(edges, nodes) -> str:
    """A ``repro`` graph file: every node declared, then every edge."""
    lines = [f"node {v}" for v in nodes]
    lines += [f"edge {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def rounds(workload: Workload, inputs: Inputs, seed: int):
    """Yield the workload's rounds forever; each round is a list of ops.

    Ops are tuples: ``("pass",)``, ``("read", x)``, ``("magic", x)``,
    ``("insert", u, v)`` and ``("delete", u, v)``.  Every write cycle
    ends on the graph it started from, so every round sees the same
    served graph at its start.
    """
    rng = random.Random(f"{workload.name}:{seed}:ops")
    nodes = list(inputs.serve_nodes)
    edges = sorted(inputs.serve_edges)
    edge_set = set(edges)
    while True:
        spread = workload.passes >= 2 * workload.write_cycles
        ops: list[tuple] = [] if spread else [("pass",)] * workload.passes
        passes_left = workload.passes if spread else 0
        magic_left = workload.magic
        if workload.free_reads:
            every = workload.free_reads // workload.magic
            for index in range(workload.free_reads):
                ops.append(("read", rng.choice(nodes)))
                if (index + 1) % every == 0 and magic_left:
                    ops.append(("magic", rng.choice(nodes)))
                    magic_left -= 1
        for __ in range(workload.write_cycles):
            while True:
                u, v = rng.sample(nodes, 2)
                if (u, v) not in edge_set:
                    break
            old = rng.choice(edges)
            for op in (
                ("insert", u, v), ("delete", *old),
                ("insert", *old), ("delete", u, v),
            ):
                if op[0] == "insert" and passes_left:
                    ops.append(("pass",))
                    passes_left -= 1
                ops.append(op)
                for __ in range(workload.reads_per_update):
                    ops.append(("read", rng.choice(nodes)))
        ops.extend([("pass",)] * passes_left)
        ops.extend(("magic", rng.choice(nodes)) for __ in range(magic_left))
        yield ops


def closing_edge(workload: Workload, inputs: Inputs, seed: int) -> tuple:
    """The new edge inserted after the last round, just before the crash."""
    rng = random.Random(f"{workload.name}:{seed}:closing")
    edge_set = set(inputs.serve_edges)
    while True:
        u, v = rng.sample(list(inputs.serve_nodes), 2)
        if (u, v) not in edge_set:
            return (u, v)
