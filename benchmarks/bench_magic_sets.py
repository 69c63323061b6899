"""E17 -- goal-directed evaluation: magic sets vs. the full fixpoint.

Regenerates: on the largest default ``Q_{k,l}`` instance of the engine
sweep (``q_program(2, 1)`` on the seed-7 random digraph, the
``bench_theorem61`` ``LARGEST`` configuration) and on transitive
closure, a fully bound goal query answered by the magic-sets rewrite
must (a) return exactly the answers of full-fixpoint evaluation
filtered to the binding, (b) derive strictly fewer tuples
(``datalog.delta_tuples``), and (c) run at least 2x faster on the
full-size instance -- the demand transformation pays for itself
precisely when the query distinguishes its nodes, which is the shape of
the paper's Theorem 6.1 questions.

Bound-first rows: on strongly connected graphs (a directed cycle plus
one random successor per node), TC read as ``S($a, y)`` at n = 50, 100
and 200, and Example 2.1 read as ``T($a, y, $w)`` at n = 32 and 64, take
the factored rewrite (:func:`repro.datalog.magic.factoring_applies`):
a reach set over the bound positions plus one join, so a read derives
at most 2n tuples (exactly 2n for TC).  Each row checks its answers
against direct evaluation and its derived-tuple count, and must beat a
from-scratch codegen run of the full fixpoint, by >= 10x at n = 200.
``T($a, y, w)`` rides alongside: its free ``w`` occurs in ``w != x``,
so it keeps the classical rewrite, and has no speed bar.

Also runnable as a script (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_magic_sets.py --quick --json out.json

which runs the same comparison on a smaller instance (the speedup bars
are only enforced at full size; strict tuple reduction and the
bound-first tuple counts always are) and writes shared-schema rows.
"""

import pytest

from _harness import record, timed_row
from repro.datalog.ast import Atom, Constant, Variable
from repro.datalog.evaluation import evaluate, query
from repro.datalog.library import (
    avoiding_path_program,
    goal_bound_q,
    goal_bound_transitive_closure,
    transitive_closure_program,
)
from repro.graphs.generators import (
    random_digraph,
    strongly_connected_digraph,
)

#: (k, l, nodes): mirrors bench_theorem61.LARGEST at full size.
FULL_INSTANCE = (2, 1, 12)
QUICK_INSTANCE = (2, 1, 9)

#: The acceptance bar on the full instance: magic must be at least this
#: many times faster than the full fixpoint.
SPEEDUP_BAR = 2.0

#: Bound-first sizes: TC ``S($a, y)`` and Example 2.1 ``T($a, y, $w)``.
TC_BOUND_FIRST = (50, 100, 200)
AVOIDING_BOUND_FIRST = (32, 64)
QUICK_BOUND_FIRST = 50

#: A factored read must beat a from-scratch codegen run of the full
#: fixpoint at every size, and by this much at n = 200.
FACTORED_BAR = 10.0
FACTORED_BAR_NODES = 200


def _bound_case(program, goal_atom, structure):
    """Attach the goal constants to a concrete positive binding.

    The binding is the first (sorted) tuple of the full goal relation,
    so the magic run answers a question whose answer is "yes"; on an
    empty goal relation the smallest nodes stand in.
    """
    full = evaluate(program, structure, method="indexed")
    names = [term.name for term in goal_atom.args]
    rows = sorted(full.goal_relation)
    nodes = sorted(structure.universe)
    binding = rows[0] if rows else tuple(
        nodes[i % len(nodes)] for i in range(len(names))
    )
    return structure.with_constants(dict(zip(names, binding))), binding


def _compare(name, program, goal_atom, structure, params, repeats=2):
    """Timed direct-vs-magic rows plus the equivalence/work checks."""
    bound, binding = _bound_case(program, goal_atom, structure)
    direct, direct_row = timed_row(
        name,
        lambda: query(program, bound, goal_atom, magic=False),
        engine="indexed",
        params=params,
        repeats=repeats,
    )
    magic, magic_row = timed_row(
        name,
        lambda: query(program, bound, goal_atom, magic=True),
        engine="indexed-magic",
        params=params,
        repeats=repeats,
    )
    assert magic.answers == direct.answers, name
    assert magic.answers, (name, binding)
    direct_work = direct_row["counters"]["datalog.delta_tuples"]
    magic_work = magic_row["counters"]["datalog.delta_tuples"]
    assert magic_work < direct_work, (
        f"{name}: magic derived {magic_work} tuples, full fixpoint "
        f"{direct_work}; the rewrite must strictly reduce work"
    )
    return direct_row, magic_row


def bound_first_cases(tc_sizes, avoiding_sizes):
    """``(name, program, goal_atom, bound structure, params, factored)``
    per bound-first row: TC ``bf``, then Example 2.1 ``bfb`` and its
    classical ``bff`` neighbour at each size."""
    a, y, w = Constant("a"), Variable("y"), Constant("w")
    for n in tc_sizes:
        structure = strongly_connected_digraph(n, seed=n).to_structure()
        yield (
            "tc-bf", transitive_closure_program(), Atom("S", (a, y)),
            structure.with_constants({"a": "v0"}), {"nodes": n}, True,
        )
    for n in avoiding_sizes:
        structure = strongly_connected_digraph(n, seed=n).to_structure()
        bound = structure.with_constants({"a": "v0", "w": f"v{n // 2}"})
        for goal, factored in (
            (Atom("T", (a, y, w)), True),
            (Atom("T", (a, y, Variable("w"))), False),
        ):
            name = "avoiding-bfb" if factored else "avoiding-bff"
            yield (
                name, avoiding_path_program(), goal, bound, {"nodes": n},
                factored,
            )


def _bound_first(name, program, goal_atom, bound, params, factored,
                 repeats=2):
    """A goal-directed read against a from-scratch codegen run of the
    full fixpoint; checks answers, the rewrite taken, and the derived
    tuples.  Returns ``(codegen_row, magic_row, speedup)``."""
    direct, direct_row = timed_row(
        name,
        lambda: query(program, bound, goal_atom, engine="codegen",
                      magic=False),
        engine="codegen",
        params=params,
        repeats=repeats,
    )
    magic, magic_row = timed_row(
        name,
        lambda: query(program, bound, goal_atom, magic=True),
        engine="indexed-magic",
        params=params,
        repeats=repeats,
    )
    assert magic.answers == direct.answers, name
    assert magic.answers, name
    strategy = magic.rewrite.strategy
    assert strategy == ("factored" if factored else "classical"), name
    n = params["nodes"]
    if factored:
        # The reach set over the bound positions plus the answers.
        reach = magic.result.relations[magic.rewrite.seed.head.predicate]
        assert magic.derived_tuples == len(reach) + len(magic.answers)
        assert magic.derived_tuples <= 2 * n, (name, magic.derived_tuples)
        if program.goal == "S":
            assert magic.derived_tuples == 2 * n, name
    speedup = direct_row["wall_ms"] / magic_row["wall_ms"]
    return direct_row, magic_row, speedup


def _factored_bar(n: int) -> float:
    return FACTORED_BAR if n >= FACTORED_BAR_NODES else 1.0


@pytest.mark.parametrize(
    "case",
    list(bound_first_cases(TC_BOUND_FIRST, AVOIDING_BOUND_FIRST)),
    ids=lambda case: f"{case[0]}-{case[4]['nodes']}",
)
def bench_magic_bound_first(benchmark, case):
    """Bound-first reads: factored rows beat codegen (>= 10x at 200)."""
    name, program, goal_atom, bound, params, factored = case
    direct_row, magic_row, speedup = _bound_first(*case)
    benchmark.pedantic(
        lambda: query(program, bound, goal_atom, magic=True),
        rounds=1,
        iterations=1,
    )
    record(
        benchmark,
        experiment="E17",
        **params,
        codegen_ms=direct_row["wall_ms"],
        magic_ms=magic_row["wall_ms"],
        magic_tuples=magic_row["counters"]["datalog.delta_tuples"],
        speedup=round(speedup, 2),
    )
    if factored:
        bar = _factored_bar(params["nodes"])
        assert speedup >= bar, (
            f"{name} n={params['nodes']}: factored read only "
            f"{speedup:.2f}x faster than from-scratch codegen (bar {bar}x)"
        )


def bench_magic_vs_full_qkl_largest(benchmark):
    """The acceptance case: q-2-1 at full size, >= 2x and fewer tuples."""
    k, l, n = FULL_INSTANCE
    program, goal_atom = goal_bound_q(k, l)
    structure = random_digraph(n, 0.25, seed=7).to_structure()
    params = {"k": k, "l": l, "nodes": n}
    direct_row, magic_row = _compare(
        f"q-{k}-{l}-goal", program, goal_atom, structure, params
    )
    bound, __ = _bound_case(program, goal_atom, structure)
    benchmark.pedantic(
        lambda: query(program, bound, goal_atom, magic=True),
        rounds=1,
        iterations=1,
    )
    speedup = direct_row["wall_ms"] / magic_row["wall_ms"]
    record(
        benchmark,
        experiment="E17",
        **params,
        direct_ms=direct_row["wall_ms"],
        magic_ms=magic_row["wall_ms"],
        direct_tuples=direct_row["counters"]["datalog.delta_tuples"],
        magic_tuples=magic_row["counters"]["datalog.delta_tuples"],
        speedup=round(speedup, 2),
    )
    assert speedup >= SPEEDUP_BAR, (
        f"magic only {speedup:.2f}x faster than the full fixpoint on "
        f"Q_{k}_{l} (n={n}); goal-directed evaluation should buy >= "
        f"{SPEEDUP_BAR}x"
    )


def bench_magic_vs_full_transitive_closure(benchmark):
    """TC with both endpoints bound: the textbook demand pattern."""
    program, goal_atom = goal_bound_transitive_closure()
    structure = random_digraph(40, 0.08, seed=11).to_structure()
    params = {"nodes": 40}
    direct_row, magic_row = _compare(
        "tc-goal", program, goal_atom, structure, params
    )
    bound, __ = _bound_case(program, goal_atom, structure)
    benchmark.pedantic(
        lambda: query(program, bound, goal_atom, magic=True),
        rounds=1,
        iterations=1,
    )
    record(
        benchmark,
        experiment="E17",
        **params,
        direct_ms=direct_row["wall_ms"],
        magic_ms=magic_row["wall_ms"],
        direct_tuples=direct_row["counters"]["datalog.delta_tuples"],
        magic_tuples=magic_row["counters"]["datalog.delta_tuples"],
    )


def main(argv=None):
    """CI smoke: magic == direct answers, strictly less work on the
    fully bound goals, the bound-first tuple counts; prints a comparison
    table and, with ``--json PATH``, writes shared-schema rows for the
    artifact.  The speedup bars apply at full size only (``--quick``
    instances are too small for wall-clock bars)."""
    import argparse
    import sys

    from _harness import write_rows

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller instances, no speedup bar (CI smoke)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="also write the timing rows as a JSON array",
    )
    args = parser.parse_args(argv)

    k, l, n = QUICK_INSTANCE if args.quick else FULL_INSTANCE
    tc_nodes = 20 if args.quick else 40
    cases = [
        (
            f"q-{k}-{l}-goal",
            *goal_bound_q(k, l),
            random_digraph(n, 0.25, seed=7).to_structure(),
            {"k": k, "l": l, "nodes": n},
        ),
        (
            "tc-goal",
            *goal_bound_transitive_closure(),
            random_digraph(tc_nodes, 0.08, seed=11).to_structure(),
            {"nodes": tc_nodes},
        ),
    ]

    rows = []
    failures = 0
    print(f"{'case':<16} {'direct':>12} {'magic':>12} "
          f"{'tuples':>16} {'speedup':>8}")
    for name, program, goal_atom, structure, params in cases:
        try:
            direct_row, magic_row = _compare(
                name, program, goal_atom, structure, params
            )
        except AssertionError as exc:
            print(f"{name:<16} FAILED: {exc}", file=sys.stderr)
            failures += 1
            continue
        rows += [direct_row, magic_row]
        speedup = direct_row["wall_ms"] / magic_row["wall_ms"]
        tuples = (
            f"{magic_row['counters']['datalog.delta_tuples']}"
            f"/{direct_row['counters']['datalog.delta_tuples']}"
        )
        print(
            f"{name:<16} {direct_row['wall_ms']:>10.1f}ms "
            f"{magic_row['wall_ms']:>10.1f}ms {tuples:>16} "
            f"{speedup:>7.1f}x"
        )
        if not args.quick and name.startswith("q-") and speedup < SPEEDUP_BAR:
            print(
                f"{name}: speedup {speedup:.2f}x below the "
                f"{SPEEDUP_BAR}x bar", file=sys.stderr,
            )
            failures += 1
    bound_first = bound_first_cases(
        (QUICK_BOUND_FIRST,) if args.quick else TC_BOUND_FIRST,
        () if args.quick else AVOIDING_BOUND_FIRST,
    )
    for name, program, goal_atom, bound, params, factored in bound_first:
        label = f"{name}-{params['nodes']}"
        try:
            direct_row, magic_row, speedup = _bound_first(
                name, program, goal_atom, bound, params, factored
            )
        except AssertionError as exc:
            print(f"{label:<16} FAILED: {exc}", file=sys.stderr)
            failures += 1
            continue
        rows += [direct_row, magic_row]
        tuples = (
            f"{magic_row['counters']['datalog.delta_tuples']}"
            f"/{direct_row['counters']['datalog.delta_tuples']}"
        )
        print(
            f"{label:<16} {direct_row['wall_ms']:>10.1f}ms "
            f"{magic_row['wall_ms']:>10.1f}ms {tuples:>16} "
            f"{speedup:>7.1f}x"
        )
        bar = _factored_bar(params["nodes"])
        if not args.quick and factored and speedup < bar:
            print(
                f"{label}: factored read {speedup:.2f}x against "
                f"from-scratch codegen, below the {bar}x bar",
                file=sys.stderr,
            )
            failures += 1
    if args.json:
        write_rows(args.json, rows, bench="magic_sets")
        print(f"wrote {len(rows)} rows to {args.json}")
    if failures:
        print(f"{failures} failure(s)", file=sys.stderr)
        return 1
    print("magic == direct on every case; fully bound goals with strictly "
          "less work, factored reads within 2n tuples")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
