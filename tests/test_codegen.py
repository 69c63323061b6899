"""The codegen engine: generated functions vs. the plan interpreter.

Two layers pin the tentpole:

* **plan level** -- for seeded random programs, every rule plan's
  generated function is compared against the interpreted plan
  (``_compile_plan`` / ``_run_plan``) on the *same* database: same slot
  numbering, same satisfying bindings (the ``mode="bindings"`` render
  returns the full slot tuple per binding), same head tuples, and the
  same again when both executors are fed the same delta-tuple sets;
* **source level** -- rendering is deterministic: the source for a
  fixed (program, seed) is byte-identical across independent renders
  (the compile cache keys on source text, so this is also what makes
  ``compile()`` run once per plan shape).

Engine-level equality across all five engines lives in
``tests/test_engine_differential.py``; this file owns the generated
code itself.
"""

import random

import pytest

from repro.datalog import evaluate
from repro.datalog.ast import Atom, Constant, Inequality, Program, Rule, Variable
from repro.datalog.codegen import (
    _compiled_code,
    bind_plan,
    render_plan,
    rule_sources,
)
from repro.datalog.evaluation import (
    _compile_plan,
    _database_from_structure,
    _plan_heads,
    _run_plan,
)
from repro.datalog.indexing import IndexedDatabase
from repro.datalog.library import transitive_closure_program
from repro.datalog.planner import plan_program_rules, plan_rule
from repro.graphs.generators import path_graph
from repro.testing.faults import census
from tests.test_engine_differential import _random_program, _random_structure


def _fixpoint_store(program, structure):
    """An IndexedDatabase holding the EDB plus the final IDB relations.

    Plans are compared at the fixpoint (not the empty IDB) so delta and
    full plans alike see non-trivial relations on both sides.
    """
    database, constants = _database_from_structure(program, structure, None)
    final = evaluate(program, structure, method="naive").relations
    for predicate, rows in final.items():
        database[predicate] = set(rows)
    for predicate in program.idb_predicates:
        database.setdefault(predicate, set())
    return IndexedDatabase(database), list(structure.universe), constants


def _interpreted_bindings(plan, store, universe, constants, delta_rows=None):
    compiled = _compile_plan(plan, constants)
    rows = [
        tuple(binding)
        for binding in _run_plan(
            compiled, store, universe, delta_rows=delta_rows
        )
    ]
    return compiled, rows


def _generated_bindings(plan, store, universe, constants, delta_rows=None):
    source = render_plan(plan, mode="bindings")
    function = bind_plan(source, store, constants)
    out, produced = function(
        () if delta_rows is None else delta_rows, set(), universe, None
    )
    return source, out, produced


class TestBindingsAgainstInterpreter:
    """Generated output == interpreted output, binding for binding."""

    def test_full_plans_same_bindings(self):
        rng = random.Random(4021)
        compared = 0
        for __ in range(40):
            program = _random_program(rng)
            structure = _random_structure(rng)
            store, universe, constants = _fixpoint_store(program, structure)
            for rule in program.rules:
                plan = plan_rule(rule)
                compiled, interpreted = _interpreted_bindings(
                    plan, store, universe, constants
                )
                source, generated, produced = _generated_bindings(
                    plan, store, universe, constants
                )
                # Same Variable -> slot assignment (first-bind order)...
                assert source.slots == compiled.slots, rule
                # ...and exactly the same satisfying bindings.
                assert sorted(generated) == sorted(interpreted), rule
                assert produced == len(interpreted), rule
                compared += 1
        assert compared >= 140

    def test_delta_plans_same_bindings_same_delta_tuples(self):
        rng = random.Random(4022)
        compared = 0
        for __ in range(40):
            program = _random_program(rng)
            structure = _random_structure(rng)
            store, universe, constants = _fixpoint_store(program, structure)
            for rule in program.rules:
                for plan in plan_program_rules(
                    rule, program.idb_predicates
                ):
                    predicate = rule.body_atoms()[
                        plan.delta_atom_index
                    ].predicate
                    rows = sorted(store.rows(predicate))
                    if not rows:
                        continue
                    # A seeded proper subset: the same delta tuples feed
                    # both executors.
                    delta = set(
                        rng.sample(rows, rng.randint(1, len(rows)))
                    )
                    __unused, interpreted = _interpreted_bindings(
                        plan, store, universe, constants, delta_rows=delta
                    )
                    ___, generated, produced = _generated_bindings(
                        plan, store, universe, constants, delta_rows=delta
                    )
                    assert sorted(generated) == sorted(interpreted), rule
                    assert produced == len(interpreted), rule
                    compared += 1
        assert compared >= 60

    def test_heads_mode_matches_plan_heads_and_respects_existing(self):
        rng = random.Random(4023)
        for __ in range(20):
            program = _random_program(rng)
            structure = _random_structure(rng)
            store, universe, constants = _fixpoint_store(program, structure)
            for rule in program.rules:
                plan = plan_rule(rule)
                compiled = _compile_plan(plan, constants)
                heads = set(
                    _plan_heads(compiled, _run_plan(compiled, store, universe))
                )
                function = bind_plan(
                    render_plan(plan), store, constants
                )
                fired, produced = function((), set(), universe, None)
                assert fired == heads, rule
                if not heads:
                    continue
                # Splitting off an ``existing`` half must subtract it
                # from ``fired`` but never from ``produced``.
                existing = set(sorted(heads)[: len(heads) // 2])
                fired2, produced2 = function((), existing, universe, None)
                assert fired2 == heads - existing, rule
                assert produced2 == produced, rule


class TestSourceDeterminism:
    def test_source_byte_identical_across_independent_builds(self):
        """Rebuilding the program from the same seed and re-rendering
        yields byte-identical source for every plan of every rule."""
        for seed in (11, 99, 20260807):
            first = [
                (full.source, tuple(s.source for __, s in deltas))
                for full, deltas in rule_sources(
                    _random_program(random.Random(seed))
                )
            ]
            second = [
                (full.source, tuple(s.source for __, s in deltas))
                for full, deltas in rule_sources(
                    _random_program(random.Random(seed))
                )
            ]
            assert first == second

    def test_source_is_database_independent(self):
        """No run-specific values leak into the text: the same program
        renders identically whatever structure it will run on (that is
        what makes the compile cache hit across databases)."""
        program = transitive_closure_program()
        once = [f.source for f, __ in rule_sources(program)]
        # Rendering never consults a structure at all, so a second
        # render must be the same object-for-object text.
        again = [f.source for f, __ in rule_sources(program)]
        assert once == again

    def test_compile_cache_returns_same_code_object(self):
        plan = plan_rule(transitive_closure_program().rules[1])
        source = render_plan(plan, name="_cache_probe")
        assert _compiled_code(source.source, source.name) is _compiled_code(
            source.source, source.name
        )

    def test_mode_validated(self):
        plan = plan_rule(transitive_closure_program().rules[0])
        with pytest.raises(ValueError, match="render mode"):
            render_plan(plan, mode="sideways")


class TestEdgeCases:
    def test_missing_constant_rejected_at_bind_time(self):
        x = Variable("x")
        rule = Rule(Atom("P", (x,)), [Atom("E", (Constant("ghost"), x))])
        source = render_plan(plan_rule(rule))
        store = IndexedDatabase({"E": {("a", "b")}})
        with pytest.raises(ValueError, match="ghost"):
            bind_plan(source, store, {})

    def test_constant_only_constraint_before_any_loop(self):
        """A constant-vs-constant constraint is planned before the first
        atom; the generated guard must end the plan, not ``continue``."""
        x, y = Variable("x"), Variable("y")
        rule = Rule(
            Atom("P", (x, y)),
            [Atom("E", (x, y)), Inequality(Constant("s"), Constant("t"))],
        )
        program = Program([rule], goal="P")
        g = path_graph(4).to_structure()
        same = g.with_constants({"s": "v0", "t": "v0"})
        differ = g.with_constants({"s": "v0", "t": "v1"})
        for structure in (same, differ):
            naive = evaluate(program, structure, method="naive")
            codegen = evaluate(program, structure, method="codegen")
            assert codegen.relations == naive.relations
        assert evaluate(program, same, method="codegen").goal_relation \
            == frozenset()

    def test_nullary_head(self):
        x, y = Variable("x"), Variable("y")
        program = Program(
            [Rule(Atom("Reached", ()), [Atom("E", (x, y))])],
            goal="Reached",
        )
        structure = path_graph(3).to_structure()
        naive = evaluate(program, structure, method="naive")
        codegen = evaluate(program, structure, method="codegen")
        assert codegen.relations == naive.relations
        assert codegen.goal_relation == frozenset({()})

    def test_fault_sites_census(self):
        """The codegen engine exposes the same three fault sites as the
        interpreter: rounds, rules, and (hoisted) probe hits."""
        structure = path_graph(6).to_structure()
        with census() as counts:
            result = evaluate(
                transitive_closure_program(), structure, method="codegen"
            )
        assert counts.hits("round") == result.iterations
        assert counts.hits("rule") == 2 * result.iterations
        assert counts.hits("probe") > 0
