"""Factoring linear recursion in the magic-sets rewrite.

:func:`repro.datalog.magic.factoring_applies` decides when a goal
predicate under its adornment factors into a reach set over the bound
positions plus one join with the exit rules.  This file pins the
textbook case (TC under ``bf`` derives exactly ``2n`` tuples on a
strongly connected graph), the CLI's rendering of it, and a seeded
corpus that straddles the condition: about half its programs satisfy
it, and every other program misses it by exactly one clause.  On every
triple, goal-directed answers must equal direct naive evaluate-then-
filter under every engine in ``QUERY_ENGINES``.
"""

import random

import pytest

from repro.cli import main
from repro.datalog.ast import (
    Atom,
    Constant,
    Inequality,
    Program,
    Rule,
    Variable,
)
from repro.datalog.evaluation import QUERY_ENGINES, query
from repro.datalog.library import (
    avoiding_path_program,
    transitive_closure_program,
)
from repro.datalog.magic import (
    factoring_applies,
    goal_atom_from_adornment,
    magic_rewrite,
)
from repro.datalog.parser import parse_program
from repro.graphs.generators import (
    random_digraph,
    strongly_connected_digraph,
)


class TestTransitiveClosure:
    def test_bound_first_rewrite_is_factored(self):
        rewrite = magic_rewrite(
            transitive_closure_program(),
            Atom("S", (Constant("a"), Variable("y"))),
        )
        assert rewrite.strategy == "factored"
        assert [str(rule) for rule in rewrite.program.rules] == [
            "m__S__bf($a).",
            "m__S__bf(z) :- m__S__bf(x), E(x, z).",
            "S__bf($a, y) :- m__S__bf(x), E(x, y).",
        ]

    @pytest.mark.parametrize("n", [8, 30])
    @pytest.mark.parametrize("engine", QUERY_ENGINES)
    def test_bound_first_read_derives_2n_tuples(self, n, engine):
        graph = strongly_connected_digraph(n, seed=n)
        structure = graph.to_structure().with_constants({"a": "v0"})
        goal = Atom("S", (Constant("a"), Variable("y")))
        outcome = query(
            transitive_closure_program(), structure, goal, engine=engine
        )
        assert outcome.rewrite.strategy == "factored"
        assert outcome.answers == {("v0", node) for node in graph.nodes}
        assert outcome.derived_tuples == 2 * n

    @pytest.mark.parametrize("adornment", ["bb", "fb", "ff"])
    def test_other_adornments_stay_classical(self, adornment):
        program = transitive_closure_program()
        rewrite = magic_rewrite(
            program, goal_atom_from_adornment(program, adornment)
        )
        assert rewrite.strategy == "classical"

    def test_explain_names_the_factored_rewrite(self, capsys):
        assert main(["explain", "transitive-closure", "--magic", "bf"]) == 0
        out = capsys.readouterr().out
        assert "  rewrite: factored" in out
        assert "m__S__bf($g1)." in out
        assert "S__bf($g1, y) :- m__S__bf(x), E(x, y)." in out
        assert main(["explain", "transitive-closure", "--magic", "bb"]) == 0
        assert "  rewrite: classical" in capsys.readouterr().out


class TestAvoidingPath:
    """Example 2.1: ``T($a, y, $w)`` factors; ``T($a, y, w)`` does not,
    because ``w != x`` ties the free ``w`` to the chain."""

    def test_bfb_factors_and_bff_stays_classical(self):
        program = avoiding_path_program()
        assert factoring_applies(program, "T", "bfb")
        assert not factoring_applies(program, "T", "bff")

    def test_bfb_answers_match_direct(self):
        structure = strongly_connected_digraph(12, seed=3).to_structure()
        structure = structure.with_constants({"a": "v0", "w": "v5"})
        goal = Atom("T", (Constant("a"), Variable("y"), Constant("w")))
        direct = query(avoiding_path_program(), structure, goal, magic=False)
        for engine in QUERY_ENGINES:
            magic = query(
                avoiding_path_program(), structure, goal, engine=engine
            )
            assert magic.rewrite.strategy == "factored"
            assert magic.answers == direct.answers, engine


#: One hand-written program per near miss, each one clause away from
#: factoring under ``bf``.
NEAR_MISS_PROGRAMS = {
    "free variable in a constraint": """
        P(x, y) :- E(x, y).
        P(x, y) :- E(x, z), P(z, y), y != x.
    """,
    "free variable in another body atom": """
        P(x, y) :- E(x, y).
        P(x, y) :- E(x, z), P(z, y), E(y, z).
    """,
    "constant at a free position": """
        P(x, $c1) :- E(x, x).
        P(x, y) :- E(x, z), P(z, y).
    """,
    "free variable also at a bound position": """
        P(y, y) :- E(y, y).
        P(x, y) :- E(x, z), P(z, y).
    """,
    "two recursive atoms": """
        P(x, y) :- E(x, y).
        P(x, y) :- E(x, z), P(z, y), P(z, w).
    """,
    "mutual recursion through a second IDB": """
        P(x, y) :- E(x, y).
        P(x, y) :- E(x, z), Q(z), P(z, y).
        Q(v) :- E(v, u), P(u, w).
    """,
    "unbound bound-position argument": """
        P(x, y) :- E(x, y).
        P(x, y) :- E(x, x), P(u, y).
    """,
    "head-only free variable in an exit rule": """
        P(x, y) :- E(x, z).
        P(x, y) :- E(x, z), P(z, y).
    """,
    "IDB atom in an exit body": """
        P(x, y) :- E(x, y), R(x).
        P(x, y) :- E(x, z), P(z, y).
        R(v) :- E(v, u).
    """,
}


class TestConditionEdges:
    @pytest.mark.parametrize("miss", sorted(NEAR_MISS_PROGRAMS))
    def test_near_miss_stays_classical(self, miss):
        program = parse_program(NEAR_MISS_PROGRAMS[miss], goal="P")
        assert not factoring_applies(program, "P", "bf"), miss
        structure = strongly_connected_digraph(6, seed=1).to_structure()
        structure = structure.with_constants({"c1": "v2", "g": "v0"})
        goal = Atom("P", (Constant("g"), Variable("y")))
        direct = query(program, structure, goal, magic=False)
        magic = query(program, structure, goal)
        assert magic.rewrite.strategy == "classical"
        assert magic.answers == direct.answers

    def test_repeated_free_variable_stays_classical(self):
        program = parse_program(
            """
            P(x, y, y) :- E(x, y).
            P(x, y, w) :- E(x, z), P(z, y, w).
            """,
            goal="P",
        )
        assert not factoring_applies(program, "P", "bff")

    def test_other_idb_atoms_go_through_the_classical_queue(self):
        program = parse_program(
            """
            P(x, y) :- E(x, y).
            P(x, y) :- E(x, z), R(z), P(z, y).
            R(v) :- E(v, u), E(u, v).
            """,
            goal="P",
        )
        rewrite = magic_rewrite(
            program, Atom("P", (Constant("g"), Variable("y")))
        )
        assert rewrite.strategy == "factored"
        assert "R__b" in rewrite.program.idb_predicates
        assert "m__R__b" in rewrite.program.idb_predicates


# ---------------------------------------------------------------------------
# The seeded factoring corpus
# ---------------------------------------------------------------------------

#: Seeded (program, structure, goal atom) triples; every even-numbered
#: one satisfies the condition, every odd-numbered one misses it by
#: exactly one clause, cycling through :data:`NEAR_MISSES`.
FACTORING_TRIPLES = 220

NEAR_MISSES = (
    "free-in-constraint",
    "free-in-other-atom",
    "repeated-free",
    "constant-at-free",
    "free-at-bound",
    "two-recursive",
    "mutual-recursion",
    "unbound-recursive-arg",
    "head-only-free-exit",
    "idb-in-exit",
)

_CONSTANTS = (Constant("c1"), Constant("c2"))
_Z = Variable("z")
#: ``R`` is an auxiliary IDB that does not depend on ``P``.
_R_RULE = Rule(
    Atom("R", (Variable("v"),)), [Atom("E", (Variable("v"), Variable("u")))]
)


def _pattern(rng: random.Random, two_free: bool) -> str:
    while True:
        arity = 3 if two_free else rng.choice((2, 2, 3))
        pattern = "".join(rng.choice("bf") for __ in range(arity))
        if "b" in pattern and pattern.count("f") >= (2 if two_free else 1):
            return pattern


def _head_args(rng: random.Random, pattern: str) -> list:
    """Distinct variables at free positions; at bound positions fresh
    variables, sometimes a repeat of the first, sometimes a constant."""
    args: list = []
    first = None
    for position, flag in enumerate(pattern):
        if flag == "f":
            args.append(Variable(f"y{position}"))
            continue
        roll = rng.random()
        if roll < 0.1:
            args.append(rng.choice(_CONSTANTS))
        elif roll < 0.25 and first is not None:
            args.append(first)
        else:
            variable = Variable(f"x{position}")
            first = first or variable
            args.append(variable)
    return args


def _bound_terms(args, pattern) -> list:
    return [term for term, flag in zip(args, pattern) if flag == "b"]


def _inequalities(rng, terms, count) -> list:
    variables = sorted({t for t in terms if isinstance(t, Variable)})
    out = []
    for __ in range(count):
        left = rng.choice(variables)
        right = rng.choice(variables + list(_CONSTANTS))
        if right != left:
            out.append(Inequality(left, right))
    return out


def _exit_rule(rng, pattern) -> Rule:
    args = _head_args(rng, pattern)
    sources = _bound_terms(args, pattern) + [_Z]
    body: list = []
    for term, flag in zip(args, pattern):
        if flag == "f":
            source = rng.choice(sources)
            edge = (source, term) if rng.random() < 0.7 else (term, source)
            body.append(Atom("E", edge))
    if rng.random() < 0.4:
        body.append(Atom("E", (rng.choice(sources), rng.choice(sources))))
    terms = list(args) + [t for atom in body for t in atom.args]
    body += _inequalities(rng, terms, rng.randint(0, 2))
    rng.shuffle(body)
    return Rule(Atom("P", args), body)


def _recursive_rule(rng, pattern) -> Rule:
    args = _head_args(rng, pattern)
    known = _bound_terms(args, pattern) + [_Z]
    anchor = rng.choice(known[:-1])
    body: list = [
        Atom("E", (anchor, _Z) if rng.random() < 0.7 else (_Z, anchor))
    ]
    body.append(
        Atom(
            "P",
            [
                term if flag == "f"
                else rng.choice(_CONSTANTS) if rng.random() < 0.08
                else rng.choice(known)
                for term, flag in zip(args, pattern)
            ],
        )
    )
    if rng.random() < 0.3:
        body.append(Atom("R", (rng.choice(known),)))
    body += _inequalities(rng, known, rng.randint(0, 1))
    rng.shuffle(body)
    return Rule(Atom("P", args), body)


def _recursive_atom(rule: Rule) -> Atom:
    return next(a for a in rule.body_atoms() if a.predicate == "P")


def _substitute(literal, old, new):
    def swap(term):
        return new if term == old else term

    if isinstance(literal, Atom):
        return Atom(literal.predicate, [swap(t) for t in literal.args])
    return type(literal)(swap(literal.left), swap(literal.right))


def _near_miss(rng, kind, pattern, exits, recursives) -> list:
    """Break exactly one clause of the condition in one rule; returns
    any extra rules the mutation needs."""
    free = [i for i, flag in enumerate(pattern) if flag == "f"]
    bound = [i for i, flag in enumerate(pattern) if flag == "b"]
    if kind in (
        "free-in-constraint", "free-in-other-atom", "two-recursive",
        "mutual-recursion", "unbound-recursive-arg",
    ):
        index = rng.randrange(len(recursives))
        rule = recursives[index]
        y = rule.head.args[rng.choice(free)]
        body = list(rule.body)
        extra: list = []
        if kind == "free-in-constraint":
            body.append(Inequality(y, _Z))
        elif kind == "free-in-other-atom":
            body.append(Atom("E", (_Z, y) if rng.random() < 0.5 else (y, _Z)))
        elif kind == "two-recursive":
            body.append(
                Atom(
                    "P",
                    [_Z if flag == "b" else Variable(f"w{i}")
                     for i, flag in enumerate(pattern)],
                )
            )
        elif kind == "mutual-recursion":
            u = Variable("u")
            body.append(Atom("Q", (_Z,)))
            extra.append(
                Rule(
                    Atom("Q", (Variable("v"),)),
                    [
                        Atom("E", (Variable("v"), u)),
                        Atom(
                            "P",
                            [u if flag == "b" else Variable(f"w{i}")
                             for i, flag in enumerate(pattern)],
                        ),
                    ],
                )
            )
        else:  # unbound-recursive-arg
            step = _recursive_atom(rule)
            fresh = Variable("u")
            position = rng.choice(bound)
            args = list(step.args)
            args[position] = fresh
            body = [Atom("P", args) if lit is step else lit for lit in body]
            if rng.random() < 0.5:
                body.append(Inequality(fresh, _Z))
        recursives[index] = Rule(rule.head, body)
        return extra
    index = rng.randrange(len(exits))
    rule = exits[index]
    args = list(rule.head.args)
    body = list(rule.body)
    if kind == "repeated-free":
        first, second = free[:2]
        args[second] = args[first]
    elif kind == "constant-at-free":
        args[rng.choice(free)] = rng.choice(_CONSTANTS)
    elif kind == "free-at-bound":
        args[rng.choice(bound)] = args[rng.choice(free)]
    elif kind == "head-only-free-exit":
        y = args[rng.choice(free)]
        body = [_substitute(lit, y, Variable("v")) for lit in body]
    else:  # idb-in-exit
        body.append(Atom("R", (rng.choice(_bound_terms(args, pattern) + [_Z]),)))
    exits[index] = Rule(Atom("P", args), body)
    return []


def factoring_corpus_triple(rng: random.Random, kind: str | None):
    """One seeded triple: a linear program over ``E`` whose goal ``P``
    factors under the goal's adornment, or -- with ``kind`` naming a
    near miss -- misses the condition by that one clause."""
    pattern = _pattern(rng, two_free=kind == "repeated-free")
    exits = [_exit_rule(rng, pattern) for __ in range(rng.randint(1, 2))]
    recursives = [
        _recursive_rule(rng, pattern) for __ in range(rng.randint(1, 2))
    ]
    extra = [] if kind is None else _near_miss(
        rng, kind, pattern, exits, recursives
    )
    program = Program([*exits, *recursives, *extra, _R_RULE], goal="P")
    structure = random_digraph(
        rng.randint(4, 6), rng.uniform(0.2, 0.5), rng.randrange(10**6)
    ).to_structure()
    nodes = sorted(structure.universe)
    assignment = {c.name: rng.choice(nodes) for c in _CONSTANTS}
    free_pool = (Variable("a1"), Variable("a2"))
    args = []
    for position, flag in enumerate(pattern):
        if flag == "b":
            assignment[f"g{position + 1}"] = rng.choice(nodes)
            args.append(Constant(f"g{position + 1}"))
        else:
            args.append(rng.choice(free_pool))
    return (
        program,
        structure.with_constants(assignment),
        Atom("P", tuple(args)),
    )


@pytest.mark.magic_equivalence
def test_factoring_corpus():
    """>= 200 seeded triples straddling the condition: factoring fires
    on every satisfying program (>= 100 of them) and on no near miss,
    and goal-directed answers equal direct naive evaluate-then-filter
    under every engine."""
    rng = random.Random(20261020)
    fired = 0
    misses = dict.fromkeys(NEAR_MISSES, 0)
    for index in range(FACTORING_TRIPLES):
        kind = None if index % 2 == 0 else NEAR_MISSES[
            (index // 2) % len(NEAR_MISSES)
        ]
        program, structure, goal_atom = factoring_corpus_triple(rng, kind)
        direct = query(
            program, structure, goal_atom, engine="naive", magic=False
        )
        strategies = set()
        for engine in QUERY_ENGINES:
            magic = query(program, structure, goal_atom, engine=engine)
            assert magic.answers == direct.answers, (index, kind, engine)
            strategies.add(magic.rewrite.strategy)
        (strategy,) = strategies
        if kind is None:
            assert strategy == "factored", (index, str(program))
            fired += 1
        else:
            assert strategy == "classical", (index, kind, str(program))
            misses[kind] += 1
    assert fired >= 100
    assert min(misses.values()) >= 10, misses
