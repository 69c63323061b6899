"""Goal-directed evaluation: adornments and the magic-sets rewrite.

Every engine in :mod:`repro.datalog.evaluation` computes the *full*
least fixpoint, even when the caller only cares about one ground goal
fact -- the Theorem 6.1 ``Q_{k,l}`` programs and the w-avoiding-path
query of Example 2.1 both decide a property of a few distinguished
nodes, yet full evaluation derives every tuple over the whole universe.
This module implements the classical demand transformation:

* **adornment analysis** -- a goal atom's argument pattern (``b`` where
  the argument is a constant, ``f`` where it is a variable) is
  propagated through rule bodies along a sideways-information-passing
  (SIP) order.  The SIP order *is* the PR-1 planner's greedy atom
  order: :func:`repro.datalog.planner.plan_rule` is called with the
  adornment's bound head variables pre-bound, and each scheduled atom's
  ``bound_positions`` is its adornment at that point;
* **magic predicates** -- for every adorned IDB predicate ``p^a`` a
  predicate ``m__p__a`` over the bound positions collects the subqueries
  actually demanded;
* **the rewrite** ``Program x goal binding -> Program`` -- each adorned
  rule is guarded by its magic atom, and for every IDB body atom a magic
  rule derives the demanded binding from the guard plus the SIP prefix.

The output is plain Datalog(!=) -- magic seeds are fact rules over
structure constants, guards are ordinary atoms -- so all four engines
run it unchanged.  Correctness (same goal answers as direct evaluation,
restricted to the binding) is non-obvious and is pinned by the
property-based equivalence harness in
``tests/test_engine_random_programs.py`` and the metamorphic suite in
``tests/test_magic_metamorphic.py``.

Universe-ranging semantics: the paper's variables range over the whole
universe (head-only variables are enumerated), and the rewrite
preserves this -- a free head variable simply never appears in the
magic guard, and constraints travel with their SIP position, so a magic
rule's body may legitimately enumerate (the engines already do).

Only rules reachable from the goal adornment are visited, so programs
carrying junk rules over EDB predicates the structure does not
interpret still evaluate goal-directedly (direct evaluation would
refuse; see :func:`repro.datalog.transform.reachable_predicates`).

**Factoring linear recursion.**  On a right-linear program such as TC
(``S(x, y) :- E(x, z), S(z, y)``) under a bound-first goal
``S($a, y)``, the classical rewrite demands ``S(z, y)`` for every node
``z`` reachable from ``a`` and then derives all of them: the whole
closure for one row per reachable node.  When the free head arguments
pass unchanged through the one recursive atom and touch nothing else,
the answer's free part never depends on the chain of bound parts, so
the goal factors (argument reduction by factoring; Naughton,
Ramakrishnan, Sagiv, Ullman, VLDB 1989) into a reach set over the bound
positions plus one join with the exit rules::

    m__S__bf($a).
    m__S__bf(z) :- m__S__bf(x), E(x, z).
    S__bf($a, y) :- m__S__bf(x), E(x, y).

:func:`factoring_applies` states the condition; the rewrite uses it
for the goal predicate only, where the single seed makes the answer's
bound part the goal's constants.  Every other (predicate, adornment)
pair, and every goal outside the condition, gets the classical rewrite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.datalog.ast import (
    Atom,
    Constant,
    Program,
    Rule,
    Variable,
)
from repro.datalog.planner import AtomStep, ConstraintStep, plan_rule
from repro.datalog.transform import reachable_predicates
from repro.obs import metrics as _metrics


def goal_adornment(goal_atom: Atom) -> str:
    """The b/f pattern of a goal atom: ``b`` per constant argument."""
    return "".join(
        "b" if isinstance(term, Constant) else "f" for term in goal_atom.args
    )


def goal_atom_from_adornment(
    program: Program, adornment: str, predicate: str | None = None
) -> Atom:
    """A schematic goal atom realising ``adornment`` (e.g. ``"bf"``).

    Bound positions get placeholder constants ``$g1, $g2, ...`` (the
    caller's structure must interpret them to *run* the rewrite;
    ``repro explain --magic`` only prints it), free positions get fresh
    variables.  ``predicate`` defaults to the program goal.
    """
    name = program.goal if predicate is None else predicate
    if name not in program.idb_predicates:
        raise ValueError(f"{name!r} is not an IDB predicate of the program")
    arity = program.arity(name)
    if len(adornment) != arity or set(adornment) - {"b", "f"}:
        raise ValueError(
            f"adornment {adornment!r} does not match {name}/{arity}; "
            "use one 'b' or 'f' per argument position"
        )
    args = []
    bound = 0
    for position, flag in enumerate(adornment):
        if flag == "b":
            bound += 1
            args.append(Constant(f"g{bound}"))
        else:
            args.append(Variable(f"f{position + 1}"))
    return Atom(name, args)


def _separator(program: Program) -> str:
    """A ``__``-style separator no existing predicate name collides with.

    Generated names are ``{pred}{sep}{adornment}`` and
    ``m{sep}{pred}{sep}{adornment}``; widening the separator until no
    original predicate contains it makes collisions impossible.
    """
    names = program.idb_predicates | program.edb_predicates
    separator = "__"
    while any(separator in name for name in names) or any(
        name.startswith("m" + separator) for name in names
    ):
        separator += "_"
    return separator


@dataclass(frozen=True)
class MagicRewrite:
    """The result of :func:`magic_rewrite`.

    Attributes
    ----------
    source:
        The original program.
    goal_atom:
        The binding the rewrite is specialised to.
    adornment:
        Its b/f pattern.
    program:
        The rewritten plain Datalog(!=) program; its goal is the adorned
        goal predicate (same arity as the original goal).
    adorned_rules:
        The guarded adorned rules, in generation order.
    magic_rules:
        The demand rules, seed first.
    seed:
        The magic seed fact for the goal binding.
    strategy:
        The rewrite that ran: ``"factored"`` when
        :func:`factoring_applies` held for the goal, else
        ``"classical"``.  A factored rewrite's ``magic_rules`` include
        the reach-set rules and its ``adorned_rules`` the answer rules.
    """

    source: Program
    goal_atom: Atom
    adornment: str
    program: Program
    adorned_rules: tuple[Rule, ...]
    magic_rules: tuple[Rule, ...]
    seed: Rule
    strategy: str = "classical"

    @property
    def adorned_goal(self) -> str:
        """Name of the rewritten program's goal predicate."""
        return self.program.goal


def factoring_applies(program: Program, predicate: str, pattern: str) -> bool:
    """Whether ``predicate`` under ``pattern`` factors into a reach set.

    ``pattern`` needs at least one ``b`` and one ``f``.  Every rule for
    ``predicate`` must satisfy, writing ``h`` for its head:

    * its body holds at most one ``predicate`` atom (the *recursive*
      atom ``r``), and no other body predicate depends on
      ``predicate``;
    * the free head arguments are distinct variables that occur at no
      bound head position;
    * in a recursive rule, ``r`` carries those variables at the same free
      positions and they occur nowhere else in the body; each bound
      argument of ``r`` is a constant, a bound head variable, or a
      variable of another body atom;
    * an *exit* rule (no ``r``) has no IDB body atom, and each free head
      variable occurs in one of its body atoms.
    """
    if "b" not in pattern or "f" not in pattern:
        return False
    free = [i for i, flag in enumerate(pattern) if flag == "f"]
    bound = [i for i, flag in enumerate(pattern) if flag == "b"]
    idb = program.idb_predicates
    for rule in program.rules_for(predicate):
        head = rule.head
        free_terms = [head.args[i] for i in free]
        free_vars = set(free_terms)
        if not all(isinstance(term, Variable) for term in free_terms):
            return False
        if len(free_vars) < len(free_terms):
            return False
        if free_vars & {head.args[i] for i in bound}:
            return False
        atoms = rule.body_atoms()
        recursive = [atom for atom in atoms if atom.predicate == predicate]
        if len(recursive) > 1:
            return False
        if any(
            atom.predicate in idb
            and atom.predicate != predicate
            and predicate
            in reachable_predicates(Program(program.rules, atom.predicate))
            for atom in atoms
        ):
            return False
        if not recursive:
            if any(atom.predicate in idb for atom in atoms):
                return False
            atom_vars = set().union(*(atom.variables() for atom in atoms))
            if not free_vars <= atom_vars:
                return False
            continue
        (step,) = recursive
        if any(step.args[i] != head.args[i] for i in free):
            return False
        rest = [literal for literal in rule.body if literal is not step]
        if any(literal.variables() & free_vars for literal in rest):
            return False
        known = {head.args[i] for i in bound}.union(
            *(literal.variables() for literal in rest
              if isinstance(literal, Atom))
        )
        for i in bound:
            term = step.args[i]
            if isinstance(term, Variable) and term not in known:
                return False
    return True


def magic_rewrite(program: Program, goal_atom: Atom) -> MagicRewrite:
    """Rewrite ``program`` for goal-directed evaluation of ``goal_atom``.

    ``goal_atom`` names an IDB predicate (normally the goal) with
    constants at bound positions and variables at free positions.  The
    rewritten program derives, for the adorned goal predicate, exactly
    the goal tuples of the original program that match the binding --
    touching only the facts the binding demands.  When
    :func:`factoring_applies` holds for the goal, its own rules are
    factored (see the module docstring); IDB atoms they mention, and
    every rule they reach, get the classical rewrite.
    """
    predicate = goal_atom.predicate
    if predicate not in program.idb_predicates:
        raise ValueError(
            f"goal atom predicate {predicate!r} is not an IDB predicate"
        )
    if goal_atom.arity != program.arity(predicate):
        raise ValueError(
            f"goal atom {goal_atom} has arity {goal_atom.arity}, but "
            f"{predicate} has arity {program.arity(predicate)}"
        )
    adornment = goal_adornment(goal_atom)
    separator = _separator(program)

    def adorned_name(name: str, pattern: str) -> str:
        return f"{name}{separator}{pattern}"

    def magic_name(name: str, pattern: str) -> str:
        return f"m{separator}{name}{separator}{pattern}"

    idb = program.idb_predicates
    adorned_rules: list[Rule] = []
    magic_rules: list[Rule] = []
    queue: deque[tuple[str, str]] = deque()
    visited: set[tuple[str, str]] = set()

    def guarded_body(rule: Rule, head: Atom, pattern: str) -> list:
        """The magic guard of ``head`` under ``pattern``, then ``rule``'s
        body in SIP order with IDB atoms adorned and demanded."""
        bound_head_vars = frozenset(
            term
            for term, flag in zip(head.args, pattern)
            if flag == "b" and isinstance(term, Variable)
        )
        guard = Atom(
            magic_name(head.predicate, pattern),
            tuple(
                term for term, flag in zip(head.args, pattern) if flag == "b"
            ),
        )
        plan = plan_rule(rule, bound_variables=bound_head_vars)
        body: list = [guard]
        for step in plan.steps:
            if isinstance(step, AtomStep):
                atom = step.atom
                if atom.predicate in idb:
                    bound = set(step.bound_positions)
                    sub_pattern = "".join(
                        "b" if position in bound else "f"
                        for position in range(atom.arity)
                    )
                    magic_rules.append(
                        Rule(
                            Atom(
                                magic_name(atom.predicate, sub_pattern),
                                tuple(
                                    atom.args[position]
                                    for position in step.bound_positions
                                ),
                            ),
                            tuple(body),
                        )
                    )
                    queue.append((atom.predicate, sub_pattern))
                    body.append(
                        Atom(
                            adorned_name(atom.predicate, sub_pattern),
                            atom.args,
                        )
                    )
                else:
                    body.append(atom)
            elif isinstance(step, ConstraintStep):
                body.append(step.literal)
            # EnumerateStep: not a body literal -- the adorned rule
            # keeps the paper's universe-ranging semantics for free.
        return body

    if factoring_applies(program, predicate, adornment):
        strategy = "factored"
        visited.add((predicate, adornment))
        for rule in program.rules_for(predicate):
            recursive = next(
                (a for a in rule.body_atoms() if a.predicate == predicate),
                None,
            )
            if recursive is None:
                # Answer rule: the exit body joined with the reach set,
                # its bound part replaced by the goal's constants.
                answer = Atom(
                    adorned_name(predicate, adornment),
                    tuple(
                        goal_term if flag == "b" else term
                        for goal_term, term, flag in zip(
                            goal_atom.args, rule.head.args, adornment
                        )
                    ),
                )
                adorned_rules.append(
                    Rule(answer, guarded_body(rule, rule.head, adornment))
                )
            else:
                # Reach-set rule: the recursive atom's bound part is
                # demanded from the head's, through the rest of the body.
                demand = Rule(
                    Atom(
                        magic_name(predicate, adornment),
                        tuple(
                            term
                            for term, flag in zip(recursive.args, adornment)
                            if flag == "b"
                        ),
                    ),
                    [lit for lit in rule.body if lit is not recursive],
                )
                magic_rules.append(
                    Rule(
                        demand.head,
                        guarded_body(demand, rule.head, adornment),
                    )
                )
    else:
        strategy = "classical"
        queue.append((predicate, adornment))
    while queue:
        name, pattern = queue.popleft()
        if (name, pattern) in visited:
            continue
        visited.add((name, pattern))
        for rule in program.rules_for(name):
            adorned_rules.append(
                Rule(
                    Atom(adorned_name(name, pattern), rule.head.args),
                    guarded_body(rule, rule.head, pattern),
                )
            )

    seed = Rule(
        Atom(
            magic_name(predicate, adornment),
            tuple(term for term in goal_atom.args if isinstance(term, Constant)),
        )
    )
    rewritten = Program(
        [seed, *magic_rules, *adorned_rules],
        goal=adorned_name(predicate, adornment),
    )
    m = _metrics.metrics
    m.inc("magic.rewrites")
    m.inc("magic.adorned_rules", len(adorned_rules))
    m.inc("magic.magic_rules", len(magic_rules) + 1)
    return MagicRewrite(
        source=program,
        goal_atom=goal_atom,
        adornment=adornment,
        program=rewritten,
        adorned_rules=tuple(adorned_rules),
        magic_rules=(seed, *magic_rules),
        seed=seed,
        strategy=strategy,
    )


Element = Hashable


def goal_matches(
    row: tuple, goal_atom: Atom, constants: Mapping[str, Element]
) -> bool:
    """Whether a goal-relation tuple is consistent with the binding.

    Constant positions must equal the structure's interpretation;
    repeated variables must take equal values.
    """
    binding: dict[Variable, Element] = {}
    for term, value in zip(goal_atom.args, row):
        if isinstance(term, Constant):
            if constants[term.name] != value:
                return False
        else:
            known = binding.setdefault(term, value)
            if known != value:
                return False
    return True
