"""Bottom-up fixpoint evaluation of Datalog(!=) programs.

Five engines are provided and cross-validated against each other in
the test suite (plus a sixth, algebra-backed one in
:mod:`repro.datalog.algebra_engine`):

* **naive** -- iterate the paper's operator ``Theta`` from the empty
  interpretation; the intermediate interpretations are exactly the stages
  ``Theta^1 <= Theta^2 <= ...`` of Section 2, which Theorem 3.6 translates
  into ``L^{l+r}`` formulas;
* **semi-naive** -- the standard delta-driven optimisation, matching the
  naive engine round for round;
* **indexed** -- the default: semi-naive rounds executed through
  per-relation hash indexes (:mod:`repro.datalog.indexing`, built lazily
  per position signature, maintained incrementally as deltas merge) and
  greedily reordered rule bodies (:mod:`repro.datalog.planner`, delta
  occurrence first, constraints as early as their variables are bound);
* **codegen** -- the same plans *compiled to specialized Python
  functions* (:mod:`repro.datalog.codegen`): nested loops over index
  buckets with constraints inlined as ``if`` statements, eliminating
  the interpreter's per-op dispatch and per-binding list copies;
* **parallel** -- the codegen rounds sharded across a persistent
  ``multiprocessing`` worker pool (:mod:`repro.datalog.parallel`):
  each round's delta is hash-partitioned by the planner's first join
  key, rule-plan x shard units fan out to the workers, and shard
  deltas merge at a round barrier (``evaluate(..., method="parallel",
  workers=N)``; ``workers=1`` runs inline at codegen speed).

All these engines produce identical relations, goal answers, iteration
counts, and per-round stage snapshots -- the rounds of each engine are
the same sequence ``Theta^1 <= Theta^2 <= ...`` of Section 2, so the
Theorem 3.6 stage translations are engine-independent.

Variables range over the *universe* of the input structure (the paper
defines ``Theta_A(S) = {a : A, a |= phi(w, S)}`` with no range
restriction), so variables that occur only in the head or in constraints
are enumerated over the whole universe.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from repro.guard import (
    BudgetExceeded,
    CancellationToken,
    Checkpoint,
    EvaluationCancelled,
    EvaluationGuard,
    GuardTrip,
    RESUMABLE_ENGINES,
    ResourceBudget,
    edb_fingerprint,
    program_fingerprint,
)
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.obs.analyze import (
    PlanProfile,
    PlanStats,
    RuleStats,
    merge_node_counts,
)
from repro.testing import faults as _faults

from repro.datalog.ast import (
    Atom,
    Constant,
    Equality,
    Inequality,
    Program,
    Rule,
    Term,
    Variable,
)
from repro.datalog.codegen import bind_delta_functions, bind_full_functions
from repro.datalog.indexing import IndexedDatabase, hash_index
from repro.datalog.planner import (
    AtomStep,
    ConstraintStep,
    EnumerateStep,
    RulePlan,
    describe_step,
    plan_program_rules,
    plan_rule,
)
from repro.structures.structure import Structure

Element = Hashable
Database = dict[str, set]
Binding = dict[Variable, Element]

#: The engines accepted by :func:`evaluate`'s ``method`` parameter.
METHODS = ("indexed", "seminaive", "naive", "codegen", "parallel")


@dataclass(frozen=True)
class IterationProfile:
    """Observability record for one fixpoint round.

    ``delta_sizes`` and ``rule_firings`` are *semantic*: they depend only
    on the operator ``Theta``, not on the engine (see
    :meth:`EvaluationProfile.semantic_view`), so the differential harness
    pins them equal across engines.  ``bindings_enumerated``,
    ``tuples_produced``, and ``wall_seconds`` describe the work a
    particular engine did and legitimately differ.
    """

    index: int
    delta_sizes: Mapping[str, int]
    rule_firings: tuple[int, ...]
    bindings_enumerated: int
    tuples_produced: int
    wall_seconds: float

    @property
    def new_tuples(self) -> int:
        """Tuples first derived this round, across every IDB predicate."""
        return sum(self.delta_sizes.values())


@dataclass(frozen=True)
class EvaluationProfile:
    """Per-iteration observability for one fixpoint run.

    ``rule_firings[i]`` in each :class:`IterationProfile` counts the
    *distinct head tuples rule i derived that were new at that round* --
    a property of the stage sequence, so every engine reports the same
    numbers (a new tuple always has a derivation through the previous
    round's delta, hence semi-naive rewriting cannot miss it).
    """

    engine: str
    rule_labels: tuple[str, ...]
    iterations: tuple[IterationProfile, ...]
    #: EXPLAIN ANALYZE: per-plan-node runtime statistics, populated by
    #: ``evaluate(..., collect_analyze=True)`` on the plan engines
    #: (indexed / codegen); None otherwise.
    plans: PlanProfile | None = None

    def semantic_view(self) -> tuple:
        """The engine-independent part, for differential assertions."""
        return tuple(
            (
                tuple(sorted(iteration.delta_sizes.items())),
                iteration.rule_firings,
            )
            for iteration in self.iterations
        )

    def total_rule_firings(self) -> tuple[int, ...]:
        """Distinct-new-head counts per rule, summed over the run."""
        totals = [0] * len(self.rule_labels)
        for iteration in self.iterations:
            for index, count in enumerate(iteration.rule_firings):
                totals[index] += count
        return tuple(totals)

    def to_dict(self) -> dict:
        """JSON-serialisable form (benchmark rows, ``--stats``)."""
        return {
            "engine": self.engine,
            "rules": list(self.rule_labels),
            "iterations": [
                {
                    "round": iteration.index,
                    "delta_sizes": dict(iteration.delta_sizes),
                    "rule_firings": list(iteration.rule_firings),
                    "bindings_enumerated": iteration.bindings_enumerated,
                    "tuples_produced": iteration.tuples_produced,
                    "wall_seconds": iteration.wall_seconds,
                }
                for iteration in self.iterations
            ],
            "plans": None if self.plans is None else self.plans.to_dict(),
        }


@dataclass
class _ProfileBuilder:
    """Mutable accumulator the engines feed one round at a time."""

    rule_labels: tuple[str, ...]
    iterations: list[IterationProfile] = field(default_factory=list)
    _round_start: float = 0.0

    def start_round(self) -> None:
        self._round_start = time.perf_counter()

    def end_round(
        self,
        delta_sizes: Mapping[str, int],
        rule_firings: Iterable[int],
        bindings_enumerated: int,
        tuples_produced: int,
    ) -> None:
        self.iterations.append(
            IterationProfile(
                index=len(self.iterations) + 1,
                delta_sizes=dict(delta_sizes),
                rule_firings=tuple(rule_firings),
                bindings_enumerated=bindings_enumerated,
                tuples_produced=tuples_produced,
                wall_seconds=time.perf_counter() - self._round_start,
            )
        )

    def build(
        self, engine: str, plans: PlanProfile | None = None
    ) -> EvaluationProfile:
        return EvaluationProfile(
            engine=engine,
            rule_labels=self.rule_labels,
            iterations=tuple(self.iterations),
            plans=plans,
        )


def _profile_builder(program: Program) -> _ProfileBuilder:
    return _ProfileBuilder(tuple(str(rule) for rule in program.rules))


#: Engines that execute compiled rule plans and therefore support
#: ``collect_analyze`` (per-plan-node EXPLAIN ANALYZE statistics).
ANALYZE_ENGINES = ("indexed", "codegen")


@dataclass
class _PlanCounters:
    """Flat ``[rows_in, rows_out, ...]`` accumulator for one plan.

    Two slots per plan step, in step order -- the layout both plan
    executors write (the interpreter's ``node_stats`` parameter and the
    generated functions' ``_an`` parameter), so their counts are
    comparable element-for-element.
    """

    kind: str  # "full" | "delta"
    delta_predicate: str | None
    descriptors: tuple[tuple[str, str], ...]
    counts: list[int]
    invocations: int = 0

    def stats(self) -> PlanStats:
        return PlanStats(
            kind=self.kind,
            delta_predicate=self.delta_predicate,
            invocations=self.invocations,
            nodes=merge_node_counts(self.descriptors, self.counts),
        )


class _AnalyzeBuilder:
    """Mutable per-rule / per-plan-node accumulator behind
    ``collect_analyze``.

    Holds, for every rule, the full (round 1) plan's counters and one
    counter block per delta-specialised plan (in
    :func:`~repro.datalog.planner.plan_program_rules` order), plus the
    rule's accumulated wall time and firing count.  Both plan engines
    feed the same structure, so :meth:`build` yields
    :class:`~repro.obs.analyze.PlanProfile` objects whose
    ``counts_view()`` agrees across them.
    """

    __slots__ = ("full", "deltas", "wall", "fired", "labels", "heads")

    def __init__(self, program: Program) -> None:
        idb = program.idb_predicates
        self.full: list[_PlanCounters] = []
        self.deltas: list[tuple[_PlanCounters, ...]] = []
        for rule in program.rules:
            full_plan = plan_rule(rule)
            self.full.append(
                _PlanCounters(
                    kind="full",
                    delta_predicate=None,
                    descriptors=tuple(
                        describe_step(step) for step in full_plan.steps
                    ),
                    counts=[0] * (2 * len(full_plan.steps)),
                )
            )
            blocks = []
            for plan in plan_program_rules(rule, idb):
                predicate = rule.body_atoms()[plan.delta_atom_index].predicate
                blocks.append(
                    _PlanCounters(
                        kind="delta",
                        delta_predicate=predicate,
                        descriptors=tuple(
                            describe_step(step) for step in plan.steps
                        ),
                        counts=[0] * (2 * len(plan.steps)),
                    )
                )
            self.deltas.append(tuple(blocks))
        self.wall = [0.0] * len(program.rules)
        self.fired = [0] * len(program.rules)
        self.labels = tuple(str(rule) for rule in program.rules)
        self.heads = tuple(rule.head.predicate for rule in program.rules)

    def full_counts(self, rule_index: int) -> list[int]:
        block = self.full[rule_index]
        block.invocations += 1
        return block.counts

    def delta_counts(self, rule_index: int, plan_position: int) -> list[int]:
        block = self.deltas[rule_index][plan_position]
        block.invocations += 1
        return block.counts

    def add_wall(self, rule_index: int, seconds: float) -> None:
        self.wall[rule_index] += seconds

    def add_firings(self, rule_firings: Iterable[int]) -> None:
        for rule_index, count in enumerate(rule_firings):
            self.fired[rule_index] += count

    def build(self, engine: str, rounds: int) -> PlanProfile:
        rules = []
        for rule_index, full in enumerate(self.full):
            plans = (full.stats(),) + tuple(
                block.stats() for block in self.deltas[rule_index]
            )
            rules.append(
                RuleStats(
                    index=rule_index,
                    label=self.labels[rule_index],
                    head=self.heads[rule_index],
                    wall_seconds=self.wall[rule_index],
                    fired=self.fired[rule_index],
                    plans=plans,
                )
            )
        return PlanProfile(engine=engine, rounds=rounds, rules=tuple(rules))


@dataclass(frozen=True)
class FixpointResult:
    """The least fixpoint of a program on a structure.

    Attributes
    ----------
    relations:
        Final interpretation of every IDB predicate.
    goal:
        Name of the goal predicate.
    stages:
        When requested, the sequence ``Theta^1, Theta^2, ...`` (one dict of
        IDB relations per stage, cumulative, last equals ``relations``).
    iterations:
        Number of operator applications performed until stabilisation.
    profile:
        When requested (``collect_profile=True``), the per-iteration
        :class:`EvaluationProfile` -- delta sizes per IDB predicate,
        per-rule firing counts, bindings enumerated, wall time per round.
    """

    relations: Mapping[str, frozenset]
    goal: str
    stages: tuple[Mapping[str, frozenset], ...] | None
    iterations: int
    profile: EvaluationProfile | None = None

    @property
    def goal_relation(self) -> frozenset:
        """The relation computed for the goal predicate."""
        return self.relations[self.goal]

    def holds(self, arguments: tuple = ()) -> bool:
        """Whether the goal relation contains ``arguments``."""
        return tuple(arguments) in self.goal_relation


@dataclass(frozen=True)
class PartialFixpointResult(FixpointResult):
    """The state of an interrupted fixpoint run, at a round boundary.

    Datalog(!=) is monotone, so ``relations`` is a **sound
    under-approximation** of the true least fixpoint: every tuple in it
    is in the full answer (no wrong positives), the run simply stopped
    before deriving the rest.  Shape-compatible with
    :class:`FixpointResult` -- ``stages`` and ``profile`` cover the
    completed rounds -- plus the trip diagnosis.  Delivered as the
    ``partial`` attribute of :class:`repro.guard.BudgetExceeded`.
    """

    reason: str = ""
    limit: object = None
    spent: Mapping = field(default_factory=dict)


class _EngineInterrupt(Exception):
    """Internal: an engine caught :class:`GuardTrip` at a clean boundary.

    The engine guarantees ``database`` reflects the last *completed*
    round when this propagates; ``delta`` is that round's delta (the
    exact semi-naive resume state) and ``iterations`` the rounds done.
    """

    def __init__(self, trip: GuardTrip, iterations: int, delta: dict) -> None:
        self.trip = trip
        self.iterations = iterations
        self.delta = delta
        super().__init__(str(trip))


def _budget_error(
    trip: GuardTrip,
    partial: PartialFixpointResult,
    checkpoint: Checkpoint | None = None,
) -> BudgetExceeded:
    """The public exception for a trip (cancellation gets its subclass)."""
    cls = EvaluationCancelled if trip.reason == "cancelled" else BudgetExceeded
    return cls(trip.reason, trip.limit, trip.spent, partial, checkpoint)


def _resolve(term: Term, binding: Binding, constants: Mapping[str, Element]):
    """The element a term denotes under ``binding``; None if unbound."""
    if isinstance(term, Constant):
        try:
            return constants[term.name]
        except KeyError:
            raise ValueError(
                f"program mentions constant ${term.name} but the structure "
                "does not interpret it"
            ) from None
    return binding.get(term)


def _match_atom(
    atom: Atom,
    tuples: Iterable[tuple],
    bindings: list[Binding],
    constants: Mapping[str, Element],
) -> list[Binding]:
    """Join the current bindings with an atom over the given tuples.

    A hash join: for each set of argument positions already determined
    by a binding, the relation is indexed once on those positions, so
    each binding only touches the rows that can possibly match.
    """
    result: list[Binding] = []
    tuple_list = list(tuples)
    indexes: dict[tuple, dict[tuple, list[tuple]]] = {}
    for binding in bindings:
        bound_positions: list[int] = []
        key: list[Element] = []
        for position, term in enumerate(atom.args):
            value = _resolve(term, binding, constants)
            if value is not None:
                bound_positions.append(position)
                key.append(value)
        positions = tuple(bound_positions)
        index = indexes.get(positions)
        if index is None:
            index = hash_index(tuple_list, positions)
            indexes[positions] = index
        for row in index.get(tuple(key), ()):
            extended = _extend_binding(atom, row, binding, constants)
            if extended is not None:
                result.append(extended)
    return result


def _extend_binding(
    atom: Atom,
    row: tuple,
    binding: Binding,
    constants: Mapping[str, Element],
) -> Binding | None:
    """Extend ``binding`` so that ``atom`` matches ``row``; None on clash."""
    extended = dict(binding)
    for term, value in zip(atom.args, row):
        known = _resolve(term, extended, constants)
        if known is None:
            extended[term] = value  # term must be a Variable
        elif known != value:
            return None
    return extended


def _apply_ready_constraints(
    rule: Rule,
    bindings: list[Binding],
    constants: Mapping[str, Element],
    pending: set[int],
) -> list[Binding]:
    """Filter bindings by constraints whose terms are all determined.

    Equalities with exactly one bound side *bind* the other side instead
    of filtering.  ``pending`` holds indices (into ``rule.body``) of
    constraints not yet applied and is updated in place.
    """
    changed = True
    while changed and pending:
        changed = False
        for index in sorted(pending):
            literal = rule.body[index]
            left, right = literal.left, literal.right
            survivors: list[Binding] = []
            # Decide whether this constraint is ready for every binding:
            # constraints are ready when, for each binding, both sides are
            # resolvable -- or, for an equality, one side is.
            ready = True
            for binding in bindings:
                lv = _resolve(left, binding, constants)
                rv = _resolve(right, binding, constants)
                if lv is None and rv is None:
                    ready = False
                    break
                if isinstance(literal, Inequality) and (lv is None or rv is None):
                    ready = False
                    break
            if not ready:
                continue
            for binding in bindings:
                lv = _resolve(left, binding, constants)
                rv = _resolve(right, binding, constants)
                if isinstance(literal, Equality):
                    if lv is None:
                        extended = dict(binding)
                        extended[left] = rv
                        survivors.append(extended)
                    elif rv is None:
                        extended = dict(binding)
                        extended[right] = lv
                        survivors.append(extended)
                    elif lv == rv:
                        survivors.append(binding)
                else:
                    if lv != rv:
                        survivors.append(binding)
            bindings = survivors
            pending.discard(index)
            changed = True
    return bindings


def _rule_bindings(
    rule: Rule,
    database: Mapping[str, Iterable[tuple]],
    universe: Iterable[Element],
    constants: Mapping[str, Element],
    delta_index: int | None = None,
    delta: Iterable[tuple] | None = None,
) -> Iterator[Binding]:
    """All satisfying bindings for a rule body.

    When ``delta_index`` is given, the ``delta_index``-th relational atom
    is joined against ``delta`` instead of the full relation (the
    semi-naive trick).
    """
    bindings: list[Binding] = [{}]
    pending = {
        index
        for index, literal in enumerate(rule.body)
        if not isinstance(literal, Atom)
    }
    atom_position = 0
    for literal in rule.body:
        if not isinstance(literal, Atom):
            continue
        if atom_position == delta_index and delta is not None:
            rows: Iterable[tuple] = delta
        else:
            rows = database.get(literal.predicate, ())
        bindings = _match_atom(literal, rows, bindings, constants)
        if not bindings:
            return
        bindings = _apply_ready_constraints(rule, bindings, constants, pending)
        if not bindings:
            return
        atom_position += 1

    # Enumerate variables still unbound (head-only / constraint-only vars).
    # Atom matching and ready-constraint application bind the same
    # variable set in every surviving binding, so the free-variable list
    # and its universe product are computed once per rule, not once per
    # binding.
    needed = sorted(rule.variables())
    free = [v for v in needed if v not in bindings[0]]
    if not free:
        for binding in bindings:
            if _constraints_hold(rule, binding, constants):
                yield binding
        return
    free_product = list(
        itertools.product(list(universe), repeat=len(free))
    )
    for binding in bindings:
        for values in free_product:
            candidate = {**binding, **dict(zip(free, values))}
            if _constraints_hold(rule, candidate, constants):
                yield candidate


def _constraints_hold(
    rule: Rule, binding: Binding, constants: Mapping[str, Element]
) -> bool:
    for literal in rule.constraints():
        lv = _resolve(literal.left, binding, constants)
        rv = _resolve(literal.right, binding, constants)
        if isinstance(literal, Equality):
            if lv != rv:
                return False
        else:
            if lv == rv:
                return False
    return True


def _head_tuple(
    rule: Rule, binding: Binding, constants: Mapping[str, Element]
) -> tuple:
    values = []
    for term in rule.head.args:
        value = _resolve(term, binding, constants)
        if value is None:  # pragma: no cover - ruled out by enumeration
            raise RuntimeError(f"unbound head term {term} in rule {rule}")
        values.append(value)
    return tuple(values)


def _database_from_structure(
    program: Program,
    structure: Structure,
    extra_edb: Mapping[str, Iterable[tuple]] | None,
) -> tuple[Database, dict[str, Element]]:
    extra = {
        name: {tuple(t) for t in tuples}
        for name, tuples in (extra_edb or {}).items()
    }
    database: Database = {}
    for predicate in program.edb_predicates:
        if predicate in extra:
            database[predicate] = set(extra[predicate])
        elif structure.vocabulary.has_relation(predicate):
            database[predicate] = set(structure.relation(predicate))
        else:
            raise ValueError(
                f"EDB predicate {predicate!r} is interpreted neither by the "
                "structure nor by extra_edb"
            )
    constants = dict(structure.constants)
    missing = program.constants() - set(constants)
    if missing:
        raise ValueError(
            f"program mentions constants the structure does not interpret: "
            f"{sorted(missing)}"
        )
    return database, constants


def _apply_all_rules(
    program: Program,
    database: Mapping[str, Iterable[tuple]],
    universe: Iterable[Element],
    constants: Mapping[str, Element],
) -> dict[str, set]:
    """One application of the paper's operator Theta to ``database``."""
    derived: dict[str, set] = {p: set() for p in program.idb_predicates}
    per_rule, __ = _apply_rules_detailed(
        program, database, universe, constants
    )
    for rule, heads in zip(program.rules, per_rule):
        derived[rule.head.predicate] |= heads
    return derived


def _apply_rules_detailed(
    program: Program,
    database: Mapping[str, Iterable[tuple]],
    universe: Iterable[Element],
    constants: Mapping[str, Element],
) -> tuple[list[set], int]:
    """One operator application, kept per rule.

    Returns the derived head-tuple set of every rule (in rule order) and
    the total number of satisfying bindings enumerated -- the inputs the
    per-round profile needs.
    """
    tracer = _trace.tracer
    per_rule: list[set] = []
    bindings_enumerated = 0
    for rule_index, rule in enumerate(program.rules):
        _faults.faults.hit("rule")
        with tracer.span(
            "rule", rule=rule_index, head=rule.head.predicate
        ) as span:
            heads: set = set()
            count = 0
            for binding in _rule_bindings(
                rule, database, universe, constants
            ):
                heads.add(_head_tuple(rule, binding, constants))
                count += 1
            span.annotate(bindings=count, heads=len(heads))
        bindings_enumerated += count
        per_rule.append(heads)
    return per_rule, bindings_enumerated


def _snapshot(database: Database, idb: frozenset[str]) -> dict[str, frozenset]:
    return {p: frozenset(database.get(p, ())) for p in idb}


def evaluate(
    program: Program,
    structure: Structure,
    extra_edb: Mapping[str, Iterable[tuple]] | None = None,
    method: str = "indexed",
    collect_stages: bool = False,
    collect_profile: bool = False,
    collect_analyze: bool = False,
    budget: ResourceBudget | None = None,
    cancellation: CancellationToken | None = None,
    resume_from: Checkpoint | None = None,
    checkpoint_sink: Callable[[Checkpoint], None] | None = None,
    workers: int = 1,
    shards: int | None = None,
) -> FixpointResult:
    """Compute the least fixpoint ``pi^infty`` of a program on a structure.

    Parameters
    ----------
    program:
        The Datalog(!=) program.
    structure:
        Interprets every EDB predicate (unless overridden) and every
        constant the program mentions.
    extra_edb:
        Optional relation overrides/additions, e.g. feeding a previously
        computed predicate ``T`` into a follow-up program, as the proof of
        Theorem 6.1 does ("consider the following program in which T is
        viewed as an EDB predicate").
    method:
        ``"indexed"`` (default), ``"seminaive"``, ``"naive"``,
        ``"codegen"``, or ``"parallel"``.
    collect_stages:
        When true, record the cumulative stage relations after every
        round.  Rounds coincide across the engines, so the recorded
        sequence is the paper's ``Theta^1 <= Theta^2 <= ...`` whichever
        engine runs.
    collect_profile:
        When true, populate :attr:`FixpointResult.profile` with the
        per-iteration :class:`EvaluationProfile`.  The semantic parts
        (delta sizes, rule firings) are engine-independent.
    collect_analyze:
        When true (plan engines only -- :data:`ANALYZE_ENGINES`),
        additionally collect EXPLAIN ANALYZE statistics: per-plan-node
        rows in/out, per-plan invocation counts, per-rule wall time and
        firings, attached as ``result.profile.plans`` (a
        :class:`repro.obs.analyze.PlanProfile`; implies
        ``collect_profile``).  The counts are plan-level semantics, so
        the indexed and codegen engines report identical numbers.  On a
        resumed run the statistics cover the resumed rounds only
        (analyze state is not checkpointed).
    budget:
        Optional :class:`repro.guard.ResourceBudget`.  When a limit
        trips, :class:`repro.guard.BudgetExceeded` is raised carrying a
        :class:`PartialFixpointResult` (the sound under-approximation at
        the last completed round) and, when the state is resumable, a
        :class:`repro.guard.Checkpoint`.
    cancellation:
        Optional :class:`repro.guard.CancellationToken`; cooperative --
        checked at round boundaries and inside the indexed engine's join
        loops.  Raises :class:`repro.guard.EvaluationCancelled`.
    resume_from:
        A :class:`repro.guard.Checkpoint` from an earlier interrupted
        run of the *same* program on the *same* database (fingerprints
        verified, :class:`repro.guard.CheckpointMismatch` otherwise).
        Evaluation restarts mid-fixpoint and the final result --
        semantic profile view and stage sequence included -- is
        identical to an uninterrupted run.  Only the semi-naive,
        indexed, codegen, and parallel engines accept resumption (naive
        checkpoints *are* semi-naive state and resume under any of
        them).
    checkpoint_sink:
        Optional callable receiving a :class:`repro.guard.Checkpoint`
        after every completed round (on-demand checkpointing).
    workers:
        Worker-process count for ``method="parallel"`` (default 1 =
        inline, no processes).  Rejected for every other engine.
    shards:
        Hash-partition count per delta relation for
        ``method="parallel"`` (default: ``workers``).  Any value yields
        the same fixpoint -- shard merges are set unions -- which the
        metamorphic shard-invariance suite pins.
    """
    if method not in METHODS:
        raise ValueError(f"unknown evaluation method {method!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if method != "parallel" and (workers != 1 or shards is not None):
        raise ValueError(
            "workers/shards apply only to method='parallel', "
            f"not {method!r}"
        )
    if collect_analyze:
        if method not in ANALYZE_ENGINES:
            raise ValueError(
                "collect_analyze requires a plan-based engine "
                f"({', '.join(ANALYZE_ENGINES)}), not {method!r}"
            )
        collect_profile = True
    database, constants = _database_from_structure(program, structure, extra_edb)
    universe = list(structure.universe)
    edb_relations = {p: database[p] for p in program.edb_predicates}
    for predicate in program.idb_predicates:
        database.setdefault(predicate, set())

    # Fingerprints bind checkpoints to (program, EDB); computed lazily so
    # guarded-but-never-tripped runs without checkpointing pay nothing.
    fingerprints: tuple[str, str] | None = None

    def _fps() -> tuple[str, str]:
        nonlocal fingerprints
        if fingerprints is None:
            fingerprints = (
                program_fingerprint(program),
                edb_fingerprint(edb_relations, universe, constants),
            )
        return fingerprints

    if resume_from is not None:
        if method not in RESUMABLE_ENGINES:
            raise ValueError(
                f"resume_from requires an engine in {RESUMABLE_ENGINES}, "
                f"not {method!r}"
            )
        resume_from.validate(*_fps())
        for predicate in program.idb_predicates:
            database[predicate] = set(resume_from.relations.get(predicate, ()))

    stage_snapshots: list[dict[str, frozenset]] | None = (
        [] if collect_stages else None
    )
    if stage_snapshots is not None and resume_from is not None:
        if resume_from.stages is None:
            raise ValueError(
                "collect_stages=True but the checkpoint carries no stage "
                "history; take checkpoints from a run with "
                "collect_stages=True"
            )
        stage_snapshots.extend(resume_from.stages)
    profile = _profile_builder(program) if collect_profile else None
    analyze = _AnalyzeBuilder(program) if collect_analyze else None
    if profile is not None and resume_from is not None:
        if resume_from.profile_rounds is None:
            raise ValueError(
                "collect_profile=True but the checkpoint carries no "
                "profile history; take checkpoints from a run with "
                "collect_profile=True"
            )
        profile.iterations.extend(resume_from.profile_rounds)

    guard: EvaluationGuard | None = None
    if budget is not None or cancellation is not None:
        guard = EvaluationGuard(budget, cancellation).start()

    emit: Callable | None = None
    if checkpoint_sink is not None:

        def emit(iteration: int, delta: Mapping, relations: Mapping) -> None:
            checkpoint_sink(
                _build_checkpoint(
                    method, program, _fps(), iteration, relations, delta,
                    stage_snapshots, profile,
                )
            )

    if method == "parallel":
        # Imported lazily: repro.datalog.parallel imports back into this
        # module for the shared round plumbing.
        import functools

        from repro.datalog.parallel import parallel_engine

        engine = functools.partial(
            parallel_engine, workers=workers, shards=shards
        )
    else:
        engine = {
            "naive": _naive,
            "seminaive": _seminaive,
            "indexed": _indexed,
            "codegen": _codegen,
        }[method]
    _metrics.metrics.inc("datalog.evaluations")
    with _trace.tracer.span(
        "evaluate", engine=method, goal=program.goal, rules=len(program.rules)
    ) as span:
        try:
            iterations = engine(
                program,
                database,
                universe,
                constants,
                stage_snapshots,
                profile,
                guard=guard,
                checkpoint=emit,
                resume=resume_from,
                analyze=analyze,
            )
        except _EngineInterrupt as interrupt:
            relations = _snapshot(database, program.idb_predicates)
            partial = PartialFixpointResult(
                relations=relations,
                goal=program.goal,
                stages=tuple(stage_snapshots) if collect_stages else None,
                iterations=interrupt.iterations,
                profile=None if profile is None else profile.build(
                    method,
                    None if analyze is None
                    else analyze.build(method, interrupt.iterations),
                ),
                reason=interrupt.trip.reason,
                limit=interrupt.trip.limit,
                spent=dict(interrupt.trip.spent),
            )
            checkpoint = None
            if interrupt.iterations > 0:
                checkpoint = _build_checkpoint(
                    method, program, _fps(), interrupt.iterations,
                    relations, interrupt.delta, stage_snapshots, profile,
                )
            span.annotate(interrupted=interrupt.trip.reason)
            raise _budget_error(interrupt.trip, partial, checkpoint) from None
        span.annotate(iterations=iterations)

    return FixpointResult(
        relations=_snapshot(database, program.idb_predicates),
        goal=program.goal,
        stages=tuple(stage_snapshots) if collect_stages else None,
        iterations=iterations,
        profile=None if profile is None else profile.build(
            method,
            None if analyze is None else analyze.build(method, iterations),
        ),
    )


def _build_checkpoint(
    method: str,
    program: Program,
    fps: tuple[str, str],
    iteration: int,
    relations: Mapping[str, Iterable[tuple]],
    delta: Mapping[str, Iterable[tuple]],
    stage_snapshots: list | None,
    profile: _ProfileBuilder | None,
) -> Checkpoint:
    """Package one round boundary's state as a checkpoint."""
    program_fp, edb_fp = fps
    return Checkpoint(
        engine=method,
        goal=program.goal,
        program_fingerprint=program_fp,
        edb_fingerprint=edb_fp,
        iteration=iteration,
        relations={p: frozenset(rows) for p, rows in relations.items()},
        delta={p: frozenset(rows) for p, rows in delta.items()},
        stages=None if stage_snapshots is None else tuple(stage_snapshots),
        profile_rounds=(
            None if profile is None else tuple(profile.iterations)
        ),
    )


def _record_round(
    engine: str,
    delta_sizes: Mapping[str, int],
    rule_firings: Iterable[int],
    bindings_enumerated: int,
    tuples_produced: int,
    profile: _ProfileBuilder | None,
    guard: EvaluationGuard | None = None,
) -> None:
    """Feed one round into the metrics registry, profile, and guard.

    Runs once per fixpoint round (never per binding); when metrics are
    disabled the calls hit the no-op singleton.  This is also the
    ``round`` fault site and where a guard accounts the round's semantic
    counters (limits are *checked* separately, at the top of the next
    round, so a run that converges exactly at a limit completes).
    """
    _faults.faults.hit("round")
    firings = (
        rule_firings if isinstance(rule_firings, list) else list(rule_firings)
    )
    m = _metrics.metrics
    m.inc("datalog.rounds")
    m.inc("datalog.rule_firings", sum(firings))
    m.inc("datalog.delta_tuples", sum(delta_sizes.values()))
    m.inc("datalog.bindings_enumerated", bindings_enumerated)
    m.inc("datalog.tuples_produced", tuples_produced)
    if guard is not None:
        guard.account_round(sum(delta_sizes.values()), sum(firings))
    if profile is not None:
        profile.end_round(
            delta_sizes, firings, bindings_enumerated, tuples_produced
        )


def _naive(
    program: Program,
    database: Database,
    universe: list,
    constants: Mapping[str, Element],
    stage_snapshots: list[dict[str, frozenset]] | None,
    profile: _ProfileBuilder | None = None,
    guard: EvaluationGuard | None = None,
    checkpoint: Callable | None = None,
    resume: Checkpoint | None = None,
    analyze: _AnalyzeBuilder | None = None,
) -> int:
    """Literal iteration of Theta; mutates ``database``; returns rounds.

    ``resume`` is rejected upstream (naive recomputes the full operator
    each round, so there is no saved delta to continue from), but naive
    runs *emit* checkpoints: the fresh-tuple sets it computes per round
    are exactly the semi-naive delta, so its checkpoints resume under
    the semi-naive/indexed engines.
    """
    tracer = _trace.tracer
    idb = program.idb_predicates
    iterations = 0
    delta: dict[str, set] = {}
    try:
        while True:
            if guard is not None:
                guard.check_boundary()
            if profile is not None:
                profile.start_round()
            with tracer.span(
                "iteration", engine="naive", round=iterations + 1
            ):
                per_rule, bindings = _apply_rules_detailed(
                    program, database, universe, constants
                )
            iterations += 1
            # Per-rule firings (distinct heads new this round) and per-IDB
            # delta sizes, both against the pre-merge database.
            rule_firings = [
                len(heads - database[rule.head.predicate])
                for rule, heads in zip(program.rules, per_rule)
            ]
            derived: dict[str, set] = {p: set() for p in idb}
            for rule, heads in zip(program.rules, per_rule):
                derived[rule.head.predicate] |= heads
            changed = False
            delta = {}
            for predicate, tuples in derived.items():
                fresh = tuples - database[predicate]
                delta[predicate] = fresh
                if fresh:
                    changed = True
                database[predicate] = database[predicate] | tuples
            _record_round(
                "naive",
                {p: len(rows) for p, rows in delta.items()},
                rule_firings,
                bindings,
                bindings,
                profile,
                guard,
            )
            if stage_snapshots is not None:
                stage_snapshots.append(_snapshot(database, idb))
            if checkpoint is not None:
                checkpoint(iterations, delta, _snapshot(database, idb))
            if not changed:
                return iterations
    except GuardTrip as trip:
        raise _EngineInterrupt(trip, iterations, delta) from None


def _round_one_from_detail(
    program: Program,
    database: Database,
    per_rule: list[set],
    bindings: int,
    profile: _ProfileBuilder | None,
    engine: str,
    guard: EvaluationGuard | None = None,
) -> dict[str, set]:
    """Merge round 1's per-rule derivations; returns the first delta."""
    idb = program.idb_predicates
    rule_firings = [
        len(heads - database[rule.head.predicate])
        for rule, heads in zip(program.rules, per_rule)
    ]
    derived: dict[str, set] = {p: set() for p in idb}
    for rule, heads in zip(program.rules, per_rule):
        derived[rule.head.predicate] |= heads
    delta: dict[str, set] = {}
    for predicate, tuples in derived.items():
        fresh = tuples - database[predicate]
        database[predicate] |= fresh
        delta[predicate] = fresh
    _record_round(
        engine,
        {p: len(rows) for p, rows in delta.items()},
        rule_firings,
        bindings,
        bindings,
        profile,
        guard,
    )
    return delta


def _seminaive(
    program: Program,
    database: Database,
    universe: list,
    constants: Mapping[str, Element],
    stage_snapshots: list[dict[str, frozenset]] | None = None,
    profile: _ProfileBuilder | None = None,
    guard: EvaluationGuard | None = None,
    checkpoint: Callable | None = None,
    resume: Checkpoint | None = None,
    analyze: _AnalyzeBuilder | None = None,
) -> int:
    """Delta-driven evaluation; mutates ``database``; returns iterations.

    The loop state at a round boundary is exactly ``(database, delta,
    iterations)`` -- what a :class:`repro.guard.Checkpoint` carries --
    so ``resume`` skips the bootstrap and re-enters the while loop as if
    the interrupted run had never stopped.  Database mutation happens
    only at boundaries (the merge after the per-rule loop), so a
    :class:`GuardTrip` or injected crash mid-round leaves the last
    completed round's state intact.
    """
    tracer = _trace.tracer
    idb = program.idb_predicates
    iterations = 0
    delta: dict[str, set] = {}
    try:
        if resume is not None:
            iterations = resume.iteration
            delta = {p: set(resume.delta.get(p, ())) for p in idb}
        else:
            if guard is not None:
                guard.check_boundary()
            # Initial round: every rule against the EDB-only database.
            if profile is not None:
                profile.start_round()
            with tracer.span("iteration", engine="seminaive", round=1):
                per_rule, bindings = _apply_rules_detailed(
                    program, database, universe, constants
                )
            delta = _round_one_from_detail(
                program, database, per_rule, bindings, profile, "seminaive",
                guard,
            )
            iterations = 1
            if stage_snapshots is not None:
                stage_snapshots.append(_snapshot(database, idb))
            if checkpoint is not None:
                checkpoint(iterations, delta, _snapshot(database, idb))

        while any(delta.values()):
            if guard is not None:
                guard.check_boundary()
            if profile is not None:
                profile.start_round()
            new_delta: dict[str, set] = {p: set() for p in idb}
            rule_firings: list[int] = []
            bindings = 0
            with tracer.span(
                "iteration", engine="seminaive", round=iterations + 1
            ):
                for rule_index, rule in enumerate(program.rules):
                    _faults.faults.hit("rule")
                    atoms = rule.body_atoms()
                    idb_positions = [
                        index
                        for index, atom in enumerate(atoms)
                        if atom.predicate in idb
                    ]
                    if not idb_positions:
                        # EDB-only rules contribute nothing after round 1.
                        rule_firings.append(0)
                        continue
                    existing = database[rule.head.predicate]
                    fired: set = set()
                    with tracer.span(
                        "rule", rule=rule_index, head=rule.head.predicate
                    ) as span:
                        for position in idb_positions:
                            predicate = atoms[position].predicate
                            if not delta[predicate]:
                                continue
                            for binding in _rule_bindings(
                                rule,
                                database,
                                universe,
                                constants,
                                delta_index=position,
                                delta=delta[predicate],
                            ):
                                bindings += 1
                                head = _head_tuple(rule, binding, constants)
                                if head not in existing:
                                    fired.add(head)
                        span.annotate(fired=len(fired))
                    new_delta[rule.head.predicate] |= fired
                    rule_firings.append(len(fired))
            for predicate, tuples in new_delta.items():
                database[predicate] |= tuples
            delta = new_delta
            iterations += 1
            _record_round(
                "seminaive",
                {p: len(rows) for p, rows in delta.items()},
                rule_firings,
                bindings,
                bindings,
                profile,
                guard,
            )
            if stage_snapshots is not None:
                stage_snapshots.append(_snapshot(database, idb))
            if checkpoint is not None:
                checkpoint(iterations, delta, _snapshot(database, idb))
        return iterations
    except GuardTrip as trip:
        raise _EngineInterrupt(trip, iterations, delta) from None


# ---------------------------------------------------------------------------
# The indexed engine: plans from repro.datalog.planner, compiled to
# slot-addressed ops and executed against the incrementally-indexed
# store of repro.datalog.indexing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CompiledPlan:
    """A plan lowered onto integer slots for one (rule, constants) pair.

    Bindings become flat lists indexed by slot instead of
    Variable-keyed dicts -- the hot loops never hash a Variable.  Each
    op is a tuple whose first element is its kind:

    * ``("atom", predicate, is_delta, bound_positions, key_sources,
      writes, checks)`` -- index lookup; ``key_sources`` are
      ``(from_slot, slot_or_value)`` pairs, ``writes``/``checks`` are
      ``(row_position, slot)`` pairs (checks handle variables repeated
      within the atom);
    * ``("bind", slot, source)`` -- equality assigning a fresh slot;
    * ``("eq" | "neq", left_source, right_source)`` -- filters;
    * ``("enum", slot)`` -- universe sweep into a fresh slot.

    ``slots`` records the Variable -> slot assignment the compilation
    produced; the incremental-maintenance layer
    (:mod:`repro.datalog.incremental`) uses it to recover the ground
    body-atom rows of each satisfying binding (derivation supports).
    """

    plan: RulePlan
    ops: tuple[tuple, ...]
    slot_count: int
    head: tuple  # per head position: (from_slot, slot_or_value)
    slots: tuple[tuple[Variable, int], ...] = ()


def _compile_plan(
    plan: RulePlan, constants: Mapping[str, Element]
) -> _CompiledPlan:
    slots: dict[Variable, int] = {}

    def source_of(term: Term) -> tuple[bool, object]:
        if isinstance(term, Constant):
            return (False, _resolve(term, {}, constants))
        return (True, slots[term])

    ops: list[tuple] = []
    for step in plan.steps:
        if isinstance(step, AtomStep):
            atom = step.atom
            bound = set(step.bound_positions)
            key_sources = tuple(
                source_of(atom.args[i]) for i in step.bound_positions
            )
            writes: list[tuple[int, int]] = []
            checks: list[tuple[int, int]] = []
            for position, term in enumerate(atom.args):
                if position in bound:
                    continue
                # An unbound position is always a Variable; a slot can
                # already exist only via a repeat within this atom.
                if term in slots:
                    checks.append((position, slots[term]))
                else:
                    slots[term] = len(slots)
                    writes.append((position, slots[term]))
            ops.append(
                (
                    "atom",
                    atom.predicate,
                    step.is_delta,
                    step.bound_positions,
                    key_sources,
                    tuple(writes),
                    tuple(checks),
                )
            )
        elif isinstance(step, ConstraintStep):
            literal = step.literal
            if step.binds is not None:
                other = (
                    literal.right
                    if step.binds == literal.left
                    else literal.left
                )
                source = source_of(other)
                slots[step.binds] = len(slots)
                ops.append(("bind", slots[step.binds], source))
            else:
                kind = "eq" if isinstance(literal, Equality) else "neq"
                ops.append(
                    (kind, source_of(literal.left), source_of(literal.right))
                )
        else:  # EnumerateStep
            slots[step.variable] = len(slots)
            ops.append(("enum", slots[step.variable]))

    head = tuple(source_of(term) for term in plan.rule.head.args)
    return _CompiledPlan(
        plan, tuple(ops), len(slots), head, tuple(slots.items())
    )


def _run_plan(
    compiled: _CompiledPlan,
    store: IndexedDatabase,
    universe: list,
    delta_rows: Iterable[tuple] | None = None,
    guard: EvaluationGuard | None = None,
    node_stats: list[int] | None = None,
) -> list[list]:
    """All satisfying slot bindings for a compiled plan.

    ``delta_rows`` feeds the plan's ``is_delta`` atom op (present
    exactly when the plan was built with a ``delta_atom_index``).

    ``guard`` receives one :meth:`~repro.guard.EvaluationGuard.tick` per
    atom op, weighted by the binding batch it probes with -- a cheap
    in-round pulse (stride-checked deadline/cancellation inside the
    guard) so a single enormous round cannot outlive its deadline by a
    whole round's length.  Kept per *operator*, never per binding, like
    the index telemetry below.

    ``node_stats`` (EXPLAIN ANALYZE, ``collect_analyze=True``) is a
    flat ``[rows_in, rows_out, ...]`` list with two slots per op, in op
    order, accumulated across invocations.  Rows in/out are batch
    lengths taken around each op -- one pair of additions per *op*, so
    the never-enabled path costs one ``is not None`` test per op, not
    per binding.
    """
    bindings: list[list] = [[None] * compiled.slot_count]
    for op_index, op in enumerate(compiled.ops):
        kind = op[0]
        if node_stats is not None:
            node_stats[2 * op_index] += len(bindings)
        if kind == "atom":
            __, predicate, is_delta, positions, key_sources, writes, checks = op
            _faults.faults.hit("probe")
            if guard is not None:
                guard.tick(len(bindings))
            if is_delta:
                # Deltas are per-round and small: a one-shot index.
                lookup = hash_index(delta_rows or (), positions).get
            else:
                lookup = store.relation(predicate).index_for(positions).get
            new_bindings: list[list] = []
            for binding in bindings:
                key = tuple(
                    binding[value] if from_slot else value
                    for from_slot, value in key_sources
                )
                for row in lookup(key, ()):
                    extended = binding.copy()
                    for position, slot in writes:
                        extended[slot] = row[position]
                    for position, slot in checks:
                        if extended[slot] != row[position]:
                            break
                    else:
                        new_bindings.append(extended)
            # Aggregate index telemetry: one call per atom op, never per
            # probe, so the disabled path stays flat.
            m = _metrics.metrics
            m.inc(
                "index.delta_probes" if is_delta else "index.probes",
                len(bindings),
            )
            m.inc("index.bindings_extended", len(new_bindings))
            bindings = new_bindings
        elif kind == "bind":
            __, slot, (from_slot, value) = op
            for binding in bindings:
                binding[slot] = binding[value] if from_slot else value
        elif kind == "enum":
            slot = op[1]
            swept: list[list] = []
            for binding in bindings:
                for element in universe:
                    extended = binding.copy()
                    extended[slot] = element
                    swept.append(extended)
            bindings = swept
        else:  # "eq" / "neq"
            __, (left_slot, left), (right_slot, right) = op
            wanted = kind == "eq"
            bindings = [
                binding
                for binding in bindings
                if (
                    (binding[left] if left_slot else left)
                    == (binding[right] if right_slot else right)
                )
                is wanted
            ]
        if node_stats is not None:
            node_stats[2 * op_index + 1] += len(bindings)
        if not bindings:
            break
    return bindings


def _plan_heads(
    compiled: _CompiledPlan, bindings: Iterable[list]
) -> Iterator[tuple]:
    """Head tuples of one compiled plan's ``bindings``, one per binding."""
    head = compiled.head
    for binding in bindings:
        yield tuple(
            binding[value] if from_slot else value
            for from_slot, value in head
        )


def _indexed(
    program: Program,
    database: Database,
    universe: list,
    constants: Mapping[str, Element],
    stage_snapshots: list[dict[str, frozenset]] | None = None,
    profile: _ProfileBuilder | None = None,
    guard: EvaluationGuard | None = None,
    checkpoint: Callable | None = None,
    resume: Checkpoint | None = None,
    analyze: _AnalyzeBuilder | None = None,
) -> int:
    """Index-backed semi-naive evaluation; mutates ``database``.

    Round-for-round identical to :func:`_seminaive`: round 1 applies
    every rule to the EDB-only store, later rounds re-derive only
    through the delta-specialised plans, and the iteration count is the
    number of rounds until the delta empties.  ``resume`` seeds the
    store from checkpointed relations (the caller already merged them
    into ``database``) and re-enters the delta loop directly; the store
    mutates only at round boundaries, so trips and crashes mid-round
    cannot expose a half-merged state.

    Observability discipline: the per-head/per-binding loops stay free
    of instrumentation.  ``bindings_enumerated``/``tuples_produced`` are
    the length of each plan's binding list, added once per plan run, so
    they are exact with profiling on or off; EXPLAIN ANALYZE node counts
    run only under ``collect_analyze``.
    """
    tracer = _trace.tracer
    idb = program.idb_predicates
    store = IndexedDatabase(database)
    delta_plans = [
        tuple(
            _compile_plan(plan, constants)
            for plan in plan_program_rules(rule, idb)
        )
        for rule in program.rules
    ]

    iterations = 0
    delta: dict[str, set] = {}
    try:
        if resume is not None:
            iterations = resume.iteration
            delta = {p: set(resume.delta.get(p, ())) for p in idb}
        else:
            if guard is not None:
                guard.check_boundary()
            full_plans = [
                _compile_plan(plan_rule(rule), constants)
                for rule in program.rules
            ]
            # Initial round: every rule against the EDB-only store.
            if profile is not None:
                profile.start_round()
            produced = 0
            per_rule: list[set] = []
            with tracer.span("iteration", engine="indexed", round=1):
                for rule_index, (rule, compiled) in enumerate(
                    zip(program.rules, full_plans)
                ):
                    _faults.faults.hit("rule")
                    node_stats = None
                    if analyze is not None:
                        node_stats = analyze.full_counts(rule_index)
                        rule_start = time.perf_counter()
                    bindings = _run_plan(
                        compiled, store, universe, guard=guard,
                        node_stats=node_stats,
                    )
                    produced += len(bindings)
                    per_rule.append(set(_plan_heads(compiled, bindings)))
                    if analyze is not None:
                        analyze.add_wall(
                            rule_index, time.perf_counter() - rule_start
                        )
            rule_firings = [
                len(heads - store.rows(rule.head.predicate))
                for rule, heads in zip(program.rules, per_rule)
            ]
            if analyze is not None:
                analyze.add_firings(rule_firings)
            derived: dict[str, set] = {p: set() for p in idb}
            for rule, heads in zip(program.rules, per_rule):
                derived[rule.head.predicate] |= heads
            delta = {}
            for predicate, tuples in derived.items():
                delta[predicate] = store.merge(predicate, tuples)
            iterations = 1
            _record_round(
                "indexed",
                {p: len(rows) for p, rows in delta.items()},
                rule_firings,
                produced,
                produced,
                profile,
                guard,
            )
            if stage_snapshots is not None:
                stage_snapshots.append(store.snapshot(idb))
            if checkpoint is not None:
                checkpoint(iterations, delta, store.snapshot(idb))

        while any(delta.values()):
            if guard is not None:
                guard.check_boundary()
            if profile is not None:
                profile.start_round()
            new_derived: dict[str, set] = {p: set() for p in idb}
            rule_firings = []
            produced = 0
            with tracer.span(
                "iteration", engine="indexed", round=iterations + 1
            ):
                for rule_index, (rule, compiled_deltas) in enumerate(
                    zip(program.rules, delta_plans)
                ):
                    _faults.faults.hit("rule")
                    existing = store.rows(rule.head.predicate)
                    fired: set = set()
                    if analyze is not None:
                        rule_start = time.perf_counter()
                    with tracer.span(
                        "rule", rule=rule_index, head=rule.head.predicate
                    ) as span:
                        for plan_pos, compiled in enumerate(compiled_deltas):
                            delta_index = compiled.plan.delta_atom_index
                            assert delta_index is not None
                            predicate = rule.body_atoms()[
                                delta_index
                            ].predicate
                            rows = delta[predicate]
                            if not rows:
                                continue
                            node_stats = None
                            if analyze is not None:
                                node_stats = analyze.delta_counts(
                                    rule_index, plan_pos
                                )
                            bindings = _run_plan(
                                compiled,
                                store,
                                universe,
                                delta_rows=rows,
                                guard=guard,
                                node_stats=node_stats,
                            )
                            produced += len(bindings)
                            for head in _plan_heads(compiled, bindings):
                                if head not in existing:
                                    fired.add(head)
                        span.annotate(fired=len(fired))
                    if analyze is not None:
                        analyze.add_wall(
                            rule_index, time.perf_counter() - rule_start
                        )
                    new_derived[rule.head.predicate] |= fired
                    rule_firings.append(len(fired))
            if analyze is not None:
                analyze.add_firings(rule_firings)
            delta = {
                predicate: store.merge(predicate, tuples)
                for predicate, tuples in new_derived.items()
            }
            iterations += 1
            _record_round(
                "indexed",
                {p: len(rows) for p, rows in delta.items()},
                rule_firings,
                produced,
                produced,
                profile,
                guard,
            )
            if stage_snapshots is not None:
                stage_snapshots.append(store.snapshot(idb))
            if checkpoint is not None:
                checkpoint(iterations, delta, store.snapshot(idb))
    except GuardTrip as trip:
        # Store state is at the last completed boundary; surface it in
        # the caller's database before reporting the interrupt.
        for predicate in idb:
            database[predicate] = store.rows(predicate)
        raise _EngineInterrupt(trip, iterations, delta) from None

    # The store adopted copies of the database's row sets; write the
    # final interpretations back so the caller's snapshot sees them.
    for predicate in idb:
        database[predicate] = store.rows(predicate)
    return iterations


def _codegen(
    program: Program,
    database: Database,
    universe: list,
    constants: Mapping[str, Element],
    stage_snapshots: list[dict[str, frozenset]] | None = None,
    profile: _ProfileBuilder | None = None,
    guard: EvaluationGuard | None = None,
    checkpoint: Callable | None = None,
    resume: Checkpoint | None = None,
    analyze: _AnalyzeBuilder | None = None,
) -> int:
    """Generated-code semi-naive evaluation; mutates ``database``.

    The same round structure as :func:`_indexed` -- round 1 applies
    every rule's full plan to the EDB-only store, later rounds only the
    delta-specialised plans -- but each plan runs as a specialized
    Python function emitted by :mod:`repro.datalog.codegen` instead of
    through the op interpreter.  The functions read the store's
    incrementally-maintained index buckets directly (bound once, before
    round 1: bucket dicts are updated in place as deltas merge), return
    ``(fired, produced)``, and tick the guard once per outermost-loop
    row, so checkpoints, trips, spans, and the semantic profile view are
    indistinguishable from the other engines'.
    """
    tracer = _trace.tracer
    idb = program.idb_predicates
    store = IndexedDatabase(database)
    tick = None if guard is None else guard.tick
    delta_functions = bind_delta_functions(
        program, store, constants, analyze=analyze is not None
    )

    iterations = 0
    delta: dict[str, set] = {}
    try:
        if resume is not None:
            iterations = resume.iteration
            delta = {p: set(resume.delta.get(p, ())) for p in idb}
        else:
            if guard is not None:
                guard.check_boundary()
            full_functions = bind_full_functions(
                program, store, constants, analyze=analyze is not None
            )
            # Initial round: every rule against the EDB-only store.
            if profile is not None:
                profile.start_round()
            produced = 0
            per_rule: list[set] = []
            with tracer.span("iteration", engine="codegen", round=1):
                for rule_index, (rule, function) in enumerate(
                    zip(program.rules, full_functions)
                ):
                    _faults.faults.hit("rule")
                    if analyze is None:
                        fired, fn_produced = function(
                            (), store.rows(rule.head.predicate), universe,
                            tick,
                        )
                    else:
                        rule_start = time.perf_counter()
                        fired, fn_produced = function(
                            (), store.rows(rule.head.predicate), universe,
                            tick, analyze.full_counts(rule_index),
                        )
                        analyze.add_wall(
                            rule_index, time.perf_counter() - rule_start
                        )
                    produced += fn_produced
                    per_rule.append(fired)
            # The functions already exclude pre-round rows, so each
            # fired set is exactly the rule's distinct-new head count.
            rule_firings = [len(fired) for fired in per_rule]
            if analyze is not None:
                analyze.add_firings(rule_firings)
            derived: dict[str, set] = {p: set() for p in idb}
            for rule, fired in zip(program.rules, per_rule):
                derived[rule.head.predicate] |= fired
            delta = {}
            for predicate, tuples in derived.items():
                delta[predicate] = store.merge(predicate, tuples)
            iterations = 1
            _record_round(
                "codegen",
                {p: len(rows) for p, rows in delta.items()},
                rule_firings,
                produced,
                produced,
                profile,
                guard,
            )
            if stage_snapshots is not None:
                stage_snapshots.append(store.snapshot(idb))
            if checkpoint is not None:
                checkpoint(iterations, delta, store.snapshot(idb))

        while any(delta.values()):
            if guard is not None:
                guard.check_boundary()
            if profile is not None:
                profile.start_round()
            new_derived = {p: set() for p in idb}
            rule_firings = []
            produced = 0
            with tracer.span(
                "iteration", engine="codegen", round=iterations + 1
            ):
                for rule_index, (rule, functions) in enumerate(
                    zip(program.rules, delta_functions)
                ):
                    _faults.faults.hit("rule")
                    existing = store.rows(rule.head.predicate)
                    fired: set = set()
                    if analyze is not None:
                        rule_start = time.perf_counter()
                    with tracer.span(
                        "rule", rule=rule_index, head=rule.head.predicate
                    ) as span:
                        for plan_pos, (predicate, function) in enumerate(
                            functions
                        ):
                            rows = delta[predicate]
                            if not rows:
                                continue
                            if analyze is None:
                                fn_fired, fn_produced = function(
                                    rows, existing, universe, tick
                                )
                            else:
                                fn_fired, fn_produced = function(
                                    rows, existing, universe, tick,
                                    analyze.delta_counts(
                                        rule_index, plan_pos
                                    ),
                                )
                            fired |= fn_fired
                            produced += fn_produced
                        span.annotate(fired=len(fired))
                    if analyze is not None:
                        analyze.add_wall(
                            rule_index, time.perf_counter() - rule_start
                        )
                    new_derived[rule.head.predicate] |= fired
                    rule_firings.append(len(fired))
            if analyze is not None:
                analyze.add_firings(rule_firings)
            delta = {
                predicate: store.merge(predicate, tuples)
                for predicate, tuples in new_derived.items()
            }
            iterations += 1
            _record_round(
                "codegen",
                {p: len(rows) for p, rows in delta.items()},
                rule_firings,
                produced,
                produced,
                profile,
                guard,
            )
            if stage_snapshots is not None:
                stage_snapshots.append(store.snapshot(idb))
            if checkpoint is not None:
                checkpoint(iterations, delta, store.snapshot(idb))
    except GuardTrip as trip:
        # Store state is at the last completed boundary; surface it in
        # the caller's database before reporting the interrupt.
        for predicate in idb:
            database[predicate] = store.rows(predicate)
        raise _EngineInterrupt(trip, iterations, delta) from None

    for predicate in idb:
        database[predicate] = store.rows(predicate)
    return iterations


def stages(
    program: Program,
    structure: Structure,
    extra_edb: Mapping[str, Iterable[tuple]] | None = None,
) -> tuple[Mapping[str, frozenset], ...]:
    """The paper's stage sequence ``Theta^1, Theta^2, ...`` (cumulative).

    The final entry is the least fixpoint; by the paper's Section 2
    discussion the sequence stabilises after at most ``|A|^r`` steps.
    Computed with the naive engine -- the literal operator iteration of
    Section 2 -- though every engine records the identical sequence (a
    property the differential tests pin).
    """
    result = evaluate(
        program,
        structure,
        extra_edb=extra_edb,
        method="naive",
        collect_stages=True,
    )
    assert result.stages is not None
    return result.stages


#: Engines accepted by :func:`query` -- :data:`METHODS` plus the
#: algebra engine of :mod:`repro.datalog.algebra_engine`.
QUERY_ENGINES = METHODS + ("algebra",)


@dataclass(frozen=True)
class QueryResult:
    """Goal-directed query outcome (see :func:`query`).

    Attributes
    ----------
    answers:
        The goal tuples (full arity) consistent with the goal atom's
        binding -- identical with and without the magic rewrite.
    goal_atom:
        The binding queried.
    magic:
        Whether the magic-sets rewrite ran.
    result:
        The underlying :class:`FixpointResult` (of the rewritten program
        when ``magic`` is true).
    rewrite:
        The :class:`repro.datalog.magic.MagicRewrite`, or ``None`` for
        direct evaluation.
    """

    answers: frozenset
    goal_atom: Atom
    magic: bool
    result: FixpointResult
    rewrite: object | None = None

    @property
    def holds(self) -> bool:
        """Whether any goal tuple matches the binding."""
        return bool(self.answers)

    @property
    def derived_tuples(self) -> int:
        """Total tuples the run derived, across every IDB predicate.

        For a magic run this counts adorned and magic tuples -- the
        work actually done -- which the bench harness compares against
        the full fixpoint's count.
        """
        return sum(len(rows) for rows in self.result.relations.values())


def query(
    program: Program,
    structure: Structure,
    goal_atom: Atom,
    extra_edb: Mapping[str, Iterable[tuple]] | None = None,
    engine: str = "indexed",
    magic: bool = True,
    collect_profile: bool = False,
    collect_analyze: bool = False,
    budget: ResourceBudget | None = None,
    cancellation: CancellationToken | None = None,
) -> QueryResult:
    """Evaluate one goal binding, goal-directedly by default.

    ``goal_atom`` is an atom over an IDB predicate (normally the goal)
    whose arguments mix :class:`Constant` (bound -- the structure must
    interpret the name) and :class:`Variable` (free); repeated variables
    require equal values.  With ``magic=True`` (default) the program is
    first rewritten by :func:`repro.datalog.magic.magic_rewrite`, so
    evaluation touches only the facts the binding demands; with
    ``magic=False`` the full fixpoint is computed and filtered.  The
    ``answers`` are identical either way -- the property-based
    equivalence harness pins this for all engines.

    ``engine`` is one of :data:`QUERY_ENGINES` (``"algebra"`` routes to
    :func:`repro.datalog.algebra_engine.evaluate_algebra`).
    ``collect_analyze`` attaches EXPLAIN ANALYZE plan statistics to the
    underlying fixpoint's profile exactly as in :func:`evaluate`
    (plan engines only).

    ``budget`` / ``cancellation`` guard the underlying fixpoint exactly
    as in :func:`evaluate`; on exhaustion the raised
    :class:`repro.guard.BudgetExceeded` carries the partial fixpoint of
    the program actually run (the magic rewrite when ``magic=True``).
    """
    from repro.datalog.magic import goal_matches, magic_rewrite

    if engine not in QUERY_ENGINES:
        raise ValueError(
            f"unknown query engine {engine!r} "
            f"(choose from {', '.join(QUERY_ENGINES)})"
        )
    if goal_atom.predicate not in program.idb_predicates:
        raise ValueError(
            f"goal atom predicate {goal_atom.predicate!r} is not an IDB "
            "predicate of the program"
        )
    missing = {
        term.name
        for term in goal_atom.args
        if isinstance(term, Constant)
    } - set(structure.constants)
    if missing:
        raise ValueError(
            f"goal atom mentions constants the structure does not "
            f"interpret: {sorted(missing)}"
        )
    rewrite = magic_rewrite(program, goal_atom) if magic else None
    target = program if rewrite is None else rewrite.program
    with _trace.tracer.span(
        "query",
        goal=str(goal_atom),
        engine=engine,
        magic=magic,
    ):
        if engine == "algebra":
            from repro.datalog.algebra_engine import evaluate_algebra

            if collect_analyze:
                raise ValueError(
                    "collect_analyze requires a plan-based engine "
                    f"({', '.join(ANALYZE_ENGINES)}), not 'algebra'"
                )
            result = evaluate_algebra(
                target,
                structure,
                extra_edb=extra_edb,
                collect_profile=collect_profile,
                budget=budget,
                cancellation=cancellation,
            )
        else:
            result = evaluate(
                target,
                structure,
                extra_edb=extra_edb,
                method=engine,
                collect_profile=collect_profile,
                collect_analyze=collect_analyze,
                budget=budget,
                cancellation=cancellation,
            )
    constants = dict(structure.constants)
    answers = frozenset(
        row
        for row in result.goal_relation
        if goal_matches(row, goal_atom, constants)
    )
    return QueryResult(
        answers=answers,
        goal_atom=goal_atom,
        magic=magic,
        result=result,
        rewrite=rewrite,
    )


def boolean_query(
    program: Program,
    structure: Structure,
    arguments: tuple = (),
    extra_edb: Mapping[str, Iterable[tuple]] | None = None,
) -> bool:
    """Evaluate the program and test ``arguments`` against the goal.

    For a nullary goal, pass the empty tuple; the query is then "was the
    goal fact derived at all".
    """
    result = evaluate(program, structure, extra_edb=extra_edb)
    return result.holds(arguments)
