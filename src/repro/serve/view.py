"""The shared live view ``repro serve`` multiplexes clients over.

:class:`LiveView` wraps one
:class:`~repro.datalog.incremental.IncrementalSession` and adds the
three things a concurrent server needs on top of incremental
maintenance:

**Epochs and copy-on-write snapshots.**  Every applied update bumps a
monotonically increasing *epoch*, and after each bump the view
publishes an immutable :class:`ViewSnapshot`.  Reads run against a
pinned snapshot, never against the mutating session, so a query
observes one epoch in its entirety no matter how many updates land
while it computes (snapshot consistency); pinning is just holding a
reference.  A snapshot stores each IDB relation as *bucket maps* --
key -> frozenset of the rows holding that key at a position
signature -- and neighbouring epochs share them copy-on-write: the
first-argument maps are built once, with
:func:`~repro.datalog.indexing.hash_index`, when the view is
constructed; a publish copies only the maps of the relations the
update's :class:`~repro.datalog.incremental.MaintenanceResult` changed
and rebuilds only the buckets its delta rows touch.  Every other map
and bucket is the previous snapshot's own object, and no bucket is
changed once built, so an old snapshot stays valid forever and a
publish costs what the delta touches -- those buckets, the key tables
of the changed maps and the one EDB relation the update names -- not
the view.

**Two query paths.**  A *view query* answers a goal binding with one
lookup in the pinned snapshot -- O(answer), no evaluation: a bound
first argument reads its bucket, any other bound signature reads a map
built from the snapshot's rows on first use (and carried forward from
then on), a fully bound row is a membership test, and only an unbound
read materialises the relation.  A *magic query* re-derives only what
the binding demands: it builds the bound goal atom (bound positions
become fresh ``__g{i}`` constants, exactly like ``repro run --bind``),
runs the magic-sets rewrite against the snapshot's EDB, and returns
the same rows the view query would -- the classical demand-driven
trade-off, now per-request.  Magic queries accept a per-call
:class:`~repro.guard.ResourceBudget`, which is how per-tenant limits
reach the evaluator.

**Checkpoint / resume.**  A live view is a pure function of
``(program, current EDB)``, so its durable state *is* a
:class:`~repro.guard.MaintenanceCheckpoint`: the fingerprinted EDB
plus ``updates_applied`` (the epoch).  :meth:`LiveView.checkpoint`
writes one (atomically -- see ``repro.guard._atomic_pickle_dump``) and
:meth:`LiveView.resume` rebuilds a view that serves a bit-identical
snapshot at the checkpointed epoch.  ``repro serve --resume`` and the
kill/restart fault drill both go through this pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from repro.datalog.ast import Atom, Constant, Program, Variable
from repro.datalog.evaluation import (
    QUERY_ENGINES,
    QueryResult,
    query as _query,
)
from repro.datalog.incremental import (
    IncrementalSession,
    MaintenanceResult,
    Update,
)
from repro.datalog.indexing import PositionSignature, hash_index
from repro.guard import (
    MaintenanceCheckpoint,
    ResourceBudget,
    program_fingerprint,
)
from repro.structures.structure import Structure

Row = tuple

#: Key (the row's arguments at a position signature) -> those rows.
Buckets = dict[tuple, frozenset]
#: One relation's bucket maps, by position signature.
BucketMaps = dict[PositionSignature, Buckets]

_NO_ROWS: frozenset = frozenset()


def _bucket_map(rows: Iterable[Row], positions: PositionSignature) -> Buckets:
    return {
        key: frozenset(group)
        for key, group in hash_index(rows, positions).items()
    }


def _first_argument_maps(rows: Iterable[Row], arity: int) -> BucketMaps:
    positions = (0,) if arity else ()
    return {positions: _bucket_map(rows, positions)}


def _union(maps: BucketMaps) -> frozenset:
    """A relation's rows: each of its maps partitions them."""
    buckets = next(iter(maps.values()))
    return frozenset().union(*buckets.values())


def _carry_forward(
    buckets: Buckets,
    positions: PositionSignature,
    added: frozenset,
    removed: frozenset,
) -> Buckets:
    """``buckets`` copied, with only the buckets the delta touches rebuilt."""
    plus = hash_index(added, positions)
    minus = hash_index(removed, positions)
    updated = dict(buckets)
    for key in plus.keys() | minus.keys():
        rows = buckets.get(key, _NO_ROWS)
        if key in minus:
            rows = rows.difference(minus[key])
        if key in plus:
            rows = rows.union(plus[key])
        if rows:
            updated[key] = rows
        else:
            updated.pop(key, None)
    return updated


@dataclass(frozen=True)
class ViewSnapshot:
    """One immutable epoch of the live view.

    ``buckets`` maps every IDB predicate to its bucket maps, keyed by
    position signature: the first-argument map (signature ``(0,)``, or
    ``()`` for a nullary relation, whose one bucket holds its one row)
    always, plus any signature a read has asked for.  Maps and buckets
    are shared copy-on-write with the neighbouring epochs: whatever an
    update did not touch is the same object in both snapshots, and a
    publish replaces what it touches instead of changing it, so a query
    pinned to this snapshot never observes a later update and reads
    cost O(answer).  ``edb`` is the EDB in ``evaluate``'s ``extra_edb``
    shape, as frozensets.

    ``relations`` and ``goal_rows`` are unions of buckets, computed on
    first use and cached; only unbound reads, resyncs and callers that
    want whole relations pay for them.
    """

    epoch: int
    goal: str
    buckets: Mapping[str, BucketMaps]
    edb: Mapping[str, frozenset]

    @cached_property
    def relations(self) -> dict[str, frozenset]:
        """The full IDB interpretation at this epoch."""
        return {
            predicate: _union(maps)
            for predicate, maps in self.buckets.items()
        }

    @property
    def goal_rows(self) -> frozenset:
        return self.relations[self.goal]

    def bucket(
        self, predicate: str, positions: PositionSignature, key: tuple
    ) -> frozenset:
        """The rows of ``predicate`` holding ``key`` at ``positions``.

        A signature asked for the first time gets its map built from
        this snapshot's rows.  The map joins the relation's maps, which
        every snapshot holding the same rows shares, and later
        publishes carry it forward.
        """
        maps = self.buckets[predicate]
        buckets = maps.get(positions)
        if buckets is None:
            buckets = maps[positions] = _bucket_map(_union(maps), positions)
        return buckets.get(key, _NO_ROWS)


def filter_rows(
    rows: Iterable[Row], bind: Sequence[str | None] | None
) -> list[Row]:
    """The rows matching a positional binding (``None`` = free).

    A scan of every row: the reference the bucket lookups of
    :meth:`LiveView.query_view` are tested against.
    """
    if bind is None:
        return list(rows)
    return [
        row
        for row in rows
        if all(b is None or x == b for x, b in zip(row, bind))
    ]


class LiveView:
    """One program's materialised view, shared by every connection.

    The view itself is *not* thread-safe for writes -- that is the
    point: the server routes all updates through one writer task, and
    the underlying session's single-writer lock turns any violation
    into a loud ``RuntimeError``.  Reads need no coordination at all
    because they only touch immutable snapshots.
    """

    def __init__(
        self,
        program: Program,
        structure: Structure,
        extra_edb: Mapping[str, Iterable[Row]] | None = None,
        epoch: int = 0,
    ) -> None:
        self._program = program
        self._structure = structure
        self._session = IncrementalSession(
            program, structure, extra_edb=extra_edb
        )
        self._program_fp = program_fingerprint(program)
        self._epoch = epoch
        self._snapshot = ViewSnapshot(
            epoch=epoch,
            goal=program.goal,
            buckets={
                predicate: _first_argument_maps(rows, program.arity(predicate))
                for predicate, rows in self._session.relations.items()
            },
            edb=self._session.current_extra_edb(),
        )

    # -- accessors --------------------------------------------------------

    @property
    def program(self) -> Program:
        return self._program

    @property
    def structure(self) -> Structure:
        return self._structure

    @property
    def epoch(self) -> int:
        """Updates applied over the lifetime of the view (resume-aware)."""
        return self._epoch

    @property
    def snapshot(self) -> ViewSnapshot:
        """The current epoch's snapshot (pin by keeping the reference)."""
        return self._snapshot

    @property
    def goal(self) -> str:
        return self._program.goal

    @property
    def program_fp(self) -> str:
        """The program fingerprint checkpoints and WAL headers carry."""
        return self._program_fp

    @property
    def goal_arity(self) -> int:
        return self._program.arity(self._program.goal)

    # -- writes (single-writer: the server's writer task only) ------------

    def apply(self, update: Update) -> tuple[MaintenanceResult, ViewSnapshot]:
        """Apply one update, bump the epoch, publish a new snapshot.

        Raises exactly what the session raises (``ValueError`` for
        malformed updates, :class:`~repro.guard.MaintenanceAborted`
        for budget trips) -- on any failure the epoch does not move and
        the previous snapshot stays current.
        """
        result = self._session.apply(update)
        self._epoch += 1
        self._snapshot = self._publish(result)
        return result, self._snapshot

    def _publish(self, result: MaintenanceResult) -> ViewSnapshot:
        """The next epoch: the previous snapshot with ``result`` applied.

        Only the maps of relations with a non-empty IDB delta are
        copied, and in them only the buckets a delta row touches are
        rebuilt; everything else is the previous snapshot's object.
        """
        previous = self._snapshot
        buckets = previous.buckets
        changed = result.idb_added.keys() | result.idb_removed.keys()
        if changed:
            buckets = dict(buckets)
            for predicate in changed:
                added = result.idb_added.get(predicate, _NO_ROWS)
                removed = result.idb_removed.get(predicate, _NO_ROWS)
                # A copy: a reader may add a signature meanwhile.
                maps = list(buckets[predicate].items())
                buckets[predicate] = {
                    positions: _carry_forward(old, positions, added, removed)
                    for positions, old in maps
                }
        edb = previous.edb
        if result.applied:
            edb = dict(edb)
            rows = edb[result.predicate]
            edb[result.predicate] = (
                rows | result.applied
                if result.kind == "insert"
                else rows - result.applied
            )
        return ViewSnapshot(self._epoch, previous.goal, buckets, edb)

    # -- reads (any task, against a pinned snapshot) -----------------------

    def check_bind(self, bind: Sequence[str | None] | None) -> None:
        """Validate a positional binding; raises ``ValueError``."""
        if bind is None:
            return
        arity = self.goal_arity
        if len(bind) != arity:
            raise ValueError(
                f"'bind' needs {arity} entries for "
                f"{self.goal}/{arity}, got {len(bind)}"
            )
        universe = self._structure.universe
        for entry in bind:
            if entry is not None and entry not in universe:
                raise ValueError(
                    f"'bind' node {entry!r} is not in the graph"
                )

    def query_view(
        self,
        snapshot: ViewSnapshot,
        bind: Sequence[str | None] | None = None,
    ) -> list[Row]:
        """Answer a goal binding with one lookup in a pinned snapshot."""
        self.check_bind(bind)
        positions = tuple(
            position
            for position, entry in enumerate(bind or ())
            if entry is not None
        )
        if not positions:
            return list(snapshot.goal_rows)
        if len(positions) == len(bind):
            row = tuple(bind)
            first = snapshot.bucket(self.goal, (0,), row[:1])
            return [row] if row in first else []
        key = tuple(bind[position] for position in positions)
        return list(snapshot.bucket(self.goal, positions, key))

    def query_magic(
        self,
        snapshot: ViewSnapshot,
        bind: Sequence[str | None] | None = None,
        engine: str = "indexed",
        budget: ResourceBudget | None = None,
    ) -> QueryResult:
        """Demand-driven evaluation of a bound goal on a pinned snapshot.

        Bound positions become fresh constants interpreted by an
        expanded structure (the magic rewrite sees ordinary constants);
        the evaluation reads the *snapshot's* EDB, so the answer is
        consistent with ``query_view`` at the same epoch.  A
        :class:`~repro.guard.BudgetExceeded` from a tripped tenant
        budget propagates to the caller.
        """
        self.check_bind(bind)
        if engine not in QUERY_ENGINES:
            raise ValueError(
                f"unknown engine {engine!r} "
                f"(choose from {', '.join(QUERY_ENGINES)})"
            )
        assignment: dict[str, str] = {}
        terms = []
        for position in range(self.goal_arity):
            entry = None if bind is None else bind[position]
            if entry is None:
                terms.append(Variable(f"x{position + 1}"))
            else:
                name = f"__g{position + 1}"
                assignment[name] = entry
                terms.append(Constant(name))
        structure = (
            self._structure.with_constants(assignment)
            if assignment
            else self._structure
        )
        return _query(
            self._program,
            structure,
            Atom(self.goal, terms),
            extra_edb=snapshot.edb,
            engine=engine,
            magic=True,
            budget=budget,
        )

    # -- durability --------------------------------------------------------

    def checkpoint(self, path: str) -> MaintenanceCheckpoint:
        """Durably record the current epoch (atomic write-then-rename)."""
        ckpt = MaintenanceCheckpoint(
            program_fingerprint=self._program_fp,
            goal=self._program.goal,
            edb=self._snapshot.edb,
            updates_applied=self._epoch,
        )
        ckpt.save(path)
        return ckpt

    @classmethod
    def resume(
        cls, program: Program, structure: Structure, path: str
    ) -> "LiveView":
        """Rebuild a view from a checkpoint: same EDB, same epoch.

        Raises :class:`~repro.guard.CheckpointMismatch` when the file
        is unreadable, truncated, or was taken for a different program.
        """
        ckpt = MaintenanceCheckpoint.load(path)
        ckpt.validate(program_fingerprint(program))
        return cls(
            program,
            structure,
            extra_edb=ckpt.edb,
            epoch=ckpt.updates_applied,
        )
