"""The ``repro serve`` asyncio server: many clients, one live view.

Architecture (one process, one event loop):

* **One writer task.**  Every ``insert``/``delete`` from every
  connection is enqueued as one :class:`_WriteJob` on a single
  ``asyncio.Queue``; the writer task is the *only* caller of
  :meth:`LiveView.apply`, so updates are totally ordered -- the order
  the writer dequeues them is the serial schedule the differential
  suite replays.  The :class:`IncrementalSession` single-writer lock
  stays as a backstop: if a second applier ever appears it raises
  instead of corrupting provenance.  A job's rows are applied
  *synchronously* (no awaits between rows), so a multi-row update is
  one atomic stretch of the serial schedule.
* **Write-ahead log (append-before-ack).**  With a
  :class:`~repro.serve.wal.WriteAheadLog` attached, the writer appends
  one record per applied row -- epoch-stamped, CRC-guarded, carrying
  the client's ``rid`` -- *before* the update's response is released.
  An acknowledged epoch is therefore always recoverable: checkpoint +
  WAL suffix (see :func:`repro.serve.wal.recover`).  At each
  checkpoint the log rotates (compaction); the ``wal_record`` and
  ``torn_wal`` fault sites fire on this path and are translated into a
  real ``SIGKILL`` for the crash drills.
* **Exactly-once updates.**  An update carrying a ``rid`` is deduped:
  a retry of a completed request is answered from the dedupe table
  (``deduped: true``) without touching the view; a retry racing the
  original (same ``rid`` still in flight) awaits the *same* writer
  future; a retry of a half-applied request (crash or error mid-rows)
  resumes at the first unlogged row.  The table is persisted in WAL
  headers and rebuilt by recovery, so the guarantee spans crashes.
* **Overload shedding.**  ``max_queue`` bounds the writer queue: an
  update arriving at a full queue is rejected with the structured
  ``overloaded`` error carrying ``retry_after_ms`` (scaled by the
  backlog) instead of growing the queue without bound.
* **Per-connection outbox + slow-subscriber eviction.**  Each
  connection owns an outbox queue drained by a sender task, so
  responses and push events never interleave mid-line.  ``max_outbox``
  bounds what a slow subscriber can pin: once its outbox is full, its
  deltas are *dropped* (not queued) and the next time it has room it
  gets one ``resync`` event with the predicate's full rows -- bounded
  memory, eventually-correct subscribers.
* **Snapshot reads.**  A query pins ``view.snapshot`` once and answers
  entirely from it; updates landing meanwhile bump the epoch but can
  never tear the answer.
* **Subscriptions + backfill.**  After each applied update the writer
  pushes one ``delta`` event per matching subscription and remembers
  the delta in a bounded history (``history`` epochs).  A resubscribe
  with ``from_epoch`` is backfilled from that history, or answered
  with a ``resync`` (reason ``"gap"``) when the gap outruns it.
* **Tenant budgets.**  ``budget_for(tenant)`` picks the
  :class:`~repro.guard.ResourceBudget` applied to evaluation-backed
  (magic) queries; a trip surfaces as the structured
  ``budget_exceeded`` error and the connection lives on.
* **Checkpoint cadence + kill drills.**  Every ``checkpoint_every``
  applied updates the writer durably checkpoints the view (atomic
  rename), probes the ``kill_server`` fault site, then rotates the
  WAL.  The kill sits *between* checkpoint and rotation on purpose:
  the armed drill exercises exactly the crash window recovery must
  tolerate (a WAL whose base is older than the checkpoint).

Evaluation work (initial fixpoint, maintenance, magic queries) runs
inline on the event loop: the server trades request-level parallelism
for the determinism the differential suite and the counters-mode bench
gate rely on.  Concurrency here means *interleaving* many clients'
requests, not computing two answers at once.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field

from repro._version import __version__
from repro.datalog.incremental import Update
from repro.guard import BudgetExceeded, MaintenanceAborted, ResourceBudget
from repro.obs import metrics as _metrics
from repro.obs.metrics import _quantile
from repro.testing import faults as _faults
from repro.testing.faults import InjectedFault

from repro.serve import protocol
from repro.serve.view import LiveView
from repro.serve.wal import DEDUPE_MAX, WalRecord, WriteAheadLog, merge_dedupe

#: Engines a server will evaluate magic queries with ("parallel" is
#: excluded on purpose: the server is a single process by design).
SERVE_ENGINES = ("indexed", "codegen", "seminaive", "naive", "algebra")

#: Per-queued-job component of the ``retry_after_ms`` overload hint.
RETRY_AFTER_UNIT_MS = 25


@dataclass
class ServeStats:
    """Mutable per-server counters and latency histograms.

    ``observe(verb, seconds, tenant, magic)`` records one handled
    request; :meth:`summary` renders the ``stats`` response payload with
    nearest-rank p50/p95/p99 per verb (exact, deterministic -- the
    same quantile rule as :mod:`repro.obs.metrics`).  Magic reads, which
    evaluate where plain reads only look up, get their own latency series
    ``query_magic``; the ``serve.requests.*`` counters stay keyed by the
    wire verb.
    """

    started_at: float = field(default_factory=time.monotonic)
    latencies: dict[str, list[float]] = field(default_factory=dict)
    tenants: dict[str, int] = field(default_factory=dict)
    connections_total: int = 0
    checkpoints_written: int = 0
    budget_trips: int = 0
    errors: int = 0
    overloaded: int = 0
    deduped: int = 0
    subscribers_evicted: int = 0
    wal_records: int = 0

    def observe(
        self,
        verb: str,
        seconds: float,
        tenant: str | None,
        magic: bool = False,
    ) -> None:
        series = "query_magic" if magic else verb
        self.latencies.setdefault(series, []).append(seconds)
        if tenant is not None:
            self.tenants[tenant] = self.tenants.get(tenant, 0) + 1
        _metrics.metrics.inc(f"serve.requests.{verb}")

    def summary(self) -> dict:
        verbs = {}
        for verb in sorted(self.latencies):
            ordered = sorted(self.latencies[verb])
            verbs[verb] = {
                "count": len(ordered),
                "p50_ms": round(_quantile(ordered, 0.50) * 1000, 3),
                "p95_ms": round(_quantile(ordered, 0.95) * 1000, 3),
                "p99_ms": round(_quantile(ordered, 0.99) * 1000, 3),
            }
        return {
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "connections_total": self.connections_total,
            "checkpoints_written": self.checkpoints_written,
            "budget_trips": self.budget_trips,
            "errors": self.errors,
            "overloaded": self.overloaded,
            "deduped": self.deduped,
            "subscribers_evicted": self.subscribers_evicted,
            "wal_records": self.wal_records,
            "verbs": verbs,
            "tenants": dict(sorted(self.tenants.items())),
        }


class _Connection:
    """One client: reader state, outbox queue, subscriptions."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.outbox: asyncio.Queue = asyncio.Queue()
        self.subscriptions: set[str] = set()
        #: Predicates whose deltas were dropped while this subscriber's
        #: outbox was full; healed with one ``resync`` event.
        self.pending_resync: set[str] = set()
        self.closed = False

    def send(self, message: dict) -> None:
        if not self.closed:
            self.outbox.put_nowait(protocol.encode(message))


@dataclass
class _WriteJob:
    """One update request, queued whole for the writer task."""

    op: str
    predicate: str
    rows: list[tuple]
    rid: str | None
    future: asyncio.Future


class ReproServer:
    """The serve subsystem's engine room (CLI-independent, test-driven).

    Parameters
    ----------
    view:
        The shared :class:`LiveView` (fresh or resumed).
    host / port:
        Bind address; ``port=0`` asks the OS for a free port --
        :attr:`port` reports the bound one after :meth:`start`.
    engine:
        Evaluation engine for magic queries (one of
        :data:`SERVE_ENGINES`).
    default_budget / tenant_budgets:
        The :class:`~repro.guard.ResourceBudget` for unnamed tenants
        and per-tenant overrides (name -> budget).
    checkpoint_path / checkpoint_every:
        When both set, the writer checkpoints the view after every
        ``checkpoint_every`` applied updates (and probes the
        ``kill_server`` fault site right after each durable write).
    wal:
        An open :class:`~repro.serve.wal.WriteAheadLog`; when set the
        writer appends every applied row before acknowledging and
        rotates the log at each checkpoint.
    dedupe:
        The initial exactly-once table (from
        :func:`repro.serve.wal.recover`); rids in it are already
        applied and will not be re-applied.
    max_queue:
        Writer-queue bound; ``0`` disables shedding.  An update
        arriving at a full queue gets the ``overloaded`` error with a
        ``retry_after_ms`` hint instead of a queue slot.
    max_outbox:
        Per-subscriber outbox bound; ``0`` disables eviction.  A
        subscriber whose outbox is full has its deltas dropped and is
        healed later with one ``resync`` event.
    history:
        How many epochs of per-predicate deltas to keep for
        ``from_epoch`` resubscribe backfill.
    """

    def __init__(
        self,
        view: LiveView,
        host: str = "127.0.0.1",
        port: int = 0,
        engine: str = "indexed",
        default_budget: ResourceBudget | None = None,
        tenant_budgets: dict[str, ResourceBudget] | None = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 0,
        wal: WriteAheadLog | None = None,
        dedupe: dict | None = None,
        max_queue: int = 0,
        max_outbox: int = 0,
        history: int = 256,
    ) -> None:
        if engine not in SERVE_ENGINES:
            raise ValueError(
                f"unknown serve engine {engine!r} "
                f"(choose from {', '.join(SERVE_ENGINES)})"
            )
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if max_queue < 0 or max_outbox < 0 or history < 1:
            raise ValueError(
                "max_queue/max_outbox must be >= 0 and history >= 1"
            )
        self.view = view
        self.host = host
        self.port = port
        self.engine = engine
        self.default_budget = default_budget
        self.tenant_budgets = dict(tenant_budgets or {})
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.wal = wal
        self.max_queue = max_queue
        self.max_outbox = max_outbox
        self.stats = ServeStats()
        self._dedupe: dict[str, dict] = dict(dedupe or {})
        self._inflight: dict[str, asyncio.Future] = {}
        self._history: deque = deque(maxlen=history)
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._write_queue: asyncio.Queue = asyncio.Queue()
        self._writer_task: asyncio.Task | None = None
        self._writer_gate: asyncio.Event | None = None
        self._writer_holding = False
        self._stopping = asyncio.Event()

    @property
    def queue_depth(self) -> int:
        """Jobs awaiting the writer, counting one it has dequeued but
        not yet applied -- the admission-control metric."""
        return self._write_queue.qsize() + (1 if self._writer_holding else 0)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind, start the writer task, start accepting clients."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._writer_gate = asyncio.Event()
        self._writer_gate.set()
        self._writer_task = asyncio.create_task(self._writer_loop())

    async def serve_until_stopped(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`stop`) lands."""
        await self._stopping.wait()
        await self.stop()

    async def stop(self) -> None:
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
        if self.wal is not None:
            self.wal.close()
        for connection in list(self._connections):
            connection.closed = True
            try:
                connection.writer.close()
            except Exception:
                pass

    # -- test seams --------------------------------------------------------

    def pause_writer(self) -> None:
        """Hold the writer between jobs (deterministic overload tests)."""
        self._writer_gate.clear()

    def resume_writer(self) -> None:
        self._writer_gate.set()

    # -- the single writer -------------------------------------------------

    async def _writer_loop(self) -> None:
        """The only task that mutates the view.

        Dequeue order *is* the serial schedule: the epoch in each
        update response is this loop's sequence number for it.
        """
        while True:
            job = await self._write_queue.get()
            # A dequeued-but-unapplied job still occupies writer
            # capacity: _writer_holding keeps queue_depth honest while
            # the pause seam (or the gate) holds the job here.
            self._writer_holding = True
            try:
                await self._writer_gate.wait()
                if job.future.cancelled():
                    continue
                try:
                    self._apply_update_job(job)
                except InjectedFault as fault:
                    if fault.site in ("wal_record", "torn_wal"):
                        # The WAL crash drills: the record (or its torn
                        # prefix) is on disk, the ack is not out.  Die
                        # for real -- no atexit, no flushing -- so
                        # --resume proves recovery from the files alone.
                        os.kill(os.getpid(), signal.SIGKILL)
                    if not job.future.done():
                        job.future.set_result(("error", fault))
            finally:
                self._writer_holding = False

    def _apply_update_job(self, job: _WriteJob) -> None:
        """Apply one update request end to end (no awaits: atomic).

        Resumes a half-applied retried request at its first unlogged
        row; logs each applied row to the WAL before the job's future
        (the acknowledgement) is resolved.  ``wal_record``/``torn_wal``
        faults propagate to the writer loop, which SIGKILLs.
        """
        start = 0
        applied = 0
        epoch = self.view.epoch
        entry = self._dedupe.get(job.rid) if job.rid is not None else None
        if entry is not None:
            # A crash (or error) interrupted this request mid-rows:
            # the logged prefix is already applied, resume after it.
            start = entry["rows_done"]
            applied = entry["applied"]
            epoch = entry["epoch"]
        for index in range(start, len(job.rows)):
            row = job.rows[index]
            try:
                result, snapshot = self.view.apply(
                    Update(job.op, job.predicate, row)
                )
            except Exception as exc:
                # Surfaced per-request; rows before this one stay
                # applied (and logged), exactly like a crash here --
                # a retry with the same rid resumes at this row.
                job.future.set_result(("error", exc))
                return
            record = WalRecord(
                epoch=snapshot.epoch,
                op=job.op,
                predicate=job.predicate,
                row=row,
                rid=job.rid,
                row_index=index,
                rows_total=len(job.rows),
                applied=len(result.applied),
            )
            if self.wal is not None:
                self.wal.append(record)  # torn_wal raises through here
                self.stats.wal_records += 1
            if job.rid is not None:
                merge_dedupe(self._dedupe, record)
                self._trim_dedupe()
            if self.wal is not None:
                # The kill-at-every-WAL-record drill: record durable,
                # response not yet sent -- at most index acked rows.
                _faults.faults.hit("wal_record")
            applied += len(result.applied)
            epoch = snapshot.epoch
            self._push_deltas(result, snapshot)
            self._maybe_checkpoint()
        job.future.set_result(("ok", (len(job.rows), applied, epoch)))

    def _trim_dedupe(self) -> None:
        """Bound the exactly-once table: evict oldest completed first."""
        while len(self._dedupe) > DEDUPE_MAX:
            for rid, entry in self._dedupe.items():
                if entry["completed"]:
                    del self._dedupe[rid]
                    break
            else:
                del self._dedupe[next(iter(self._dedupe))]

    def _push_deltas(self, result, snapshot) -> None:
        """One ``delta`` event per matching subscription per epoch bump.

        Also records the epoch's deltas in the bounded backfill
        history, and enforces the slow-subscriber bound: a full outbox
        gets no delta (dropped, not queued) and a ``resync`` once it
        has drained.
        """
        self._history.append(
            (snapshot.epoch, result.idb_added, result.idb_removed)
        )
        for connection in list(self._connections):
            for predicate in sorted(connection.subscriptions):
                if (
                    self.max_outbox
                    and connection.outbox.qsize() >= self.max_outbox
                ):
                    if predicate not in connection.pending_resync:
                        connection.pending_resync.add(predicate)
                        self.stats.subscribers_evicted += 1
                        _metrics.metrics.inc("serve.subscribers_evicted")
                    continue
                if predicate in connection.pending_resync:
                    connection.pending_resync.discard(predicate)
                    connection.send(
                        protocol.resync_event(
                            snapshot.epoch,
                            predicate,
                            snapshot.relations.get(predicate, ()),
                            "evicted",
                        )
                    )
                    continue
                connection.send(
                    protocol.delta_event(
                        snapshot.epoch,
                        predicate,
                        result.idb_added.get(predicate, ()),
                        result.idb_removed.get(predicate, ()),
                    )
                )

    def _maybe_checkpoint(self) -> None:
        if not self.checkpoint_path or self.checkpoint_every <= 0:
            return
        if self.view.epoch % self.checkpoint_every != 0:
            return
        self.view.checkpoint(self.checkpoint_path)
        self.stats.checkpoints_written += 1
        _metrics.metrics.inc("serve.checkpoints_written")
        try:
            # The kill drill: an armed plan fires here, after the
            # rename made the checkpoint durable but *before* the WAL
            # rotates -- deliberately the nastiest crash window, where
            # the log's base is older than the checkpoint.  Translate
            # the injected fault into a real SIGKILL -- no atexit, no
            # flushing, the genuine article -- so the restart drill
            # proves --resume needs nothing but the on-disk files.
            _faults.faults.hit("kill_server")
        except InjectedFault:
            os.kill(os.getpid(), signal.SIGKILL)
        if self.wal is not None:
            self.wal.rotate(
                self.view.epoch, self.view.program_fp, self._dedupe
            )

    # -- per-connection plumbing -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer)
        self._connections.add(connection)
        self.stats.connections_total += 1
        sender = asyncio.create_task(self._sender_loop(connection))
        try:
            while not self._stopping.is_set():
                line = await reader.readline()
                if not line:
                    break
                await self._handle_line(connection, line)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            connection.closed = True
            self._connections.discard(connection)
            connection.outbox.put_nowait(None)  # sender sentinel
            try:
                await sender
            except asyncio.CancelledError:
                # Loop teardown cancelled the sender before it saw the
                # sentinel; the connection is going away either way.
                pass
            try:
                writer.close()
            except Exception:
                pass

    async def _sender_loop(self, connection: _Connection) -> None:
        """Drain the outbox: the single point that writes this socket."""
        writer = connection.writer
        while True:
            payload = await connection.outbox.get()
            if payload is None:
                break
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                connection.closed = True
                break

    # -- request dispatch --------------------------------------------------

    async def _handle_line(self, connection: _Connection, line: bytes) -> None:
        started = time.perf_counter()
        request_id = None
        tenant = None
        verb = "?"
        magic = False
        try:
            request = protocol.parse_request(line.decode("utf-8", "replace"))
            request_id = request["id"]
            tenant = request["tenant"]
            verb = request["op"]
            magic = request.get("magic", False)
            response = await self._dispatch(connection, request)
        except protocol.ProtocolError as exc:
            self.stats.errors += 1
            response = protocol.error_response(
                request_id, exc.code, str(exc), **exc.fields
            )
        except BudgetExceeded as exc:
            self.stats.budget_trips += 1
            response = protocol.error_response(
                request_id,
                "budget_exceeded",
                f"query exceeded its tenant budget: {exc.reason} "
                f"(limit {exc.limit}, spent {exc.spent})",
            )
        except Exception as exc:  # keep serving: one bad request != one less client
            self.stats.errors += 1
            response = protocol.error_response(
                request_id, "internal", f"{type(exc).__name__}: {exc}"
            )
        self.stats.observe(
            verb, time.perf_counter() - started, tenant, magic
        )
        connection.send(response)

    async def _dispatch(self, connection: _Connection, request: dict) -> dict:
        op = request["op"]
        request_id = request["id"]
        if op == "ping":
            return protocol.ok_response(
                "ping", request_id, epoch=self.view.epoch
            )
        if op == "query":
            return self._handle_query(request)
        if op in ("insert", "delete"):
            return await self._handle_update(request)
        if op == "subscribe":
            return self._handle_subscribe(connection, request)
        if op == "unsubscribe":
            connection.subscriptions.clear()
            connection.pending_resync.clear()
            return protocol.ok_response("unsubscribe", request_id)
        if op == "stats":
            return protocol.ok_response(
                "stats",
                request_id,
                version=__version__,
                protocol=protocol.PROTOCOL_VERSION,
                goal=self.view.goal,
                engine=self.engine,
                epoch=self.view.epoch,
                clients=len(self._connections),
                subscriptions=sum(
                    len(c.subscriptions) for c in self._connections
                ),
                **self.stats.summary(),
            )
        if op == "health":
            payload = {
                "epoch": self.view.epoch,
                "queue_depth": self.queue_depth,
                "queue_capacity": self.max_queue,
                "clients": len(self._connections),
                "dedupe_entries": len(self._dedupe),
            }
            if self.wal is not None:
                payload["wal"] = self.wal.info()
            return protocol.ok_response("health", request_id, **payload)
        if op == "shutdown":
            self._stopping.set()
            return protocol.ok_response("shutdown", request_id)
        raise protocol.ProtocolError("unknown_op", f"unknown op {op!r}")

    def budget_for(self, tenant: str | None) -> ResourceBudget | None:
        if tenant is not None and tenant in self.tenant_budgets:
            return self.tenant_budgets[tenant]
        return self.default_budget

    def _handle_query(self, request: dict) -> dict:
        snapshot = self.view.snapshot  # pinned: updates cannot tear this
        bind = request["bind"]
        try:
            if request["magic"]:
                result = self.view.query_magic(
                    snapshot,
                    bind,
                    engine=self.engine,
                    budget=self.budget_for(request["tenant"]),
                )
                rows = result.answers
            else:
                rows = self.view.query_view(snapshot, bind)
        except ValueError as exc:
            raise protocol.ProtocolError("bad_request", str(exc)) from None
        return protocol.ok_response(
            "query",
            request["id"],
            epoch=snapshot.epoch,
            goal=snapshot.goal,
            magic=request["magic"],
            rows=protocol.rows_payload(rows),
        )

    def _handle_subscribe(self, connection: _Connection, request: dict) -> dict:
        request_id = request["id"]
        predicate = request["predicate"] or self.view.goal
        if predicate not in self.view.program.idb_predicates:
            raise protocol.ProtocolError(
                "bad_request",
                f"{predicate!r} is not an IDB predicate; "
                "subscriptions cover derived relations",
            )
        connection.subscriptions.add(predicate)
        epoch = self.view.epoch
        from_epoch = request.get("from_epoch")
        backfilled = 0
        if from_epoch is not None and from_epoch < epoch:
            backfilled = self._backfill(connection, predicate, from_epoch)
        return protocol.ok_response(
            "subscribe",
            request_id,
            predicate=predicate,
            epoch=epoch,
            backfilled=backfilled,
        )

    def _backfill(
        self, connection: _Connection, predicate: str, from_epoch: int
    ) -> int:
        """Replay missed deltas into the outbox, or resync past a gap.

        Returns the number of delta events queued (0 when the gap
        outran the history and one ``resync`` was queued instead).
        """
        history = list(self._history)
        if not history or history[0][0] > from_epoch + 1:
            # The subscriber's last epoch fell off the bounded delta
            # history: delta continuity is unrecoverable, hand over
            # the full rows instead.
            snapshot = self.view.snapshot
            connection.send(
                protocol.resync_event(
                    snapshot.epoch,
                    predicate,
                    snapshot.relations.get(predicate, ()),
                    "gap",
                )
            )
            return 0
        queued = 0
        for epoch, added, removed in history:
            if epoch <= from_epoch:
                continue
            connection.send(
                protocol.delta_event(
                    epoch,
                    predicate,
                    added.get(predicate, ()),
                    removed.get(predicate, ()),
                )
            )
            queued += 1
        return queued

    async def _handle_update(self, request: dict) -> dict:
        op = request["op"]
        predicate = request["predicate"]
        rid = request.get("rid")
        deduped = False
        if rid is not None:
            entry = self._dedupe.get(rid)
            if entry is not None and entry["completed"]:
                # Exactly-once fast path: the request (possibly from a
                # previous server life -- the table survives crashes in
                # WAL headers) already fully applied.
                self.stats.deduped += 1
                _metrics.metrics.inc("serve.deduped")
                return protocol.ok_response(
                    entry["op"],
                    request["id"],
                    predicate=entry["predicate"],
                    requested=entry["requested"],
                    applied=entry["applied"],
                    epoch=entry["epoch"],
                    deduped=True,
                )
            if rid in self._inflight:
                # A retry racing its original (reconnect before the
                # first ack): share the original's writer future so
                # the rows are applied once, answered twice.
                self.stats.deduped += 1
                _metrics.metrics.inc("serve.deduped")
                future = self._inflight[rid]
                deduped = True
            else:
                future = self._enqueue_update(op, predicate, request, rid)
        else:
            future = self._enqueue_update(op, predicate, request, rid)
        status, payload = await future
        if status == "error":
            exc = payload
            if isinstance(exc, MaintenanceAborted):
                raise protocol.ProtocolError(
                    "maintenance_aborted",
                    f"update rolled back: {exc.reason} "
                    f"(limit {exc.limit})",
                )
            if isinstance(exc, ValueError):
                raise protocol.ProtocolError(
                    "bad_request", str(exc)
                ) from None
            raise exc
        requested, applied, epoch = payload
        response = protocol.ok_response(
            op,
            request["id"],
            predicate=predicate,
            requested=requested,
            applied=applied,
            epoch=epoch,
        )
        if deduped:
            response["deduped"] = True
        return response

    def _enqueue_update(
        self, op: str, predicate: str, request: dict, rid: str | None
    ) -> asyncio.Future:
        """Admission control + enqueue: the overload shed point."""
        depth = self.queue_depth
        if self.max_queue and depth >= self.max_queue:
            self.stats.overloaded += 1
            _metrics.metrics.inc("serve.overloaded")
            retry_after_ms = RETRY_AFTER_UNIT_MS * (
                depth - self.max_queue + 1
            )
            raise protocol.ProtocolError(
                "overloaded",
                f"writer queue is full ({depth} jobs queued, capacity "
                f"{self.max_queue}); retry after {retry_after_ms} ms",
                retry_after_ms=retry_after_ms,
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        job = _WriteJob(op, predicate, list(request["rows"]), rid, future)
        if rid is not None:
            self._inflight[rid] = future
            future.add_done_callback(
                lambda _done, rid=rid: self._inflight.pop(rid, None)
            )
        self._write_queue.put_nowait(job)
        return future


async def run_server(server: ReproServer) -> None:
    """Start a server and run it until shutdown (the CLI's entry)."""
    await server.start()
    await server.serve_until_stopped()
