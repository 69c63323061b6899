"""``repro.serve``: a concurrent query/update service over live views.

The serve subsystem turns the incremental-maintenance machinery of
:mod:`repro.datalog.incremental` into a long-running server: many
clients multiplex over **one** shared materialised view, reads are
snapshot-consistent (pinned to an epoch), writes are serialised
through a single writer task, and the view is durable -- a periodic
fingerprinted checkpoint plus a write-ahead log that records every
applied update *before* it is acknowledged, so a killed server resumes
bit-identically at the last acknowledged epoch.

Layers
------

:mod:`repro.serve.protocol`
    The newline-delimited JSON wire contract (verbs, validation,
    structured errors, ``resync`` events) -- pure data plumbing.
:mod:`repro.serve.view`
    :class:`LiveView` / :class:`ViewSnapshot`: epochs, copy-on-write
    snapshots, pinned-snapshot query paths (bucket lookup vs
    magic-sets re-derivation), and
    checkpoint/resume built on
    :class:`~repro.guard.MaintenanceCheckpoint`.
:mod:`repro.serve.wal`
    :class:`WriteAheadLog` / :func:`recover`: CRC-framed epoch-stamped
    append-before-ack records, torn-tail truncation, rotation at each
    checkpoint, and exactly-once recovery via the WAL-persisted dedupe
    table.
:mod:`repro.serve.server`
    :class:`ReproServer`: the asyncio event loop -- writer task, WAL
    integration, overload shedding (``overloaded`` +
    ``retry_after_ms``), slow-subscriber eviction, delta backfill,
    per-tenant budgets, latency stats, and the ``kill_server`` /
    ``wal_record`` / ``torn_wal`` crash drills.
:mod:`repro.serve.client`
    :class:`ServeClient` (a blocking reference client raising
    structured :class:`ServeConnectionError` on transport failures)
    and :class:`ResilientClient` (reconnect, seeded backoff + jitter,
    a draining retry budget, exactly-once update replay, resubscribe
    with epoch-gap recovery).

Entry point: ``repro serve PROG GRAPH --port N [--wal PATH]`` (see
:mod:`repro.cli`).
"""

from repro.serve.client import (
    ResilientClient,
    RetryBudgetExhausted,
    ServeClient,
    ServeConnectionError,
    ServeError,
)
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.serve.server import SERVE_ENGINES, ReproServer, ServeStats, run_server
from repro.serve.view import LiveView, ViewSnapshot, filter_rows
from repro.serve.wal import (
    FSYNC_MODES,
    RecoveryReport,
    WalCorrupt,
    WalError,
    WalMismatch,
    WalRecord,
    WriteAheadLog,
    recover,
    scan_wal,
)

__all__ = [
    "FSYNC_MODES",
    "PROTOCOL_VERSION",
    "SERVE_ENGINES",
    "LiveView",
    "ProtocolError",
    "RecoveryReport",
    "ReproServer",
    "ResilientClient",
    "RetryBudgetExhausted",
    "ServeClient",
    "ServeConnectionError",
    "ServeError",
    "ServeStats",
    "ViewSnapshot",
    "WalCorrupt",
    "WalError",
    "WalMismatch",
    "WalRecord",
    "WriteAheadLog",
    "filter_rows",
    "recover",
    "scan_wal",
    "run_server",
]
