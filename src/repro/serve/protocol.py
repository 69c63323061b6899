"""The ``repro serve`` wire protocol: newline-delimited JSON.

One request per line, one response per request, in order; push events
(subscription deltas) may be interleaved between responses but never
inside one.  Every message is a JSON object:

Requests
--------

``{"op": "ping"}``
    Liveness probe; the response carries the current view epoch.
``{"op": "query", "bind": [...], "magic": bool}``
    Answer the goal relation under a binding.  ``bind`` has one entry
    per goal argument -- a node label (a string or integer, bound) or
    ``null`` / ``"_"`` (free) -- and may be omitted for the all-free
    query.  With
    ``magic: false`` (default) the answer is one bucket lookup in the
    live materialized view; with ``magic: true`` the magic-sets rewrite is
    evaluated against the pinned EDB snapshot, deriving only the facts
    the binding demands.  Either way the response reports the **epoch
    the answer was computed at** -- reads are snapshot-consistent.
``{"op": "insert"|"delete", "predicate": P, "rows": [[...], ...]}``
    An EDB update (``"row": [...]`` is accepted for a single row).
    Updates from every client are serialised through the server's one
    writer task; each applied update bumps the view epoch by one and
    the response reports the new epoch.  An update may carry a
    client-supplied ``"rid"`` (a non-empty request-id string): with a
    write-ahead log enabled the server dedupes on it, so a retried
    update -- across reconnects *and* across server crashes -- is
    applied exactly once; the deduplicated response carries
    ``"deduped": true``.
``{"op": "subscribe", "predicate": P?, "from_epoch": N?}`` /
``{"op": "unsubscribe"}``
    Register for delta push events on an IDB predicate (default: the
    goal).  After every epoch bump the server pushes one event per
    subscription (see below).  A resubscribing client passes
    ``from_epoch`` (the last epoch it saw): the server backfills the
    missed deltas from its bounded history, or -- if the gap outruns
    the history -- pushes one ``resync`` event carrying the full
    current rows instead.
``{"op": "stats"}``
    Server observability: version, epoch, uptime, client counts, and
    per-verb latency quantiles (p50/p95/p99); magic reads report under
    ``query_magic``, apart from plain ``query`` reads.
``{"op": "health"}``
    A cheap liveness/pressure probe: epoch, writer-queue depth and
    capacity, client count, and (when a WAL is enabled) the log's
    fsync mode and record counts.  Unlike ``stats`` it allocates
    nothing per verb and is safe to poll hot.
``{"op": "shutdown"}``
    Ask the server to stop cleanly (it responds first, then closes).

Every request may carry ``"id"`` (any JSON scalar, echoed verbatim in
the response) and ``"tenant"`` (a tenant name selecting the
:class:`~repro.guard.ResourceBudget` applied to evaluation-backed
queries).

Responses and events
--------------------

Success: ``{"ok": true, "op": ..., "id": ..., ...verb fields...}``.
Failure: ``{"ok": false, "id": ..., "error": {"code": ..., "message":
...}}`` -- the connection stays open; in particular a tripped tenant
budget is the structured code ``"budget_exceeded"``, not a dropped
connection, and a full writer queue is the structured code
``"overloaded"`` whose error object carries ``"retry_after_ms"`` (the
backoff hint :class:`~repro.serve.client.ResilientClient` honours).
Push events have no ``id``::

    {"event": "delta", "epoch": N, "predicate": P,
     "added": [[...], ...], "removed": [[...], ...]}

    {"event": "resync", "epoch": N, "predicate": P,
     "rows": [[...], ...], "reason": "gap"|"evicted"}

A ``resync`` event replaces the delta stream with the predicate's full
rows at ``epoch``: the server sends it when a resubscribe gap outruns
the delta history (``reason: "gap"``) or when a slow subscriber's
outbox overflowed and its queued deltas were dropped
(``reason: "evicted"``) -- either way the client swaps in the rows and
resumes delta-following from ``epoch``.

This module is pure data plumbing -- parsing, validation, and
serialisation -- shared by the server, the client, and the tests; it
imports nothing from the evaluation stack.
"""

from __future__ import annotations

import json
from typing import Mapping

#: Protocol revision, reported by ``stats``.  v2 added request ids on
#: updates (exactly-once dedupe), ``health``, ``from_epoch`` resubscribe
#: with ``resync`` events, and the ``overloaded`` error code.
PROTOCOL_VERSION = 2

#: Every request verb the server understands.
VERBS = (
    "ping",
    "query",
    "insert",
    "delete",
    "subscribe",
    "unsubscribe",
    "stats",
    "health",
    "shutdown",
)

#: Structured error codes a response may carry.
ERROR_CODES = (
    "parse_error",
    "bad_request",
    "unknown_op",
    "budget_exceeded",
    "maintenance_aborted",
    "overloaded",
    "shutting_down",
    "internal",
)


class ProtocolError(ValueError):
    """A malformed or invalid client message.

    ``code`` is one of :data:`ERROR_CODES`; the server turns the
    exception into a structured error response and keeps the
    connection open.  ``fields`` are extra key/values merged into the
    wire error object (e.g. ``retry_after_ms`` on ``overloaded``).
    """

    def __init__(self, code: str, message: str, **fields) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        self.code = code
        self.fields = fields
        super().__init__(message)


def encode(message: Mapping) -> bytes:
    """One protocol message as a JSON line (UTF-8, trailing newline)."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def _require_string(request: Mapping, field: str) -> str:
    value = request.get(field)
    if not isinstance(value, str) or not value:
        raise ProtocolError(
            "bad_request", f"{field!r} must be a non-empty string"
        )
    return value


def _normalize_rows(request: Mapping) -> list[tuple]:
    """The update rows of an insert/delete request, as tuples of strings."""
    if "row" in request and "rows" in request:
        raise ProtocolError(
            "bad_request", "give either 'row' or 'rows', not both"
        )
    if "row" in request:
        raw = [request["row"]]
    elif "rows" in request:
        raw = request["rows"]
    else:
        raise ProtocolError(
            "bad_request", "an update needs 'row' or 'rows'"
        )
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("bad_request", "'rows' must be a non-empty list")
    rows = []
    for entry in raw:
        if not isinstance(entry, list) or not all(
            isinstance(x, (str, int)) and not isinstance(x, bool)
            for x in entry
        ):
            raise ProtocolError(
                "bad_request",
                f"each row must be a list of node labels (strings or "
                f"integers), got {entry!r}",
            )
        rows.append(tuple(entry))
    return rows


def _normalize_bind(request: Mapping) -> list[str | None] | None:
    """The goal binding of a query: node names bound, ``None`` free."""
    if "bind" not in request or request["bind"] is None:
        return None
    raw = request["bind"]
    if not isinstance(raw, list):
        raise ProtocolError("bad_request", "'bind' must be a list")
    entries: list = []
    for entry in raw:
        if entry is None or entry == "_":
            entries.append(None)
        elif (
            isinstance(entry, (str, int))
            and not isinstance(entry, bool)
            and entry != ""
        ):
            entries.append(entry)
        else:
            raise ProtocolError(
                "bad_request",
                "each 'bind' entry must be a node label (string or "
                f"integer), '_' or null; got {entry!r}",
            )
    return entries


def parse_request(line: str) -> dict:
    """Parse and validate one request line into a normalised dict.

    The result always has ``op``, ``id`` (possibly ``None``), and
    ``tenant`` (possibly ``None``); verb payloads are normalised --
    ``rows`` as tuples, ``bind`` as a list with ``None`` for free
    positions, ``magic``/``predicate`` defaulted.  Raises
    :class:`ProtocolError` on anything malformed.
    """
    line = line.strip()
    if not line:
        raise ProtocolError("parse_error", "empty request line")
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("parse_error", f"invalid JSON: {exc}") from None
    if not isinstance(request, dict):
        raise ProtocolError(
            "parse_error", "a request must be a JSON object"
        )
    op = request.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad_request", "missing 'op' field")
    if op not in VERBS:
        raise ProtocolError(
            "unknown_op",
            f"unknown op {op!r} (choose from {', '.join(VERBS)})",
        )
    request_id = request.get("id")
    if request_id is not None and not isinstance(
        request_id, (str, int, float, bool)
    ):
        raise ProtocolError("bad_request", "'id' must be a JSON scalar")
    tenant = request.get("tenant")
    if tenant is not None and (not isinstance(tenant, str) or not tenant):
        raise ProtocolError(
            "bad_request", "'tenant' must be a non-empty string"
        )
    parsed: dict = {"op": op, "id": request_id, "tenant": tenant}
    if op == "query":
        magic = request.get("magic", False)
        if not isinstance(magic, bool):
            raise ProtocolError("bad_request", "'magic' must be a boolean")
        parsed["magic"] = magic
        parsed["bind"] = _normalize_bind(request)
    elif op in ("insert", "delete"):
        parsed["predicate"] = _require_string(request, "predicate")
        parsed["rows"] = _normalize_rows(request)
        rid = request.get("rid")
        if rid is not None and (not isinstance(rid, str) or not rid):
            raise ProtocolError(
                "bad_request", "'rid' must be a non-empty string"
            )
        parsed["rid"] = rid
    elif op == "subscribe":
        predicate = request.get("predicate")
        if predicate is not None:
            predicate = _require_string(request, "predicate")
        parsed["predicate"] = predicate
        from_epoch = request.get("from_epoch")
        if from_epoch is not None and (
            not isinstance(from_epoch, int)
            or isinstance(from_epoch, bool)
            or from_epoch < 0
        ):
            raise ProtocolError(
                "bad_request",
                "'from_epoch' must be a non-negative integer",
            )
        parsed["from_epoch"] = from_epoch
    return parsed


# ---------------------------------------------------------------------------
# Response / event constructors (the server's half of the contract).
# ---------------------------------------------------------------------------


def ok_response(op: str, request_id, **fields) -> dict:
    response = {"ok": True, "op": op, "id": request_id}
    response.update(fields)
    return response


def error_response(request_id, code: str, message: str, **fields) -> dict:
    if code not in ERROR_CODES:
        code = "internal"
    error = {"code": code, "message": message}
    error.update(fields)
    return {"ok": False, "id": request_id, "error": error}


def delta_event(
    epoch: int, predicate: str, added, removed
) -> dict:
    """The push message subscribers receive after an epoch bump."""
    return {
        "event": "delta",
        "epoch": epoch,
        "predicate": predicate,
        "added": sorted([list(row) for row in added]),
        "removed": sorted([list(row) for row in removed]),
    }


def resync_event(epoch: int, predicate: str, rows, reason: str) -> dict:
    """Full-rows replacement push: delta continuity was broken.

    ``reason`` is ``"gap"`` (a resubscribe's ``from_epoch`` fell off
    the server's delta history) or ``"evicted"`` (this subscriber's
    outbox overflowed and its queued deltas were dropped).  The client
    replaces its materialisation with ``rows`` (true at ``epoch``) and
    follows deltas from there.
    """
    return {
        "event": "resync",
        "epoch": epoch,
        "predicate": predicate,
        "rows": rows_payload(rows),
        "reason": reason,
    }


def rows_payload(rows) -> list[list]:
    """Answer rows in wire shape: sorted lists (deterministic order)."""
    return sorted([list(row) for row in rows])
