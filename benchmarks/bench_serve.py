"""E23 -- the serve subsystem: sustained load over one shared live view.

Regenerates: a :class:`~repro.serve.server.ReproServer` multiplexing
concurrent clients over one incrementally maintained view answers a
mixed query/update workload correctly and fast enough to be a service:

* **scripted row** (``serve-scripted``): one client replays a fixed
  script -- subscribe, interleaved inserts/deletes, view queries and
  magic queries -- against a seeded random graph.  The server-side
  work counters (``serve.requests.*``, ``incremental.*``,
  ``datalog.*``) are bit-deterministic for this row on any machine,
  so it is what the CI perf gate compares in counters mode against
  the checked-in ``baselines/BENCH_serve_quick.json``;
* **load rows** (``serve-load-cN``): N client threads hammer the
  server with a seeded mixed workload (70% view queries, 10% magic
  queries, 20% updates).  These rows report *sustained throughput* --
  queries/sec and the server's own per-verb p99 latency (from its
  ``stats`` histograms) in the row's ``analyze`` payload -- and
  deliberately carry **empty counters**: thread interleaving makes
  per-run work nondeterministic, and an empty counters dict compares
  as ratio 1.0 in the gate (wall-clock on shared CI is informational,
  never enforced).

E24 prices durability (``serve/wal.py``) on the same workloads:

* ``serve-wal-scripted``: the scripted row with a write-ahead log
  (``fsync=always``) and checkpoint-rotation enabled -- its counters
  (``serve.wal.appends``/``serve.wal.rotations`` on top of the E23
  set) are bit-deterministic and gated like the E23 anchor;
* ``serve-wal-recovery``: times :func:`repro.serve.wal.recover`
  (checkpoint load + WAL suffix replay) over the files the scripted
  run left behind -- the crash-restart cost, also counters-gated;
* ``serve-wal-load-{off,interval,always}``: the mixed load row with
  each fsync policy, reporting sustained qps next to the WAL-less
  baseline.  The **durability overhead bar**: in full mode the
  default ``interval`` policy must cost <= 15% of baseline qps
  (asserted; quick/CI runs on shared machines report it only).

Correctness is enforced on every row: after the workload drains, the
served view must equal a from-scratch evaluation of the final EDB
(the serial-equivalence property the differential suite pins, here
checked end-to-end under load).

Also runnable as a script (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_serve.py --quick --json out.json
"""

import asyncio
import json
import os
import random
import tempfile
import threading
import time

import pytest

from _harness import timed_row, write_rows
from repro.datalog.evaluation import evaluate
from repro.datalog.library import transitive_closure_program
from repro.graphs.generators import random_digraph
from repro.serve.client import ServeClient
from repro.serve.server import ReproServer
from repro.serve.view import LiveView
from repro.serve.wal import WriteAheadLog, recover

#: (nodes, edge probability) of the seeded workload graph.
FULL_GRAPH = (30, 0.12)
QUICK_GRAPH = (12, 0.2)

#: Load-generator shape: (clients, requests per client).
FULL_LOAD = [(2, 150), (6, 100)]
QUICK_LOAD = [(3, 40)]

SCRIPT_UPDATES = 12  # update count in the deterministic scripted row
WAL_CHECKPOINT_EVERY = 5  # two rotations + a replayable suffix of 2
WAL_OVERHEAD_BAR = 0.15  # interval-fsync qps cost vs no WAL (full mode)


class _ServerThread:
    """A server on its own event loop in a daemon thread (bench-local)."""

    def __init__(self, view: LiveView, **server_kwargs) -> None:
        self.server = ReproServer(view, port=0, **server_kwargs)
        self._ready = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("bench server did not start")

    def _run(self) -> None:
        async def main() -> None:
            await self.server.start()
            self._ready.set()
            await self.server.serve_until_stopped()

        try:
            self._loop.run_until_complete(main())
        finally:
            self._loop.close()

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        try:
            with ServeClient("127.0.0.1", self.port, timeout=10) as client:
                client.shutdown()
        except OSError:
            pass
        self._thread.join(timeout=30)


def _structure(nodes: int, p: float):
    return random_digraph(nodes, p, seed=23).to_structure()


def _universe(structure) -> list:
    return sorted(structure.universe)


def _verify_final_view(server: ReproServer, structure) -> None:
    """The served view equals a from-scratch evaluation (end-to-end)."""
    program = server.view.program
    expected = evaluate(
        program, structure, extra_edb=server.view.snapshot.edb
    )
    assert server.view.snapshot.goal_rows == frozenset(
        expected.relations[program.goal]
    ), "served view diverged from from-scratch evaluation"


def _scripted_workload(port: int, structure) -> int:
    """The deterministic script; returns the number of requests sent."""
    rng = random.Random(99)
    nodes = _universe(structure)
    requests = 0
    with ServeClient("127.0.0.1", port, timeout=60) as client:
        client.subscribe()
        requests += 1
        for index in range(SCRIPT_UPDATES):
            pair = [rng.choice(nodes), rng.choice(nodes)]
            if index % 3 == 2:
                client.delete("E", pair)
            else:
                client.insert("E", pair)
            client.drain_events(1)
            requests += 1
            client.query(bind=[rng.choice(nodes), None])
            requests += 1
            if index % 4 == 0:
                client.query(bind=[rng.choice(nodes), None], magic=True)
                requests += 1
        client.query()
        requests += 1
    return requests


def _load_workload(
    port: int, structure, clients: int, per_client: int
) -> dict:
    """Seeded mixed load from ``clients`` threads; returns the report."""
    nodes = _universe(structure)
    errors: list[BaseException] = []

    def one_client(cid: int) -> None:
        rng = random.Random(1000 + cid)
        try:
            with ServeClient("127.0.0.1", port, timeout=60) as client:
                for __ in range(per_client):
                    roll = rng.random()
                    if roll < 0.70:
                        client.query(bind=[rng.choice(nodes), None])
                    elif roll < 0.80:
                        client.query(
                            bind=[rng.choice(nodes), None], magic=True
                        )
                    elif roll < 0.90:
                        client.insert(
                            "E", [rng.choice(nodes), rng.choice(nodes)]
                        )
                    else:
                        client.delete(
                            "E", [rng.choice(nodes), rng.choice(nodes)]
                        )
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=one_client, args=(cid,))
        for cid in range(clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not errors, errors

    with ServeClient("127.0.0.1", port, timeout=60) as client:
        stats = client.stats()
    total = clients * per_client
    return {
        "requests": total,
        "wall_seconds": round(elapsed, 4),
        "qps": round(total / elapsed, 1),
        "p99_ms": {
            verb: summary["p99_ms"]
            for verb, summary in sorted(stats["verbs"].items())
            if verb in ("query", "query_magic", "insert", "delete")
        },
        "epoch": stats["epoch"],
    }


def _scripted_row(nodes: int, p: float) -> dict:
    """The deterministic counters row (the CI gate's anchor)."""
    structure = _structure(nodes, p)

    def run() -> None:
        view = LiveView(transitive_closure_program(), structure)
        harness = _ServerThread(view)
        try:
            _scripted_workload(harness.port, structure)
            _verify_final_view(harness.server, structure)
        finally:
            harness.stop()

    __, row = timed_row(
        "serve-scripted",
        run,
        engine="serve",
        params={"nodes": nodes, "p": p, "updates": SCRIPT_UPDATES},
    )
    return row


def _load_row(nodes: int, p: float, clients: int, per_client: int) -> dict:
    """One load-generator row: wall + qps/p99 report, empty counters."""
    structure = _structure(nodes, p)
    view = LiveView(transitive_closure_program(), structure)
    harness = _ServerThread(view)
    try:
        report = _load_workload(harness.port, structure, clients, per_client)
        _verify_final_view(harness.server, structure)
    finally:
        harness.stop()
    return {
        "name": f"serve-load-c{clients}",
        "params": {"nodes": nodes, "p": p, "per_client": per_client},
        "engine": "serve",
        "wall_ms": round(report["wall_seconds"] * 1000, 3),
        # Empty on purpose: interleaving makes load-row work counters
        # nondeterministic; the counters-mode gate treats {} as 1.0.
        "counters": {},
        "analyze": report,
    }


def _wal_scripted_row(nodes: int, p: float, workdir: str) -> dict:
    """E24 anchor: the deterministic script with durability fully on."""
    structure = _structure(nodes, p)
    ckpt = os.path.join(workdir, "wal-scripted.ckpt")
    wal_path = os.path.join(workdir, "wal-scripted.wal")

    def run() -> None:
        view = LiveView(transitive_closure_program(), structure)
        wal = WriteAheadLog.create(
            wal_path, 0, view.program_fp, fsync="always"
        )
        harness = _ServerThread(
            view, wal=wal, checkpoint_path=ckpt,
            checkpoint_every=WAL_CHECKPOINT_EVERY,
        )
        try:
            _scripted_workload(harness.port, structure)
            _verify_final_view(harness.server, structure)
        finally:
            harness.stop()

    __, row = timed_row(
        "serve-wal-scripted",
        run,
        engine="serve",
        params={
            "nodes": nodes, "p": p, "updates": SCRIPT_UPDATES,
            "fsync": "always",
            "checkpoint_every": WAL_CHECKPOINT_EVERY,
        },
    )
    return row


def _wal_recovery_row(nodes: int, p: float, workdir: str) -> dict:
    """E24 crash-restart cost: checkpoint load + WAL suffix replay."""
    structure = _structure(nodes, p)
    ckpt = os.path.join(workdir, "wal-recovery.ckpt")
    wal_path = os.path.join(workdir, "wal-recovery.wal")
    program = transitive_closure_program()

    # Untimed: produce the durable files a crashed server would leave
    # (last checkpoint at epoch 10, WAL suffix for epochs 11-12).
    view = LiveView(program, structure)
    wal = WriteAheadLog.create(wal_path, 0, view.program_fp, fsync="off")
    harness = _ServerThread(
        view, wal=wal, checkpoint_path=ckpt,
        checkpoint_every=WAL_CHECKPOINT_EVERY,
    )
    try:
        _scripted_workload(harness.port, structure)
    finally:
        harness.stop()

    reports: list = []

    def run() -> None:
        recovered, __, report = recover(program, structure, ckpt, wal_path)
        assert recovered.epoch == SCRIPT_UPDATES, "recovery lost epochs"
        reports.append(report)

    __, row = timed_row(
        "serve-wal-recovery",
        run,
        engine="serve",
        params={"nodes": nodes, "p": p, "updates": SCRIPT_UPDATES},
    )
    row["analyze"] = {
        "checkpoint_epoch": reports[-1].checkpoint_epoch,
        "replayed": reports[-1].replayed,
        "skipped": reports[-1].skipped,
    }
    return row


def _wal_load_row(
    nodes: int, p: float, clients: int, per_client: int,
    fsync: str, workdir: str,
) -> dict:
    """One fsync-policy pricing row: the mixed load with a WAL attached."""
    structure = _structure(nodes, p)
    ckpt = os.path.join(workdir, f"wal-load-{fsync}.ckpt")
    wal_path = os.path.join(workdir, f"wal-load-{fsync}.wal")
    view = LiveView(transitive_closure_program(), structure)
    wal = WriteAheadLog.create(wal_path, 0, view.program_fp, fsync=fsync)
    harness = _ServerThread(
        view, wal=wal, checkpoint_path=ckpt,
        checkpoint_every=WAL_CHECKPOINT_EVERY,
    )
    try:
        report = _load_workload(harness.port, structure, clients, per_client)
        _verify_final_view(harness.server, structure)
        report["wal"] = harness.server.wal.info()
    finally:
        harness.stop()
    return {
        "name": f"serve-wal-load-{fsync}",
        "params": {
            "nodes": nodes, "p": p, "clients": clients,
            "per_client": per_client, "fsync": fsync,
        },
        "engine": "serve",
        "wall_ms": round(report["wall_seconds"] * 1000, 3),
        # Empty like every load row: thread interleaving makes the
        # counters nondeterministic; {} compares as 1.0 in the gate.
        "counters": {},
        "analyze": report,
    }


# -- pytest entry points (pytest benchmarks/ --benchmark-only) -------------


def bench_serve_scripted(benchmark):
    """The deterministic scripted workload, timed end to end."""
    nodes, p = FULL_GRAPH
    structure = _structure(nodes, p)

    def run() -> None:
        view = LiveView(transitive_closure_program(), structure)
        harness = _ServerThread(view)
        try:
            _scripted_workload(harness.port, structure)
        finally:
            harness.stop()

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = "E23"
    benchmark.extra_info["updates"] = SCRIPT_UPDATES


def bench_serve_wal_scripted(benchmark):
    """The scripted workload with the write-ahead log fully on."""
    nodes, p = FULL_GRAPH
    with tempfile.TemporaryDirectory() as workdir:
        row = benchmark.pedantic(
            lambda: _wal_scripted_row(nodes, p, workdir),
            rounds=1, iterations=1,
        )
    benchmark.extra_info["experiment"] = "E24"
    benchmark.extra_info["counters"] = row["counters"]


@pytest.mark.parametrize("clients,per_client", FULL_LOAD)
def bench_serve_load(benchmark, clients, per_client):
    """Sustained mixed load: qps and per-verb p99 via the stats verb."""
    nodes, p = FULL_GRAPH
    structure = _structure(nodes, p)
    view = LiveView(transitive_closure_program(), structure)
    harness = _ServerThread(view)
    try:
        report = benchmark.pedantic(
            lambda: _load_workload(
                harness.port, structure, clients, per_client
            ),
            rounds=1,
            iterations=1,
        )
        _verify_final_view(harness.server, structure)
    finally:
        harness.stop()
    benchmark.extra_info["experiment"] = "E23"
    benchmark.extra_info["qps"] = report["qps"]
    benchmark.extra_info["p99_ms"] = report["p99_ms"]


def main(argv=None):
    """E23+E24 smoke: scripted, load, and WAL-pricing rows; prints the
    qps/p99 table (with durability overhead vs the WAL-less baseline)
    and, with ``--json PATH``, writes the versioned bench document the
    CI counters gate compares against its checked-in baseline."""
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller graph and load (CI smoke / baseline generation)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the rows as a BENCH document",
    )
    args = parser.parse_args(argv)

    nodes, p = QUICK_GRAPH if args.quick else FULL_GRAPH
    load_shape = QUICK_LOAD if args.quick else FULL_LOAD

    rows = [_scripted_row(nodes, p)]
    for clients, per_client in load_shape:
        rows.append(_load_row(nodes, p, clients, per_client))
    clients, per_client = load_shape[0]
    with tempfile.TemporaryDirectory() as workdir:
        rows.append(_wal_scripted_row(nodes, p, workdir))
        rows.append(_wal_recovery_row(nodes, p, workdir))
        for fsync in ("off", "interval", "always"):
            rows.append(
                _wal_load_row(nodes, p, clients, per_client, fsync, workdir)
            )

    baseline_qps = next(
        row["analyze"]["qps"]
        for row in rows
        if row["name"] == f"serve-load-c{clients}"
    )
    print(f"{'row':<24} {'wall_ms':>10} {'qps':>8}  p99 by verb")
    for row in rows:
        report = row.get("analyze") or {}
        qps = report.get("qps", "-")
        p99 = report.get("p99_ms", {})
        p99_text = (
            " ".join(f"{verb}={ms}ms" for verb, ms in p99.items()) or "-"
        )
        print(
            f"{row['name']:<24} {row['wall_ms']:>10.1f} {qps:>8}  {p99_text}"
        )
    print(
        f"serve-scripted counters: "
        f"{json.dumps(rows[0]['counters'], sort_keys=True)[:120]}..."
    )
    for row in rows:
        if not row["name"].startswith("serve-wal-load-"):
            continue
        overhead = 1 - row["analyze"]["qps"] / baseline_qps
        print(
            f"durability overhead [{row['params']['fsync']:<8}]: "
            f"{overhead:+.1%} of {baseline_qps} qps baseline"
        )
        if row["params"]["fsync"] == "interval" and not args.quick:
            # The E24 bar: default-policy durability costs <= 15% qps.
            assert overhead <= WAL_OVERHEAD_BAR, (
                f"interval-fsync WAL costs {overhead:.1%} qps "
                f"(bar: {WAL_OVERHEAD_BAR:.0%})"
            )

    if args.json:
        write_rows(args.json, rows, bench="serve")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
