"""Run one workload of the benchmark and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload eval --seed 1 --seconds 20 --trace 0

A run times three set-ups of the workload, each in a fresh process
(``setup_s`` is the median), sets it up once more for itself, runs whole
rounds of its operations for ``--seconds`` against the real ``repro
serve`` process and the in-process ``evaluate``, and checks every
answer against the oracles in ``oracles.py``.  Six times in those
seconds, evenly spaced, it copies what a crash would leave on disk and
restarts ``repro serve --resume`` on the copy.  After the last round it
SIGKILLs the server and restarts it three times from copies of what the
crash left.  ``recover_s`` is the median of those nine restarts.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same operations inside spans, then replays them
in-process through the public call of each layer (see ``layers.py``),
reports the per-layer metrics and writes the spans to
``.perfbench/spans-<workload>-<seed>.jsonl``, which ``python -m
repro.cli profile --from FILE`` turns into a time table.  Before the
last line the run prints, per operation type, the operations attempted
and failed and the sample count behind each percentile.  The last line
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Exit status: 0 when every operation and check passed, 1 when any failed
(after printing the metrics), 2 on a usage error or when there is no
``src/repro`` to run.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext, suppress  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Timed set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Restarts per run: from crash images taken evenly through the timed
#: rounds, and from the state the final SIGKILL leaves.  ``recover_s``
#: is their median.  A host that runs faster or slower for seconds at a
#: time moves restarts made back to back together; spread through the
#: run, they sample it as the operations do.
CRASH_IMAGES = 6
FINAL_RESTARTS = 3

#: Seconds one timed set-up process may take.
SETUP_TIMEOUT = 150.0

OP_TYPES = ("pass", "read", "magic", "insert", "delete", "recover")


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (the rule ``repro.obs.metrics`` uses)."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


class Tally:
    """Per operation type: attempted, failed, and the latency of every
    attempt (a failed run is rejected whatever its figures, but still
    prints them)."""

    def __init__(self) -> None:
        self.attempted = dict.fromkeys(OP_TYPES, 0)
        self.failed = dict.fromkeys(OP_TYPES, 0)
        self.seconds: dict[str, list[float]] = {t: [] for t in OP_TYPES}
        self.problems: list[str] = []

    def record(self, kind: str, seconds: float, problem: str | None) -> None:
        self.attempted[kind] += 1
        self.seconds[kind].append(seconds)
        if problem is not None:
            self.failed[kind] += 1
            if len(self.problems) < 20:
                self.problems.append(f"{kind}: {problem}")

    def p50_ms(self, kind: str) -> float:
        return statistics.median(self.seconds[kind]) * 1000.0

    def report(self) -> list[str]:
        """One line per type; a quantile below its sample floor (ten
        samples beyond it) is marked with ``*``."""
        lines = []
        for kind in OP_TYPES:
            samples = self.seconds[kind]
            line = (
                f"op {kind:7s} attempted {self.attempted[kind]:6d}  "
                f"failed {self.failed[kind]:4d}  samples {len(samples):6d}"
            )
            if samples:
                for q, floor in ((0.5, 1), (0.9, 100), (0.99, 1000)):
                    mark = "" if len(samples) >= floor else "*"
                    line += (
                        f"  p{round(q * 100)}{mark} "
                        f"{quantile(samples, q) * 1000:.3f} ms"
                    )
            lines.append(line)
        return lines


class Batch:
    """The paper's three programs on their graphs, for in-process passes."""

    def __init__(self, inputs) -> None:
        from repro.datalog.library import (
            avoiding_path_program, q_program, transitive_closure_program,
        )
        from repro.graphs.digraph import DiGraph

        def structure(edges):
            nodes = sorted({x for edge in edges for x in edge}, key=int)
            return DiGraph(nodes, edges).to_structure()

        self.jobs = {
            "tc": (transitive_closure_program(), structure(inputs.tc_edges)),
            "ap": (avoiding_path_program(), structure(inputs.ap_edges)),
            "q21": (q_program(2, 1), structure(inputs.q_edges)),
        }

    def run(self) -> dict:
        """One pass: ``evaluate`` with the engine used when none is named."""
        from repro.datalog.evaluation import evaluate

        return {
            name: evaluate(program, structure).goal_relation
            for name, (program, structure) in self.jobs.items()
        }


class Session:
    """One set-up: inputs loaded, server booted, client subscribed, warm.

    The warm-up answers are checked afterwards, outside any timed
    interval, by :meth:`check_warmup`, which then lets them go so that
    the benchmark's own data stays small beside the program's.
    """

    def __init__(self, workload, seed: int, workdir: Path) -> None:
        from perfbench.inputs import graph_file_text, make_inputs
        from perfbench.server import ServerProcess
        from repro.serve.client import ServeClient

        self.workload = workload
        self.inputs = make_inputs(workload, seed)
        self.batch = Batch(self.inputs)
        self.graph = workdir / "serve.graph"
        self.graph.write_text(
            graph_file_text(self.inputs.serve_edges, self.inputs.serve_nodes)
        )
        state = workdir / "state"
        state.mkdir()
        self.server = ServerProcess(
            str(ROOT), str(self.graph), str(state), workload.checkpoint_every,
            workload.fsync,
        )
        try:
            self.client = ServeClient(self.server.host, self.server.port)
            self.client.subscribe()
            self.rows = self.client.query()["rows"]
            x = self.inputs.serve_nodes[0]
            self.warm_reads = [
                (x, self.client.query(bind=[x, None])["rows"]),
                (x, self.client.query(bind=[x, None], magic=True)["rows"]),
            ]
            self.warm_pass = self.batch.run()
        except BaseException:
            self.server.kill()
            raise
        self.epoch = 0
        self.delta_epoch = 0

    def check_warmup(self, passes, served) -> list[str]:
        problems = []
        for label, problem in (
            ["full read at subscribe", served.check_full(self.rows)],
            ["warm-up pass", passes.check(self.warm_pass)],
            *[
                [f"warm-up read {x}", served.check_read(x, rows)]
                for x, rows in self.warm_reads
            ],
        ):
            if problem:
                problems.append(f"{label}: {problem}")
        self.view = {tuple(row) for row in self.rows}
        del self.rows, self.warm_reads, self.warm_pass
        return problems

    def fold_events(self) -> str | None:
        """Fold buffered delta events into the client-side copy."""
        problem = None
        for event in self.client.events:
            if event.get("event") != "delta":
                problem = problem or f"unexpected event {event.get('event')}"
                continue
            if event["epoch"] != self.delta_epoch + 1:
                problem = problem or (
                    f"delta for epoch {event['epoch']} after "
                    f"{self.delta_epoch}"
                )
            self.delta_epoch = event["epoch"]
            self.view.difference_update(tuple(r) for r in event["removed"])
            self.view.update(tuple(r) for r in event["added"])
        self.client.events.clear()
        return problem

    def close(self) -> None:
        try:
            self.client.shutdown()
            self.client.close()
            self.server.wait()
        finally:
            self.server.kill()


def scratch_dir() -> Path:
    """This process's scratch directory, removed by the caller."""
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


def setup_only(workload_name: str, seed: int) -> int:
    """Set the workload up once, print the seconds from this process's
    start to the end of the warm-up, and shut down.

    Its answers are not checked here: they are the same as those of the
    checked set-up the run makes for itself, from the same seed.
    """
    from perfbench.inputs import WORKLOADS

    workdir = scratch_dir()
    try:
        session = Session(WORKLOADS[workload_name], seed, workdir)
        seconds = time.perf_counter() - PROCESS_START
        session.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": seconds}))
    return 0


def time_setups(workload_name: str, seed: int) -> list[float]:
    """Run :func:`setup_only` ``SETUPS`` times, one process after another.

    Each set-up runs in a fresh process so that every one of them
    carries the imports and starts from the same state.
    """
    seconds = []
    for __ in range(SETUPS):
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload_name, "--seed", str(seed),
             "--seconds", "0", "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, __ = proc.communicate(timeout=SETUP_TIMEOUT)
        except BaseException:
            # The group holds the set-up's server too.
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(
                f"set-up process exited {proc.returncode}: {out!r}"
            )
        seconds.append(json.loads(lines[-1])["setup_s"])
    return seconds


def run_op(session, op, passes, served, tracer):
    """Issue one operation; returns ``(kind, seconds, problem)``.

    Only the call into the program is timed; its check is not.
    """
    from repro.serve.client import ServeError

    kind = op[0]
    client = session.client
    span = tracer.span(f"op.{kind}") if tracer is not None else nullcontext()
    with span:
        started = time.perf_counter()
        try:
            if kind == "pass":
                answer = session.batch.run()
            elif kind in ("read", "magic"):
                answer = client.query(bind=[op[1], None],
                                      magic=kind == "magic")
            elif kind == "insert":
                answer = client.insert("E", [op[1], op[2]])
            else:
                answer = client.delete("E", [op[1], op[2]])
            error = None
        except ServeError as exc:
            error = f"{exc.code}: {exc}"
        seconds = time.perf_counter() - started
    if error is not None:
        return kind, seconds, error
    if kind == "pass":
        return kind, seconds, passes.check(answer)
    if kind in ("read", "magic"):
        if answer["epoch"] != session.epoch:
            return kind, seconds, (
                f"answered at epoch {answer['epoch']}, expected "
                f"{session.epoch}"
            )
        return kind, seconds, served.check_read(op[1], answer["rows"])
    served.apply(kind, op[1], op[2])
    session.epoch += 1
    problem = session.fold_events()
    if answer["applied"] != 1 or answer["epoch"] != session.epoch:
        problem = (
            f"applied {answer['applied']} at epoch {answer['epoch']}, "
            f"expected 1 at {session.epoch}"
        )
    return kind, seconds, problem


def crash_image(session, served, target: Path):
    """Copy what a SIGKILL of the server at this instant would leave.

    Called between operations, after an update was acknowledged: the
    server flushes the update's WAL record, and writes and rotates any
    checkpoint, before it acknowledges, and touches no file while idle.
    Returns the arguments :func:`restart` takes after ``session``.
    """
    from perfbench.oracles import ServedOracle

    target.mkdir()
    for path in (session.server.checkpoint, session.server.wal):
        shutil.copy2(path, target)
    return target, session.epoch, ServedOracle(served.edges, served.nodes)


def restart(session, state: Path, acked: int, served, servers: list):
    """Restart ``repro serve --resume`` on the crash state in ``state``,
    check what came back, shut it down and remove ``state``.

    Returns ``(seconds, problem)``.  The server is added to ``servers``
    so that it is stopped even if a check raises.
    """
    from perfbench.server import ServerProcess
    from repro.serve.client import ServeClient

    server = ServerProcess(
        str(ROOT), str(session.graph), str(state),
        session.workload.checkpoint_every, session.workload.fsync,
        resume=True,
    )
    servers.append(server)
    seconds = server.ready - server.started
    client = ServeClient(server.host, server.port)
    try:
        epoch = client.ping()["epoch"]
        if epoch != acked:
            problem = f"recovered epoch {epoch}, last acknowledged {acked}"
        else:
            problem = served.check_full(client.query()["rows"])
        client.shutdown()
    finally:
        client.close()
    server.wait()
    shutil.rmtree(state, ignore_errors=True)
    return seconds, problem


def wal_counter_demo(session, crash: Path, workdir: Path, served,
                     servers: list) -> list[str]:
    """Count WAL records and checkpoints from the files themselves and
    print them beside the server's own ``serve.wal.*`` counters."""
    from perfbench.server import ServerProcess
    from repro.guard import MaintenanceCheckpoint
    from repro.serve.client import ServeClient
    from repro.serve.wal import scan_wal

    candidates = sorted(
        (u, v) for u in served.nodes for v in served.nodes
        if u != v and (u, v) not in served.edges
    )
    updates = [("insert", *candidates[0]), ("delete", *candidates[0]),
               ("insert", *candidates[1]), ("delete", *candidates[1])]
    lines = []
    for every in (0, 1):
        target = workdir / f"wal-demo-{every}"
        stats_json = workdir / f"wal-demo-{every}.json"
        shutil.copytree(crash, target)
        server = ServerProcess(
            str(ROOT), str(session.graph), str(target), every,
            session.workload.fsync, resume=True, stats_json=str(stats_json),
        )
        servers.append(server)
        client = ServeClient(server.host, server.port)
        checkpoints = 0
        last_ckpt = MaintenanceCheckpoint.load(server.checkpoint).updates_applied
        for op, u, v in updates:
            getattr(client, op)("E", [u, v])
            ckpt = MaintenanceCheckpoint.load(server.checkpoint).updates_applied
            checkpoints += ckpt != last_ckpt
            last_ckpt = ckpt
        records = len(scan_wal(server.wal).records)
        client.shutdown()
        client.close()
        server.wait()
        counters = json.loads(stats_json.read_text())["counters"]
        lines.append(
            f"wal counts (--checkpoint-every {every}, {len(updates)} "
            f"updates): records in the log {records}, checkpoints written "
            f"{checkpoints}; counters serve.wal.appends "
            f"{counters.get('serve.wal.appends', 0)}, serve.wal.rotations "
            f"{counters.get('serve.wal.rotations', 0)}, "
            f"serve.checkpoints_written "
            f"{counters.get('serve.checkpoints_written', 0)}"
        )
    return lines


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import layers
    from perfbench.inputs import WORKLOADS, closing_edge, rounds
    from perfbench.oracles import PassOracle, ServedOracle, self_test
    from repro.obs.trace import SpanTracer

    workload = WORKLOADS[workload_name]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_seconds = time_setups(workload_name, seed)
    workdir = scratch_dir()
    tally = Tally()
    checks: list[str] = []
    session = None
    servers = []
    try:
        session = Session(workload, seed, workdir)
        passes = PassOracle(session.inputs)
        served = ServedOracle(
            session.inputs.serve_edges, session.inputs.serve_nodes
        )
        checks += session.check_warmup(passes, served)
        tracer = SpanTracer() if trace else None

        # The oracle sets are the benchmark's, not the program's: keep the
        # cyclic collector from traversing them during in-process passes
        # (``repro run`` holds no such sets).
        gc.freeze()
        fsyncs_before = session.client.health()["wal"]["fsyncs"]
        cpu_before = session.server.cpu_seconds()
        generator = rounds(workload, session.inputs, seed)
        replay: list[tuple] = []
        image_spacing = seconds / CRASH_IMAGES
        images = 0
        phase_started = time.perf_counter()
        rounds_done = 0
        while True:
            ops = next(generator)
            # The k-th image is due halfway through the k-th of
            # CRASH_IMAGES equal slices of the run.  It is taken after
            # the round's first insert, when the log holds one record
            # beyond the checkpoint, as after the final crash, and the
            # restart waits for the round's end.
            image_due = (
                time.perf_counter() - phase_started
                >= (images + 0.5) * image_spacing
            )
            image = None
            for op in ops:
                tally.record(*run_op(session, op, passes, served, tracer))
                if image_due and image is None and op[0] == "insert":
                    image = crash_image(
                        session, served, workdir / f"image-{images}"
                    )
            if image is not None:
                tally.record("recover", *restart(session, *image, servers))
                images += 1
            replay.extend(ops)
            rounds_done += 1
            if time.perf_counter() - phase_started >= seconds:
                break
        phase_seconds = time.perf_counter() - phase_started
        closing = ("insert", *closing_edge(workload, session.inputs, seed))
        tally.record(*run_op(session, closing, passes, served, tracer))
        requests = sum(1 for op in replay if op[0] != "pass") + 1
        updates = sum(1 for op in replay if op[0] in ("insert", "delete")) + 1
        server_side = {
            "cpu_ms_per_op": (
                (session.server.cpu_seconds() - cpu_before) * 1000.0 / requests
            ),
            "fsyncs_per_100": (
                session.client.health()["wal"]["fsyncs"] - fsyncs_before
            ) * 100.0 / updates,
            "stats": session.client.stats() if trace else None,
        }
        # Read before the self-test below, whose wrong answers are the
        # benchmark's data, not the program's.
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if workload.name == "eval" else session.server.peak_rss_mb()
        )
        escapes = self_test(passes, served)
        checks += [f"self-test: {escape}" for escape in escapes]
        print(
            "self-test: every check rejected a dropped and an added tuple"
            if not escapes else
            f"self-test: {len(escapes)} wrong answers accepted"
        )
        problem = session.fold_events() or served.check_full(
            [list(row) for row in session.view]
        )
        if problem:
            checks.append(f"folded deltas: {problem}")
        session.client.close()
        session.server.kill()
        crash = workdir / "crash"
        crash.mkdir()
        for path in (session.server.checkpoint, session.server.wal):
            shutil.copy2(path, crash)

        for index in range(FINAL_RESTARTS):
            target = workdir / f"recover-{index}"
            shutil.copytree(crash, target)
            tally.record(
                "recover",
                *restart(session, target, session.epoch, served, servers),
            )

        demo_lines = (
            wal_counter_demo(session, crash, workdir, served, servers)
            if trace else []
        )

        ops_total = sum(tally.attempted[t] for t in OP_TYPES if t != "recover")
        busy = sum(sum(tally.seconds[t]) for t in OP_TYPES if t != "recover")
        seen = {
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": ops_total / busy,
            "eval_p50_ms": tally.p50_ms("pass"),
            "read_p50_ms": tally.p50_ms("read"),
            "read_p90_ms": quantile(tally.seconds["read"], 0.9) * 1000.0,
            "magic_p50_ms": tally.p50_ms("magic"),
            "insert_p50_ms": tally.p50_ms("insert"),
            "delete_p50_ms": tally.p50_ms("delete"),
            "recover_s": statistics.median(tally.seconds["recover"]),
        }
        print(
            f"perfbench: workload {workload.name}, seed {seed}, "
            f"{rounds_done} rounds in {phase_seconds:.1f} s, "
            f"set-ups {', '.join(f'{s:.3f}' for s in setup_seconds)} s"
        )
        for line in tally.report():
            print(line)
        for line in checks + tally.problems:
            print(f"FAILED {line}")
        if trace:
            print("end-to-end figures seen by this traced run "
                  "(tracing overhead = difference from an untraced run):")
            for name, value in seen.items():
                print(f"  {name} {value:.6g}")
            for line in demo_lines:
                print(line)
            metrics = layers.measure(
                session, replay, crash, workdir, seen, server_side,
                seconds, tracer,
            )
            spans = Path(".perfbench", f"spans-{workload.name}-{seed}.jsonl")
            count = tracer.write_jsonl(str(ROOT / spans))
            print(f"{count} spans in {spans}; time table: PYTHONPATH=src "
                  f"python -m repro.cli profile --from {spans}")
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics = seen
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        failed = sum(tally.failed.values())
        result = {
            "correct": not checks,
            "attempted": sum(tally.attempted.values()),
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }
        print(json.dumps(result))
        return 0 if result["correct"] and failed == 0 else 1
    finally:
        if session is not None:
            session.client.close()
            session.server.kill()
        for server in servers:
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up from this process's start and exit "
             "(the run starts one such process per timed set-up)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: error: {ROOT / 'src' / 'repro'} not found; run "
            "from the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})"
        )
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
