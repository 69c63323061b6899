"""Per-layer metrics for the traced run (``--trace 1``).

The traced run first issues its workload against the real server like
any run.  This module then replays the same operations (same seed, same
order) in-process, calling the public entry point of each layer and
timing each call from outside, as a span of the run's tracer:

* times are medians over the replayed calls of one kind;
* counts come from the program's own registry (``repro.obs.metrics``);
* the memory of a session build is a ``tracemalloc`` peak taken in a
  build of its own, because ``tracemalloc`` slows the build several-fold;
* server-side latencies come from one ``stats`` call after the timed
  phase (``stats`` sorts every latency it has kept, so it is called once).

Each replayed kind stops after ``budget_s / 4`` seconds, so a traced run
stays within a fixed multiple of ``--seconds``.  For every operation type
:func:`measure` prints the sum of its layer medians next to the
end-to-end median the traced run saw, and names what the remainder is.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import tracemalloc

#: Repetitions of the sub-millisecond calls (parse, plan, checkpoint) and
#: of the heavy ones (session builds, codegen passes, recoveries).
REPEATS = 5
HEAVY_REPEATS = 3


def _ms(values) -> float:
    return statistics.median(values) * 1000.0


def measure(session, replay, crash, workdir, seen, server_side, budget_s,
            tracer) -> dict:
    from repro.datalog.ast import Atom, Constant, Variable
    from repro.datalog.evaluation import evaluate, query
    from repro.datalog.incremental import IncrementalSession, Update
    from repro.datalog.magic import magic_rewrite
    from repro.datalog.parser import parse_program
    from repro.datalog.planner import plan_rule
    from repro.graphs.digraph import DiGraph
    from repro.guard import program_fingerprint
    from repro.obs import metrics as obs_metrics
    from repro.serve import protocol
    from repro.serve.view import LiveView
    from repro.serve.wal import WalRecord, WriteAheadLog, recover

    cap = budget_s / 4.0

    def call(name, fn, *args, **kwargs):
        with tracer.span(f"layer.{name}") as context:
            result = fn(*args, **kwargs)
        return result, context.span.duration

    def prefix(kind):
        """The replayed ops of one kind, until the kind's time cap."""
        started = time.perf_counter()
        for op in replay:
            if op[0] in kind:
                yield op
                if time.perf_counter() - started > cap:
                    return

    out: dict[str, float] = {}
    jobs = session.batch.jobs
    programs = {name: program for name, (program, __) in jobs.items()}

    # -- parser and planner ------------------------------------------------
    texts = {
        name: ("\n".join(str(rule) for rule in program.rules), program.goal)
        for name, program in programs.items()
    }
    parse = []
    for __ in range(REPEATS):
        parse.append(sum(
            call("datalog.parser.parse_program", parse_program, text, goal)[1]
            for text, goal in texts.values()
        ))
    out["datalog.parser.parse_ms"] = _ms(parse)
    plan = []
    for __ in range(REPEATS):
        total = 0.0
        for program in programs.values():
            for rule in program.rules:
                total += call("datalog.planner.plan_rule", plan_rule, rule)[1]
                for index in range(len(rule.body_atoms())):
                    total += call(
                        "datalog.planner.plan_rule", plan_rule, rule,
                        delta_atom_index=index,
                    )[1]
        plan.append(total)
    out["datalog.planner.plan_ms"] = _ms(plan)

    # -- evaluation, indexing, codegen -------------------------------------
    # Timed passes run with the registry off, as the untraced run does.
    # The counts come from one more pass with the registry on and
    # collect_profile=True: the plan engines count bindings and produced
    # tuples only on their profiling path.
    per_program = {name: [] for name in jobs}
    for __ in prefix(("pass",)):
        for name, (program, structure) in jobs.items():
            per_program[name].append(call(
                f"datalog.evaluation.evaluate.{name}", evaluate,
                program, structure,
            )[1])
    registry = obs_metrics.enable_metrics()
    try:
        for program, structure in jobs.values():
            evaluate(program, structure, collect_profile=True)
        counters = registry.snapshot()["counters"]
    finally:
        obs_metrics.disable_metrics()
    for name in jobs:
        out[f"datalog.evaluation.{name}_ms"] = _ms(per_program[name])
    out["datalog.evaluation.rounds"] = counters["datalog.rounds"]
    out["datalog.evaluation.bindings"] = counters[
        "datalog.bindings_enumerated"
    ]
    out["datalog.evaluation.new_per_produced"] = (
        counters["datalog.delta_tuples"] / counters["datalog.tuples_produced"]
    )
    out["datalog.indexing.probes"] = (
        counters.get("index.probes", 0) + counters.get("index.delta_probes", 0)
    )
    out["datalog.indexing.rows_indexed"] = counters["index.rows_indexed"]
    codegen = []
    for __ in range(HEAVY_REPEATS):
        started = time.perf_counter()
        for name, (program, structure) in jobs.items():
            call(f"datalog.codegen.evaluate.{name}", evaluate, program,
                 structure, method="codegen")
        codegen.append(time.perf_counter() - started)
    out["datalog.codegen.pass_ms"] = _ms(codegen)

    # -- incremental session build -----------------------------------------
    tc = programs["tc"]
    served = DiGraph(
        list(session.inputs.serve_nodes), list(session.inputs.serve_edges)
    ).to_structure()
    builds = [
        call("datalog.incremental.IncrementalSession", IncrementalSession,
             tc, served)[1]
        for __ in range(HEAVY_REPEATS)
    ]
    out["datalog.incremental.build_ms"] = _ms(builds)
    tracemalloc.start()
    try:
        IncrementalSession(tc, served)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out["datalog.incremental.build_mib"] = peak / 2**20

    # -- reads: protocol, view filter, magic -------------------------------
    view = LiveView(tc, served)
    snapshot = view.snapshot
    decode, scan, encode = [], [], []
    for number, (__, x) in enumerate(prefix(("read",))):
        line = json.dumps(
            {"op": "query", "id": number, "magic": False, "bind": [x, None]}
        )
        decode.append(call("serve.protocol.parse_request",
                           protocol.parse_request, line)[1])
        rows, seconds = call("serve.view.query_view", view.query_view,
                             snapshot, [x, None])
        scan.append(seconds)

        def wire(rows=rows, number=number):
            return protocol.encode(protocol.ok_response(
                "query", number, epoch=snapshot.epoch, goal=snapshot.goal,
                magic=False, rows=protocol.rows_payload(rows),
            ))

        encode.append(call("serve.protocol.encode", wire)[1])
    out["serve.view.query_view_ms"] = _ms(scan)
    out["serve.protocol.decode_ms"] = _ms(decode)
    out["serve.protocol.encode_ms"] = _ms(encode)

    rewrite, magic, magic_bindings = [], [], []
    goal = Atom(tc.goal, (Constant("__g1"), Variable("x2")))
    for __, x in prefix(("magic",)):
        rewrite.append(call("datalog.magic.magic_rewrite", magic_rewrite,
                            tc, goal)[1])
        magic.append(call("serve.view.query_magic", view.query_magic,
                          snapshot, [x, None])[1])
        registry = obs_metrics.enable_metrics()
        try:
            query(tc, served.with_constants({"__g1": x}), goal,
                  extra_edb=snapshot.edb, collect_profile=True)
            magic_bindings.append(
                registry.counter("datalog.bindings_enumerated")
            )
        finally:
            obs_metrics.disable_metrics()
    out["datalog.magic.rewrite_ms"] = _ms(rewrite)
    out["serve.view.query_magic_ms"] = _ms(magic)
    out["datalog.magic.bindings"] = statistics.median(magic_bindings)

    # -- updates: IVM, publish, delta push, WAL, checkpoint ----------------
    incremental = IncrementalSession(tc, served)
    wal_path = os.path.join(workdir, "replay.wal")
    wal = WriteAheadLog.create(wal_path, 0, program_fingerprint(tc),
                               fsync=session.workload.fsync)
    header_bytes = os.path.getsize(wal_path)
    apply = {"insert": [], "delete": []}
    touched = {"insert": [], "delete": []}
    update_decode, publish, delta, append = [], [], [], []
    overdeleted = removed = 0
    for epoch, (kind, u, v) in enumerate(prefix(("insert", "delete")), 1):
        line = json.dumps(
            {"op": kind, "id": epoch, "predicate": "E", "rows": [[u, v]]}
        )
        update_decode.append(call("serve.protocol.parse_request",
                                  protocol.parse_request, line)[1])
        result, seconds = call(
            f"datalog.incremental.apply.{kind}", incremental.apply,
            Update(kind, "E", (u, v)),
        )
        apply[kind].append(seconds)
        touched[kind].append(result.delta_tuples_touched)
        if kind == "delete":
            overdeleted += sum(len(s) for s in result.overdeleted.values())
            removed += sum(len(s) for s in result.idb_removed.values())
        publish.append(call(
            "serve.view.publish",
            lambda: (incremental.relations, incremental.current_extra_edb()),
        )[1])
        delta.append(call("serve.protocol.delta_event", lambda: protocol.encode(
            protocol.delta_event(
                epoch, tc.goal, result.idb_added.get(tc.goal, ()),
                result.idb_removed.get(tc.goal, ()),
            )
        ))[1])
        append.append(call(
            "serve.wal.append", wal.append,
            WalRecord(epoch=epoch, op=kind, predicate="E", row=(u, v),
                      applied=len(result.applied)),
        )[1])
    updates = len(append)
    wal.close()
    out["datalog.incremental.insert_ms"] = _ms(apply["insert"])
    out["datalog.incremental.delete_ms"] = _ms(apply["delete"])
    out["datalog.incremental.touched_per_insert"] = statistics.median(
        touched["insert"]
    )
    out["datalog.incremental.touched_per_delete"] = statistics.median(
        touched["delete"]
    )
    # DRed's wasted work; a run whose deletes removed nothing divides by 1.
    out["datalog.incremental.overdeleted_per_removed"] = (
        overdeleted / max(removed, 1)
    )
    out["serve.view.publish_ms"] = _ms(publish)
    out["serve.protocol.delta_ms"] = _ms(delta)
    out["serve.wal.append_ms"] = _ms(append)
    out["serve.wal.bytes_per_update"] = (
        (os.path.getsize(wal_path) - header_bytes) / updates
    )
    # Under the interval policy the fsync count depends on the time
    # between updates, so it is taken from the served run's own log
    # (``health``), not from the back-to-back replay.
    out["serve.wal.fsyncs_per_100"] = server_side["fsyncs_per_100"]
    checkpoint_path = os.path.join(workdir, "replay.ckpt")
    out["serve.view.checkpoint_ms"] = _ms([
        call("serve.view.checkpoint", view.checkpoint, checkpoint_path)[1]
        for __ in range(REPEATS)
    ])
    out["serve.wal.recover_ms"] = _ms([
        call("serve.wal.recover", recover, tc, served,
             os.path.join(crash, "view.ckpt"),
             os.path.join(crash, "view.wal"))[1]
        for __ in range(HEAVY_REPEATS)
    ])

    # -- server side, from the real run ------------------------------------
    verbs = server_side["stats"]["verbs"]
    out["serve.server.query_ms"] = verbs["query"]["p50_ms"]
    out["serve.server.insert_ms"] = verbs["insert"]["p50_ms"]
    out["serve.server.delete_ms"] = verbs["delete"]["p50_ms"]
    out["serve.client.transport_ms"] = (
        seen["read_p50_ms"] - out["serve.server.query_ms"]
    )
    out["serve.server.cpu_ms_per_op"] = server_side["cpu_ms_per_op"]

    for line in reconcile(out, seen, _ms(update_decode)):
        print(line)
    return out


def reconcile(out: dict, seen: dict, update_decode_ms: float) -> list[str]:
    """Sum of layer medians beside the end-to-end median, per op type."""

    def line(op, e2e, parts, rest, unit="ms", server=None):
        total = sum(value for __, value in parts)
        terms = " + ".join(f"{name} {value:.3f}" for name, value in parts)
        shown = f" | server-side p50 {server:.3f}" if server is not None else ""
        return (
            f"reconcile {op:7s}: end-to-end p50 {e2e:.3f} {unit} | {terms} "
            f"= {total:.3f} {unit}{shown} | remainder {e2e - total:.3f} "
            f"{unit} ({rest})"
        )

    wire = "server dispatch, event loop, socket, client JSON"
    return [
        line("pass", seen["eval_p50_ms"], [
            ("evaluation.tc", out["datalog.evaluation.tc_ms"]),
            ("evaluation.ap", out["datalog.evaluation.ap_ms"]),
            ("evaluation.q21", out["datalog.evaluation.q21_ms"]),
        ], "pass loop; registry overhead is inside the layer terms"),
        line("read", seen["read_p50_ms"], [
            ("protocol.decode", out["serve.protocol.decode_ms"]),
            ("view.query_view", out["serve.view.query_view_ms"]),
            ("protocol.encode", out["serve.protocol.encode_ms"]),
        ], wire, server=out["serve.server.query_ms"]),
        line("magic", seen["magic_p50_ms"], [
            ("protocol.decode", out["serve.protocol.decode_ms"]),
            ("view.query_magic (incl. magic.rewrite "
             f"{out['datalog.magic.rewrite_ms']:.3f})",
             out["serve.view.query_magic_ms"]),
            ("protocol.encode", out["serve.protocol.encode_ms"]),
        ], wire),
        *[
            line(kind, seen[f"{kind}_p50_ms"], [
                ("protocol.decode", update_decode_ms),
                (f"incremental.{kind}",
                 out[f"datalog.incremental.{kind}_ms"]),
                ("view.publish", out["serve.view.publish_ms"]),
                ("protocol.delta", out["serve.protocol.delta_ms"]),
                ("wal.append", out["serve.wal.append_ms"]),
            ], wire + "; under --fsync interval, the fsyncs the served "
                "run's spacing triggers; checkpoints land in the tail, not "
                "the median",
                server=out[f"serve.server.{kind}_ms"])
            for kind in ("insert", "delete")
        ],
        line("recover", seen["recover_s"], [
            ("wal.recover", out["serve.wal.recover_ms"] / 1000.0),
        ], "interpreter start, imports, graph load, boot compaction",
            unit="s"),
    ]
