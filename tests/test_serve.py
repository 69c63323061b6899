"""Unit and integration tests for the ``repro serve`` subsystem.

Covers the three layers bottom-up: the wire protocol (parsing,
validation, structured errors), the :class:`LiveView` (epochs, pinned
snapshots, both query paths, checkpoint/resume), and a live
:class:`ReproServer` exercised over real sockets (queries, updates,
subscriptions, tenant budgets, stats).  The serial-equivalence
differential suite and the kill/restart drill live in
``test_serve_differential.py`` and ``test_serve_faults.py``.
"""

import pytest

from repro.datalog.library import transitive_closure_program
from repro.graphs.digraph import DiGraph
from repro.guard import CheckpointMismatch, ResourceBudget
from repro.serve import protocol
from repro.serve.client import ServeError
from repro.serve.server import SERVE_ENGINES, ReproServer, ServeStats
from repro.serve.view import LiveView, ViewSnapshot, filter_rows

from tests.serve_utils import connect, running_server, tc_view


class TestProtocolParsing:
    def test_minimal_query(self):
        parsed = protocol.parse_request('{"op": "query"}')
        assert parsed == {
            "op": "query",
            "id": None,
            "tenant": None,
            "magic": False,
            "bind": None,
        }

    def test_bind_normalisation(self):
        parsed = protocol.parse_request(
            '{"op": "query", "bind": ["a", "_", null], "magic": true}'
        )
        assert parsed["bind"] == ["a", None, None]
        assert parsed["magic"] is True

    def test_integer_node_labels_round_trip(self):
        parsed = protocol.parse_request(
            '{"op": "insert", "predicate": "E", "row": [3, 7]}'
        )
        assert parsed["rows"] == [(3, 7)]
        query = protocol.parse_request('{"op": "query", "bind": [3, null]}')
        assert query["bind"] == [3, None]

    def test_update_row_and_rows(self):
        single = protocol.parse_request(
            '{"op": "insert", "predicate": "E", "row": ["a", "b"]}'
        )
        assert single["rows"] == [("a", "b")]
        multi = protocol.parse_request(
            '{"op": "delete", "predicate": "E", '
            '"rows": [["a", "b"], ["b", "c"]]}'
        )
        assert multi["rows"] == [("a", "b"), ("b", "c")]

    def test_id_and_tenant_pass_through(self):
        parsed = protocol.parse_request(
            '{"op": "ping", "id": 7, "tenant": "alice"}'
        )
        assert parsed["id"] == 7
        assert parsed["tenant"] == "alice"

    @pytest.mark.parametrize(
        "line,code",
        [
            ("", "parse_error"),
            ("not json", "parse_error"),
            ("[1, 2]", "parse_error"),
            ('{"no_op": 1}', "bad_request"),
            ('{"op": "frobnicate"}', "unknown_op"),
            ('{"op": "ping", "id": {"nested": 1}}', "bad_request"),
            ('{"op": "ping", "tenant": ""}', "bad_request"),
            ('{"op": "query", "magic": "yes"}', "bad_request"),
            ('{"op": "query", "bind": "ab"}', "bad_request"),
            ('{"op": "query", "bind": [true]}', "bad_request"),
            ('{"op": "query", "bind": [1.5]}', "bad_request"),
            ('{"op": "insert", "predicate": "E"}', "bad_request"),
            ('{"op": "insert", "predicate": "", "row": ["a"]}', "bad_request"),
            (
                '{"op": "insert", "predicate": "E", "rows": []}',
                "bad_request",
            ),
            (
                '{"op": "insert", "predicate": "E", "rows": [["a"], "b"]}',
                "bad_request",
            ),
            (
                '{"op": "insert", "predicate": "E", '
                '"row": ["a"], "rows": [["b"]]}',
                "bad_request",
            ),
        ],
    )
    def test_malformed_requests(self, line, code):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.parse_request(line)
        assert excinfo.value.code == code

    def test_unknown_error_code_rejected(self):
        with pytest.raises(ValueError):
            protocol.ProtocolError("not_a_code", "boom")

    def test_encode_round_trips_as_one_line(self):
        import json

        payload = protocol.ok_response("ping", 3, epoch=4)
        encoded = protocol.encode(payload)
        assert encoded.endswith(b"\n")
        assert encoded.count(b"\n") == 1
        assert json.loads(encoded) == payload

    def test_error_response_coerces_unknown_code(self):
        response = protocol.error_response(None, "made_up", "x")
        assert response["error"]["code"] == "internal"

    def test_rows_payload_is_sorted_lists(self):
        assert protocol.rows_payload({("b", "a"), ("a", "b")}) == [
            ["a", "b"],
            ["b", "a"],
        ]


class TestFilterRows:
    ROWS = [("a", "b"), ("a", "c"), ("b", "c")]

    def test_none_binding_keeps_everything(self):
        assert sorted(filter_rows(self.ROWS, None)) == sorted(self.ROWS)

    def test_positional_filter(self):
        assert filter_rows(self.ROWS, ["a", None]) == [("a", "b"), ("a", "c")]
        assert filter_rows(self.ROWS, [None, "c"]) == [("a", "c"), ("b", "c")]
        assert filter_rows(self.ROWS, ["a", "c"]) == [("a", "c")]
        assert filter_rows(self.ROWS, ["c", None]) == []


class TestLiveView:
    def test_epoch_starts_at_zero_and_counts_updates(self):
        from repro.datalog.incremental import Update

        view = tc_view([("a", "b")])
        assert view.epoch == 0
        view.apply(Update("insert", "E", ("b", "c")))
        view.apply(Update("delete", "E", ("a", "b")))
        assert view.epoch == 2
        assert view.snapshot.epoch == 2

    def test_failed_update_does_not_move_the_epoch(self):
        from repro.datalog.incremental import Update

        view = tc_view([("a", "b")])
        before = view.snapshot
        with pytest.raises(ValueError):
            view.apply(Update("insert", "E", ("a", "zzz")))
        assert view.epoch == 0
        assert view.snapshot is before

    def test_snapshots_are_immutable_pins(self):
        from repro.datalog.incremental import Update

        view = tc_view([("a", "b"), ("b", "c")])
        pinned = view.snapshot
        before = set(pinned.goal_rows)
        view.apply(Update("insert", "E", ("c", "d")))
        # The pinned snapshot still answers at its own epoch.
        assert set(pinned.goal_rows) == before
        assert set(view.query_view(pinned, ["a", None])) == {
            row for row in before if row[0] == "a"
        }

    def test_view_and_magic_agree_on_pinned_snapshot(self):
        from repro.datalog.incremental import Update

        view = tc_view([("a", "b"), ("b", "c"), ("c", "d")])
        pinned = view.snapshot
        view.apply(Update("delete", "E", ("b", "c")))
        for bind in (None, ["a", None], [None, "d"], ["a", "d"], ["d", "a"]):
            filtered = set(view.query_view(pinned, bind))
            derived = set(view.query_magic(pinned, bind).answers)
            assert filtered == derived, bind

    def test_check_bind_rejects_bad_arity_and_nodes(self):
        view = tc_view([("a", "b")])
        with pytest.raises(ValueError, match="needs 2 entries"):
            view.query_view(view.snapshot, ["a"])
        with pytest.raises(ValueError, match="not in the graph"):
            view.query_view(view.snapshot, ["zzz", None])
        with pytest.raises(ValueError, match="unknown engine"):
            view.query_magic(view.snapshot, None, engine="nope")

    def test_checkpoint_resume_round_trip(self, tmp_path):
        from repro.datalog.incremental import Update

        view = tc_view([("a", "b"), ("b", "c")])
        view.apply(Update("insert", "E", ("c", "a")))
        path = str(tmp_path / "view.ckpt")
        view.checkpoint(path)
        resumed = LiveView.resume(
            transitive_closure_program(),
            DiGraph(nodes="abcd", edges=[("a", "b"), ("b", "c")])
            .to_structure(),
            path,
        )
        assert resumed.epoch == 1
        assert resumed.snapshot.goal_rows == view.snapshot.goal_rows
        assert resumed.snapshot.edb == view.snapshot.edb

    def test_resume_rejects_a_different_program(self, tmp_path):
        from repro.datalog.library import library_programs

        view = tc_view([("a", "b")])
        path = str(tmp_path / "view.ckpt")
        view.checkpoint(path)
        other = library_programs()["path-systems"]
        with pytest.raises(CheckpointMismatch):
            LiveView.resume(
                other,
                DiGraph(nodes="abcd", edges=[("a", "b")]).to_structure(),
                path,
            )


class TestServerIntegration:
    EDGES = [("a", "b"), ("b", "c"), ("c", "d")]

    def test_rejects_parallel_engine(self):
        view = tc_view(self.EDGES)
        assert "parallel" not in SERVE_ENGINES
        with pytest.raises(ValueError, match="unknown serve engine"):
            ReproServer(view, engine="parallel")

    def test_query_insert_subscribe_round_trip(self):
        with running_server(tc_view(self.EDGES)) as server:
            with connect(server) as client:
                assert client.ping()["epoch"] == 0
                full = client.query()
                assert full["epoch"] == 0
                assert ["a", "d"] in full["rows"]

                assert client.subscribe()["predicate"] == "S"
                inserted = client.insert("E", ["d", "a"])
                assert inserted["epoch"] == 1
                assert inserted["applied"] == 1
                (event,) = client.drain_events(1)
                assert event["event"] == "delta"
                assert event["epoch"] == 1
                assert ["d", "a"] in event["added"]

                bound = client.query(bind=["a", "_"])
                magic = client.query(bind=["a", "_"], magic=True)
                assert bound["epoch"] == magic["epoch"] == 1
                assert bound["rows"] == magic["rows"]

    def test_delete_pushes_removed_rows(self):
        with running_server(tc_view(self.EDGES)) as server:
            with connect(server) as client:
                client.subscribe()
                deleted = client.delete("E", ["b", "c"])
                assert deleted["epoch"] == 1
                (event,) = client.drain_events(1)
                assert ["a", "d"] in event["removed"]
                assert client.query()["rows"] == [["a", "b"], ["c", "d"]]

    def test_unsubscribe_stops_the_pushes(self):
        with running_server(tc_view(self.EDGES)) as server:
            with connect(server) as subscriber, connect(server) as writer:
                subscriber.subscribe()
                subscriber.unsubscribe()
                writer.insert("E", ["d", "a"])
                # The subscriber's next response would surface any stray
                # event first; drain via a plain request instead.
                assert subscriber.ping()["epoch"] == 1
                assert subscriber.events == []

    def test_structured_errors_keep_the_connection_alive(self):
        with running_server(tc_view(self.EDGES)) as server:
            with connect(server) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.insert("S", ["a", "b"])  # IDB: not updatable
                assert excinfo.value.code == "bad_request"
                with pytest.raises(ServeError) as excinfo:
                    client.query(bind=["zzz", "_"])
                assert excinfo.value.code == "bad_request"
                with pytest.raises(ServeError) as excinfo:
                    client.request("query", bind=["a"])
                assert excinfo.value.code == "bad_request"
                with pytest.raises(ServeError) as excinfo:
                    client.subscribe("E")  # EDB: not derivable
                assert excinfo.value.code == "bad_request"
                # Still serving after four rejected requests.
                assert client.ping()["ok"]

    def test_tenant_budget_trips_as_structured_error(self):
        budgets = {"tiny": ResourceBudget(max_tuples=1)}
        with running_server(
            tc_view(self.EDGES), tenant_budgets=budgets
        ) as server:
            with connect(server, tenant="tiny") as tiny:
                with pytest.raises(ServeError) as excinfo:
                    tiny.query(bind=["a", "_"], magic=True)
                assert excinfo.value.code == "budget_exceeded"
                # Non-magic reads never evaluate, so the budget cannot
                # trip them; the connection survived either way.
                assert tiny.query(bind=["a", "_"])["ok"]
            with connect(server) as unmetered:
                assert unmetered.query(bind=["a", "_"], magic=True)["ok"]

    def test_default_budget_applies_to_unnamed_tenants(self):
        with running_server(
            tc_view(self.EDGES),
            default_budget=ResourceBudget(max_tuples=1),
        ) as server:
            with connect(server) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.query(magic=True)
                assert excinfo.value.code == "budget_exceeded"

    def test_stats_reports_version_epoch_and_latency_quantiles(self):
        from repro._version import __version__

        with running_server(tc_view(self.EDGES)) as server:
            with connect(server, tenant="alice") as client:
                client.ping()
                client.query()
                client.insert("E", ["d", "a"])
                stats = client.stats()
        assert stats["version"] == __version__
        assert stats["protocol"] == protocol.PROTOCOL_VERSION
        assert stats["epoch"] == 1
        assert stats["goal"] == "S"
        assert stats["clients"] == 1
        assert stats["tenants"] == {"alice": 3}
        for verb in ("ping", "query", "insert"):
            summary = stats["verbs"][verb]
            assert summary["count"] >= 1
            assert (
                summary["p50_ms"]
                <= summary["p95_ms"]
                <= summary["p99_ms"]
            )

    def test_stats_reports_magic_reads_apart(self):
        from repro.obs import metrics

        registry = metrics.enable_metrics(metrics.MetricsRegistry())
        try:
            with running_server(tc_view(self.EDGES)) as server:
                with connect(server) as client:
                    client.query(bind=["a", "_"])
                    client.query(bind=["b", "_"])
                    client.query(bind=["a", "_"], magic=True)
                    verbs = client.stats()["verbs"]
        finally:
            metrics.disable_metrics()
        assert verbs["query"]["count"] == 2
        assert verbs["query_magic"]["count"] == 1
        # The request counters stay keyed by the wire verb.
        assert registry.counter("serve.requests.query") == 3
        assert registry.counter("serve.requests.query_magic") == 0

    def test_concurrent_clients_share_one_view(self):
        with running_server(tc_view(self.EDGES)) as server:
            clients = [connect(server) for _ in range(4)]
            try:
                for i, client in enumerate(clients):
                    response = client.insert("E", ["d", "a"])
                    # Idempotent insert: only the first applies, but
                    # every attempt is serialised and bumps the epoch.
                    assert response["epoch"] == i + 1
                    assert response["applied"] == (1 if i == 0 else 0)
                answers = [c.query()["rows"] for c in clients]
                assert all(rows == answers[0] for rows in answers)
            finally:
                for client in clients:
                    client.close()

    def test_checkpoint_cadence_counts_writes(self, tmp_path):
        path = str(tmp_path / "serve.ckpt")
        view = tc_view(self.EDGES)
        with running_server(
            view, checkpoint_path=path, checkpoint_every=2
        ) as server:
            with connect(server) as client:
                client.insert("E", ["d", "a"])   # epoch 1: no write
                client.insert("E", ["b", "d"])   # epoch 2: write 1
                client.delete("E", ["b", "d"])   # epoch 3: no write
                client.insert("E", ["a", "c"])   # epoch 4: write 2
                assert client.stats()["checkpoints_written"] == 2
        resumed = LiveView.resume(
            transitive_closure_program(),
            DiGraph(nodes="abcd", edges=self.EDGES).to_structure(),
            path,
        )
        assert resumed.epoch == 4
        assert resumed.snapshot.goal_rows == view.snapshot.goal_rows


class TestServeStats:
    def test_quantiles_are_nearest_rank(self):
        stats = ServeStats()
        for ms in range(1, 101):
            stats.observe("query", ms / 1000.0, None)
        summary = stats.summary()["verbs"]["query"]
        assert summary["count"] == 100
        assert summary["p50_ms"] == 50.0
        assert summary["p95_ms"] == 95.0
        assert summary["p99_ms"] == 99.0

    def test_tenant_counters_accumulate(self):
        stats = ServeStats()
        stats.observe("ping", 0.001, "a")
        stats.observe("query", 0.001, "a")
        stats.observe("query", 0.001, "b")
        stats.observe("query", 0.001, None)
        assert stats.summary()["tenants"] == {"a": 2, "b": 1}


class TestCliServeValidation:
    def test_serve_rejects_parallel_engine(self, capsys):
        from repro.cli import main

        code = main(
            ["serve", "transitive-closure", "missing.graph",
             "--engine", "parallel"]
        )
        assert code == 2
        assert "unknown serve engine" in capsys.readouterr().err

    def test_checkpoint_every_needs_checkpoint(self, capsys):
        from repro.cli import main

        code = main(
            ["serve", "transitive-closure", "missing.graph",
             "--checkpoint-every", "3"]
        )
        assert code == 2
        assert "--checkpoint-every needs --checkpoint" in (
            capsys.readouterr().err
        )

    def test_resume_needs_checkpoint_flag(self, capsys):
        from repro.cli import main

        code = main(
            ["serve", "transitive-closure", "missing.graph", "--resume"]
        )
        assert code == 2
        assert "--resume needs --checkpoint" in capsys.readouterr().err

    def test_malformed_tenant_spec(self, tmp_path, capsys):
        from repro.cli import main

        graph = tmp_path / "g.graph"
        graph.write_text("edge a b\n")
        code = main(
            ["serve", "transitive-closure", str(graph), "--tenant", "oops"]
        )
        assert code == 2
        assert "malformed --tenant" in capsys.readouterr().err

    def test_wal_needs_checkpoint(self, capsys):
        from repro.cli import main

        code = main(
            ["serve", "transitive-closure", "missing.graph",
             "--wal", "serve.wal"]
        )
        assert code == 2
        assert "--wal needs --checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,fragment",
        [
            (["--wal", "w", "--checkpoint", "c", "--fsync-interval", "0"],
             "--fsync-interval must be > 0"),
            (["--max-queue", "-1"], "--max-queue and --max-outbox"),
            (["--max-outbox", "-1"], "--max-queue and --max-outbox"),
            (["--history", "0"], "--history must be >= 1"),
        ],
    )
    def test_durability_flag_validation(self, capsys, flags, fragment):
        from repro.cli import main

        code = main(
            ["serve", "transitive-closure", "missing.graph", *flags]
        )
        assert code == 2
        assert fragment in capsys.readouterr().err


class TestProtocolV2:
    def test_protocol_version_bumped(self):
        assert protocol.PROTOCOL_VERSION == 2
        assert "health" in protocol.VERBS
        assert "overloaded" in protocol.ERROR_CODES

    def test_rid_parses_and_validates(self):
        parsed = protocol.parse_request(
            '{"op": "insert", "predicate": "E", "row": ["a", "b"], '
            '"rid": "c1-7"}'
        )
        assert parsed["rid"] == "c1-7"
        bare = protocol.parse_request(
            '{"op": "insert", "predicate": "E", "row": ["a", "b"]}'
        )
        assert bare["rid"] is None
        for bad in ('""', "7", "[1]"):
            with pytest.raises(protocol.ProtocolError) as excinfo:
                protocol.parse_request(
                    '{"op": "delete", "predicate": "E", "row": ["a"], '
                    f'"rid": {bad}}}'
                )
            assert excinfo.value.code == "bad_request"

    def test_from_epoch_parses_and_validates(self):
        parsed = protocol.parse_request(
            '{"op": "subscribe", "from_epoch": 12}'
        )
        assert parsed["from_epoch"] == 12
        assert protocol.parse_request('{"op": "subscribe"}')[
            "from_epoch"
        ] is None
        for bad in ("-1", "1.5", "true", '"3"'):
            with pytest.raises(protocol.ProtocolError) as excinfo:
                protocol.parse_request(
                    f'{{"op": "subscribe", "from_epoch": {bad}}}'
                )
            assert excinfo.value.code == "bad_request"

    def test_error_fields_ride_the_wire(self):
        error = protocol.ProtocolError(
            "overloaded", "queue full", retry_after_ms=75
        )
        assert error.fields == {"retry_after_ms": 75}
        response = protocol.error_response(
            4, error.code, str(error), **error.fields
        )
        assert response["error"]["retry_after_ms"] == 75
        assert response["error"]["code"] == "overloaded"

    def test_resync_event_shape(self):
        event = protocol.resync_event(
            9, "S", {("b", "a"), ("a", "b")}, "evicted"
        )
        assert event == {
            "event": "resync",
            "epoch": 9,
            "predicate": "S",
            "rows": [["a", "b"], ["b", "a"]],
            "reason": "evicted",
        }


class TestServerV2Integration:
    EDGES = [("a", "b"), ("b", "c"), ("c", "d")]

    def test_health_reports_pressure(self):
        with running_server(tc_view(self.EDGES), max_queue=8) as server:
            with connect(server) as client:
                client.insert("E", ["d", "a"])
                health = client.health()
        assert health["epoch"] == 1
        assert health["queue_depth"] == 0
        assert health["queue_capacity"] == 8
        assert health["clients"] == 1
        assert "wal" not in health  # no log attached

    def test_rid_dedupes_a_completed_request(self):
        with running_server(tc_view(self.EDGES)) as server:
            with connect(server) as client:
                first = client.insert("E", ["d", "a"], rid="req-1")
                assert first["epoch"] == 1
                assert "deduped" not in first
                retry = client.insert("E", ["d", "a"], rid="req-1")
                assert retry["deduped"] is True
                assert retry["epoch"] == 1
                assert retry["applied"] == first["applied"] == 1
                # The view moved once, not twice.
                assert client.ping()["epoch"] == 1
                assert client.stats()["deduped"] == 1

    def test_distinct_rids_apply_independently(self):
        with running_server(tc_view(self.EDGES)) as server:
            with connect(server) as client:
                client.insert("E", ["d", "a"], rid="x")
                client.delete("E", ["d", "a"], rid="y")
                assert client.ping()["epoch"] == 2

    def test_resubscribe_backfills_missed_deltas(self):
        with running_server(tc_view(self.EDGES)) as server:
            with connect(server) as writer, connect(server) as late:
                writer.insert("E", ["d", "a"])
                writer.delete("E", ["d", "a"])
                response = late.subscribe(from_epoch=0)
                assert response["backfilled"] == 2
                events = late.drain_events(2)
                assert [e["epoch"] for e in events] == [1, 2]
                assert ["d", "a"] in events[0]["added"]
                assert ["d", "a"] in events[1]["removed"]

    def test_resubscribe_past_the_history_resyncs(self):
        with running_server(tc_view(self.EDGES), history=1) as server:
            with connect(server) as writer, connect(server) as late:
                writer.insert("E", ["d", "a"])
                writer.insert("E", ["a", "c"])  # pushes epoch 1 out
                response = late.subscribe(from_epoch=0)
                assert response["backfilled"] == 0
                (event,) = late.drain_events(1)
                assert event["event"] == "resync"
                assert event["reason"] == "gap"
                assert event["epoch"] == 2
                assert event["rows"] == writer.query()["rows"]

    def test_up_to_date_resubscribe_backfills_nothing(self):
        with running_server(tc_view(self.EDGES)) as server:
            with connect(server) as client:
                client.insert("E", ["d", "a"])
                response = client.subscribe(from_epoch=1)
                assert response["backfilled"] == 0
                assert client.events == []
