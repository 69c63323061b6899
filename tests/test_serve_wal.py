"""The write-ahead log: framing, torn tails, corruption, recovery.

The durability contract under test (see :mod:`repro.serve.wal`):

* a WAL is a header frame plus CRC-guarded, epoch-contiguous records;
* **any** prefix of the file is recoverable -- a torn tail (crash
  mid-append) is detected by its incomplete or CRC-bad final frame and
  truncated, never fatal (mirroring the checkpoint torn-file tests);
* mid-file damage -- a CRC-bad record with valid data *after* it --
  is not a crash shape and is rejected loudly with the record number
  and byte offset;
* :func:`repro.serve.wal.recover` rebuilds checkpoint + WAL suffix to
  the exact logged epoch and reconstructs the exactly-once dedupe
  table, including half-applied requests.
"""

import os

import pytest

from repro.datalog.evaluation import evaluate
from repro.datalog.incremental import Update
from repro.datalog.library import transitive_closure_program
from repro.graphs.digraph import DiGraph
from repro.obs import metrics
from repro.serve.view import LiveView
from repro.serve.wal import (
    WalCorrupt,
    WalMismatch,
    WalRecord,
    WriteAheadLog,
    _FRAME,
    _frame,
    recover,
    scan_wal,
)
from tests.serve_utils import connect, running_server

NODES = "abcde"
EDGES = [("a", "b"), ("b", "c"), ("c", "d")]
SCRIPT = [
    ("insert", ("d", "e")),
    ("insert", ("e", "a")),
    ("delete", ("a", "b")),
    ("insert", ("b", "d")),
]
PROGRAM = transitive_closure_program()


def _structure():
    return DiGraph(nodes=NODES, edges=EDGES).to_structure()


def _fresh_view() -> LiveView:
    return LiveView(PROGRAM, _structure())


def _serial_goal_rows(prefix: int) -> frozenset:
    edb = set(EDGES)
    for kind, row in SCRIPT[:prefix]:
        (edb.add if kind == "insert" else edb.discard)(row)
    structure = DiGraph(nodes=NODES, edges=[]).to_structure()
    result = evaluate(PROGRAM, structure, extra_edb={"E": frozenset(edb)})
    return frozenset(result.relations[PROGRAM.goal])


def _write_scripted_wal(path: str, rids: bool = False) -> LiveView:
    """Apply SCRIPT through a live view, logging every row; return the view."""
    view = _fresh_view()
    wal = WriteAheadLog.create(
        path, 0, view.program_fp, fsync="off"
    )
    for index, (kind, row) in enumerate(SCRIPT):
        result, snapshot = view.apply(Update(kind, "E", row))
        wal.append(
            WalRecord(
                epoch=snapshot.epoch,
                op=kind,
                predicate="E",
                row=row,
                rid=f"r{index}" if rids else None,
                row_index=0,
                rows_total=1,
                applied=len(result.applied),
            )
        )
    wal.close()
    return view


class TestFraming:
    def test_fsync_mode_validation(self, tmp_path):
        with pytest.raises(ValueError, match="fsync mode"):
            WriteAheadLog(str(tmp_path / "w.wal"), fsync="sometimes")
        with pytest.raises(ValueError, match="fsync_interval"):
            WriteAheadLog(
                str(tmp_path / "w.wal"), fsync="interval", fsync_interval=0
            )

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "roundtrip.wal")
        view = _write_scripted_wal(path)
        scan = scan_wal(path)
        assert scan.torn_bytes == 0
        assert scan.base_epoch == 0
        assert scan.last_epoch == view.epoch == len(SCRIPT)
        assert [r.epoch for r in scan.records] == [1, 2, 3, 4]
        assert [(r.op, r.row) for r in scan.records] == [
            (kind, row) for kind, row in SCRIPT
        ]
        assert scan.header["program"] == view.program_fp

    def test_header_only_file(self, tmp_path):
        path = str(tmp_path / "empty.wal")
        wal = WriteAheadLog.create(path, 7, "fp", {"a": {"x": 1}})
        wal.close()
        scan = scan_wal(path)
        assert scan.records == []
        assert scan.base_epoch == scan.last_epoch == 7
        assert scan.header["dedupe"] == {"a": {"x": 1}}

    def test_fsync_modes_count_fsyncs(self, tmp_path):
        always = WriteAheadLog.create(
            str(tmp_path / "a.wal"), 0, "fp", fsync="always"
        )
        off = WriteAheadLog.create(
            str(tmp_path / "o.wal"), 0, "fp", fsync="off"
        )
        record = WalRecord(1, "insert", "E", ("a", "b"))
        always.append(record)
        off.append(record)
        assert always.fsyncs == 1
        assert off.fsyncs == 0
        always.close()
        off.close()

    def test_rotation_compacts_and_keeps_dedupe(self, tmp_path):
        path = str(tmp_path / "rotate.wal")
        view = _write_scripted_wal(path, rids=True)
        wal = WriteAheadLog(path, fsync="off")
        dedupe = {"r3": {"rows_done": 1, "completed": True}}
        wal.rotate(view.epoch, view.program_fp, dedupe)
        wal.close()
        scan = scan_wal(path)
        assert scan.records == []  # compacted away
        assert scan.base_epoch == view.epoch
        assert scan.header["dedupe"] == dedupe
        assert wal.rotations == 1


class TestTornAndCorrupt:
    def test_truncation_at_every_byte_is_recoverable(self, tmp_path):
        """The satellite drill: every prefix of the file scans cleanly.

        A cut can only ever produce a *torn tail* -- the scan keeps
        exactly the records whose frames survived whole and reports
        the ragged remainder; it never raises and never miscounts.
        """
        full_path = str(tmp_path / "full.wal")
        _write_scripted_wal(full_path)
        data = open(full_path, "rb").read()
        # Frame boundaries: byte offsets at which a frame ends.
        boundaries = []
        offset = 0
        while offset < len(data):
            length, _crc = _FRAME.unpack_from(data, offset)
            offset += _FRAME.size + length
            boundaries.append(offset)
        assert len(boundaries) == 1 + len(SCRIPT)  # header + records
        cut_path = str(tmp_path / "cut.wal")
        for cut in range(len(data) + 1):
            with open(cut_path, "wb") as handle:
                handle.write(data[:cut])
            scan = scan_wal(cut_path)
            whole = sum(1 for b in boundaries if b <= cut)
            assert scan.valid_bytes == (
                boundaries[whole - 1] if whole else 0
            )
            assert scan.torn_bytes == cut - scan.valid_bytes
            if whole == 0:
                assert scan.header is None
            else:
                assert len(scan.records) == whole - 1
                assert scan.last_epoch == whole - 1

    def test_recover_at_every_frame_boundary(self, tmp_path):
        """Recovery from a cut WAL serves the serial prefix exactly."""
        full_path = str(tmp_path / "full.wal")
        _write_scripted_wal(full_path)
        data = open(full_path, "rb").read()
        boundaries = []
        offset = 0
        while offset < len(data):
            length, _crc = _FRAME.unpack_from(data, offset)
            offset += _FRAME.size + length
            boundaries.append(offset)
        cut_path = str(tmp_path / "cut.wal")
        for count, boundary in enumerate(boundaries):
            # Cut right at the boundary and mid-way into the next frame:
            # the latter leaves a torn tail recover() must truncate.
            for cut in (boundary, min(boundary + 5, len(data))):
                with open(cut_path, "wb") as handle:
                    handle.write(data[:cut])
                view, dedupe, report = recover(
                    PROGRAM, _structure(), wal_path=cut_path
                )
                prefix = count  # header is frame 0
                assert view.epoch == prefix
                assert report.replayed == prefix
                assert view.snapshot.goal_rows == _serial_goal_rows(prefix)
                assert report.torn_bytes == (cut - boundary)
                # recover() truncated the torn tail in place: a second
                # scan is clean.
                assert scan_wal(cut_path).torn_bytes == 0

    def test_midfile_corruption_is_loud(self, tmp_path):
        path = str(tmp_path / "corrupt.wal")
        _write_scripted_wal(path)
        data = bytearray(open(path, "rb").read())
        # Damage the *second* record's payload: frames exist after it,
        # so this cannot be a torn tail.
        offset = 0
        for _frame_no in range(2):  # skip header + record 1
            length, _crc = _FRAME.unpack_from(data, offset)
            offset += _FRAME.size + length
        data[offset + _FRAME.size + 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(WalCorrupt) as info:
            scan_wal(path)
        message = str(info.value)
        assert "record #1" in message
        assert f"byte {offset}" in message
        assert "mid-file corruption" in message
        assert path in message

    def test_corrupt_final_record_is_a_torn_tail(self, tmp_path):
        path = str(tmp_path / "tail.wal")
        _write_scripted_wal(path)
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF  # last byte of the last record's payload
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        scan = scan_wal(path)  # no raise: in-place torn write
        assert len(scan.records) == len(SCRIPT) - 1
        assert scan.torn_bytes > 0

    def test_epoch_gap_is_corruption(self, tmp_path):
        path = str(tmp_path / "gap.wal")
        frames = _frame(
            b'{"base_epoch":0,"dedupe":{},"program":"fp","wal":1}'
        )
        for epoch in (1, 3):  # 2 is missing
            frames += _frame(
                WalRecord(epoch, "insert", "E", ("a", "b")).to_payload()
            )
        with open(path, "wb") as handle:
            handle.write(frames)
        with pytest.raises(WalCorrupt, match="contiguous"):
            scan_wal(path)

    def test_wrong_version_and_wrong_filetype(self, tmp_path):
        path = str(tmp_path / "bad.wal")
        with open(path, "wb") as handle:
            handle.write(_frame(b'{"base_epoch":0,"program":"f","wal":99}'))
        with pytest.raises(WalCorrupt, match="version"):
            scan_wal(path)
        with open(path, "wb") as handle:
            handle.write(_frame(b'[1,2,3]'))
        with pytest.raises(WalCorrupt, match="header"):
            scan_wal(path)


class TestRecovery:
    def test_wal_only_recovery(self, tmp_path):
        path = str(tmp_path / "only.wal")
        served = _write_scripted_wal(path)
        view, dedupe, report = recover(
            PROGRAM, _structure(), wal_path=path
        )
        assert view.epoch == served.epoch
        assert view.snapshot.goal_rows == served.snapshot.goal_rows
        assert view.snapshot.edb == served.snapshot.edb
        assert report.replayed == len(SCRIPT)
        assert report.skipped == 0

    def test_checkpoint_plus_wal_suffix(self, tmp_path):
        """The crash-between-checkpoint-and-rotation window: the WAL
        still starts at base 0 while the checkpoint is at epoch 2 --
        recovery skips the logged prefix and replays only the suffix."""
        wal_path = str(tmp_path / "suffix.wal")
        ckpt_path = str(tmp_path / "suffix.ckpt")
        view = _fresh_view()
        wal = WriteAheadLog.create(wal_path, 0, view.program_fp, fsync="off")
        for index, (kind, row) in enumerate(SCRIPT):
            result, snapshot = view.apply(Update(kind, "E", row))
            wal.append(
                WalRecord(
                    snapshot.epoch, kind, "E", row,
                    applied=len(result.applied),
                )
            )
            if snapshot.epoch == 2:
                view.checkpoint(ckpt_path)
        wal.close()
        recovered, _dedupe, report = recover(
            PROGRAM, _structure(), ckpt_path, wal_path
        )
        assert report.checkpoint_epoch == 2
        assert report.skipped == 2
        assert report.replayed == 2
        assert recovered.epoch == len(SCRIPT)
        assert recovered.snapshot.goal_rows == _serial_goal_rows(len(SCRIPT))

    def test_dedupe_reconstruction_with_partial_request(self, tmp_path):
        path = str(tmp_path / "dedupe.wal")
        view = _fresh_view()
        wal = WriteAheadLog.create(path, 0, view.program_fp, fsync="off")
        # One completed single-row request, then a two-row request cut
        # off after its first row (the crash shape).
        _result, snapshot = view.apply(Update("insert", "E", ("d", "e")))
        wal.append(
            WalRecord(snapshot.epoch, "insert", "E", ("d", "e"),
                      rid="done", applied=1)
        )
        _result, snapshot = view.apply(Update("insert", "E", ("e", "a")))
        wal.append(
            WalRecord(snapshot.epoch, "insert", "E", ("e", "a"),
                      rid="half", row_index=0, rows_total=2, applied=1)
        )
        wal.close()
        _view, dedupe, report = recover(PROGRAM, _structure(), wal_path=path)
        assert dedupe["done"]["completed"] is True
        assert dedupe["done"]["applied"] == 1
        assert dedupe["half"]["completed"] is False
        assert dedupe["half"]["rows_done"] == 1
        assert dedupe["half"]["requested"] == 2
        assert report.dedupe_entries == 2

    def test_header_dedupe_merges_with_records(self, tmp_path):
        path = str(tmp_path / "merge.wal")
        view = _fresh_view()
        header_dedupe = {
            "old": {
                "rows_done": 1, "applied": 1, "epoch": 5,
                "requested": 1, "completed": True,
                "op": "insert", "predicate": "E",
            }
        }
        wal = WriteAheadLog.create(
            path, 0, view.program_fp, header_dedupe, fsync="off"
        )
        wal.close()
        _view, dedupe, _report = recover(PROGRAM, _structure(), wal_path=path)
        assert dedupe == header_dedupe

    def test_wrong_program_is_a_mismatch(self, tmp_path):
        path = str(tmp_path / "other.wal")
        wal = WriteAheadLog.create(path, 0, "not-this-program", fsync="off")
        wal.close()
        with pytest.raises(WalMismatch, match="different program"):
            recover(PROGRAM, _structure(), wal_path=path)

    def test_missing_files_mean_fresh_view(self, tmp_path):
        view, dedupe, report = recover(
            PROGRAM,
            _structure(),
            str(tmp_path / "no.ckpt"),
            str(tmp_path / "no.wal"),
        )
        assert view.epoch == 0
        assert dedupe == {}
        assert report.replayed == report.skipped == 0
        assert not os.path.exists(str(tmp_path / "no.wal"))


class TestCounterReconciliation:
    """Each WAL event is counted once: the ``serve.wal.*`` counters of a
    served run equal what is on disk and what the server did."""

    def _serve_script(self, tmp_path, checkpoint_every):
        view = _fresh_view()
        wal_path = str(tmp_path / "serve.wal")
        wal = WriteAheadLog.create(wal_path, 0, view.program_fp)
        registry = metrics.enable_metrics(metrics.MetricsRegistry())
        try:
            with running_server(
                view,
                wal=wal,
                checkpoint_path=str(tmp_path / "serve.ckpt"),
                checkpoint_every=checkpoint_every,
            ) as server:
                with connect(server) as client:
                    for kind, row in SCRIPT:
                        getattr(client, kind)("E", list(row))
                    stats = client.stats()
        finally:
            metrics.disable_metrics()
        return registry, stats, scan_wal(wal_path)

    def test_appends_equal_records_on_disk(self, tmp_path):
        registry, stats, scan = self._serve_script(tmp_path, 0)
        assert len(scan.records) == len(SCRIPT)
        assert registry.counter("serve.wal.appends") == len(scan.records)
        assert stats["wal_records"] == len(scan.records)
        assert registry.counter("serve.wal.rotations") == 0

    def test_rotations_equal_checkpoints_written(self, tmp_path):
        registry, stats, scan = self._serve_script(tmp_path, 2)
        assert stats["checkpoints_written"] == len(SCRIPT) // 2
        assert (
            registry.counter("serve.wal.rotations")
            == registry.counter("serve.checkpoints_written")
            == stats["checkpoints_written"]
        )
        # Rotation dropped the records up to its base epoch (one record
        # per single-row update); the rest are still on disk.
        assert (
            scan.base_epoch + len(scan.records)
            == registry.counter("serve.wal.appends")
            == len(SCRIPT)
        )
