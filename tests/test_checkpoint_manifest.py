"""Regression tests for the append-only checkpoint manifest (format v2).

The bug under test: a manifest rewritten whole on every mark lets two
processes resuming the same interrupted sweep race rewrite-vs-rewrite,
and the loser erases the winner's finished keys — work already done is
re-simulated.  v2 appends one complete JSONL line per mark with a single
``os.write`` on an ``O_APPEND`` descriptor (kernel-serialized), and
loading merges every line.  These tests pin: merge-on-load, the
multi-process union (no lost marks), and torn-tail tolerance, including
appending after a torn tail.
"""

import json
import multiprocessing
import os

from repro.analysis.checkpoint import (
    CheckpointManifest,
    _MANIFEST_FORMAT_VERSION,
)


def _mark_range(path: str, start: int, count: int) -> None:
    manifest = CheckpointManifest(path, resume=True)
    for i in range(start, start + count):
        manifest.mark_done(f"{i:032x}", f"cfg{i % 3}", f"wl{i % 5}")
    manifest.close()


class TestAppendOnlyFormat:
    def test_each_mark_is_one_jsonl_line(self, tmp_path):
        path = os.path.join(str(tmp_path), "ckpt.json")
        manifest = CheckpointManifest(path, resume=False)
        manifest.mark_done("a" * 32, "cfg", "wl")
        manifest.mark_done("b" * 32, "cfg2", "wl2")
        manifest.close()
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        assert len(lines) == 2
        assert all(
            line["format"] == _MANIFEST_FORMAT_VERSION for line in lines
        )
        assert lines[0]["key"] == "a" * 32
        assert lines[1] == {
            "format": _MANIFEST_FORMAT_VERSION,
            "key": "b" * 32,
            "config": "cfg2",
            "workload": "wl2",
        }

    def test_duplicate_mark_not_reappended(self, tmp_path):
        path = os.path.join(str(tmp_path), "ckpt.json")
        manifest = CheckpointManifest(path, resume=False)
        manifest.mark_done("a" * 32, "cfg", "wl")
        manifest.mark_done("a" * 32, "cfg", "wl")
        manifest.close()
        with open(path) as fh:
            assert sum(1 for line in fh if line.strip()) == 1
        assert manifest.marked == 1

    def test_merge_on_load_round_trip(self, tmp_path):
        path = os.path.join(str(tmp_path), "ckpt.json")
        _mark_range(path, 0, 10)
        resumed = CheckpointManifest(path, resume=True)
        assert len(resumed) == 10
        assert resumed.resumed == 10
        assert f"{3:032x}" in resumed
        assert resumed.done[f"{3:032x}"] == {"config": "cfg0",
                                             "workload": "wl3"}

    def test_interleaved_writers_merge(self, tmp_path):
        """Two manifests open on one file (the concurrent --resume
        scenario, in-process): every mark from both survives a reload."""
        path = os.path.join(str(tmp_path), "ckpt.json")
        a = CheckpointManifest(path, resume=True)
        b = CheckpointManifest(path, resume=True)
        for i in range(50):
            (a if i % 2 else b).mark_done(f"{i:032x}", "cfg", "wl")
        a.close()
        b.close()
        merged = CheckpointManifest(path, resume=True)
        assert len(merged) == 50


class TestConcurrentProcesses:
    def test_no_marks_lost_across_processes(self, tmp_path):
        """The v1 bug, pinned dead: N processes each mark a disjoint
        range; the union must be complete — no lost keys."""
        path = os.path.join(str(tmp_path), "ckpt.json")
        ctx = multiprocessing.get_context()
        procs = [
            ctx.Process(target=_mark_range, args=(path, w * 100, 100))
            for w in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert all(proc.exitcode == 0 for proc in procs)
        merged = CheckpointManifest(path, resume=True)
        assert len(merged) == 400
        for i in range(400):
            assert f"{i:032x}" in merged


class TestDamageTolerance:
    def test_torn_tail_skipped_silently(self, tmp_path):
        path = os.path.join(str(tmp_path), "ckpt.json")
        _mark_range(path, 0, 5)
        with open(path, "ab") as fh:
            fh.write(b'{"format": 2, "key": "trunc')  # crash mid-append
        manifest = CheckpointManifest(path, resume=True)
        assert len(manifest) == 5  # torn record dropped, rest intact

    def test_mark_after_torn_tail_starts_a_new_line(self, tmp_path):
        """A torn tail has no trailing newline: the next append must not
        fuse with it, so a reload sees the old records plus the new one."""
        path = os.path.join(str(tmp_path), "ckpt.json")
        _mark_range(path, 0, 5)
        with open(path, "ab") as fh:
            fh.write(b'{"format": 2, "key": "trunc')  # crash mid-append
        manifest = CheckpointManifest(path, resume=True)
        manifest.mark_done("f" * 32, "new", "wl")
        manifest.close()
        merged = CheckpointManifest(path, resume=True)
        assert len(merged) == 6
        assert merged.done["f" * 32] == {"config": "new", "workload": "wl"}

    def test_mid_file_corruption_skipped(self, tmp_path):
        path = os.path.join(str(tmp_path), "ckpt.json")
        _mark_range(path, 0, 2)
        with open(path, "a") as fh:
            fh.write("GARBAGE LINE\n")
        _mark_range(path, 2, 2)
        manifest = CheckpointManifest(path, resume=True)
        assert len(manifest) == 4

    def test_unknown_schema_line_skipped(self, tmp_path):
        path = os.path.join(str(tmp_path), "ckpt.json")
        _mark_range(path, 0, 2)
        with open(path, "a") as fh:
            fh.write(json.dumps({"format": 99, "key": "x" * 32}) + "\n")
        manifest = CheckpointManifest(path, resume=True)
        assert len(manifest) == 2

    def test_resume_false_truncates_only_on_first_mark(self, tmp_path):
        path = os.path.join(str(tmp_path), "ckpt.json")
        _mark_range(path, 0, 3)
        fresh = CheckpointManifest(path, resume=False)
        assert len(fresh) == 0
        # File untouched until the first mark...
        assert len(CheckpointManifest(path, resume=True)) == 3
        fresh.mark_done("f" * 32, "cfg", "wl")
        fresh.close()
        # ...which starts the manifest over.
        assert len(CheckpointManifest(path, resume=True)) == 1
