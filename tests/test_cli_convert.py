"""Tests for the CLI and the external-trace converter."""

import io

import pytest

from repro.cli import main
from repro.workloads.convert import (
    TraceParseError,
    parse_text_trace,
    read_text_trace,
    write_text_trace,
)
from repro.workloads.trace import BranchType, Instruction, Trace, read_trace


class TestMinimalTextForm:
    def test_sequential_pcs(self):
        trace = parse_text_trace(["0x1000", "0x1004", "0x1008"])
        assert len(trace) == 3
        assert all(not i.is_branch for i in trace)

    def test_discontinuity_inferred(self):
        trace = parse_text_trace(["0x1000", "0x2000"])
        assert trace[0].branch_type == BranchType.DIRECT_JUMP
        assert trace[0].target == 0x2000

    def test_decimal_pcs(self):
        trace = parse_text_trace(["4096", "4100"])
        assert trace[0].pc == 4096

    def test_comments_and_blanks_ignored(self):
        trace = parse_text_trace(["# header", "", "0x1000", "  ", "0x1004"])
        assert len(trace) == 2

    def test_bad_number(self):
        with pytest.raises(TraceParseError, match="line 1"):
            parse_text_trace(["zzz"])


class TestExtendedTextForm:
    def test_full_record(self):
        trace = parse_text_trace(
            ["0x1000,call,1,0x5000,load,0x9000"]
        )
        inst = trace[0]
        assert inst.branch_type == BranchType.DIRECT_CALL
        assert inst.taken and inst.target == 0x5000
        assert inst.is_load and inst.data_addr == 0x9000

    def test_four_field_record(self):
        trace = parse_text_trace(["0x1000,cond,0,0x5000"])
        assert trace[0].branch_type == BranchType.CONDITIONAL
        assert not trace[0].taken

    def test_mixed_forms(self):
        trace = parse_text_trace(["0x1000", "0x1004,ret,1,0x9000"])
        assert len(trace) == 2
        assert trace[1].branch_type == BranchType.RETURN

    def test_unknown_branch_type(self):
        with pytest.raises(TraceParseError, match="unknown branch"):
            parse_text_trace(["0x1000,hop,1,0x2000"])

    def test_bad_taken_flag(self):
        with pytest.raises(TraceParseError, match="taken"):
            parse_text_trace(["0x1000,cond,yes,0x2000"])

    def test_non_branch_marked_taken(self):
        with pytest.raises(TraceParseError, match="non-branch"):
            parse_text_trace(["0x1000,-,1,0x2000"])

    def test_wrong_field_count(self):
        with pytest.raises(TraceParseError, match="fields"):
            parse_text_trace(["0x1000,cond,0"])


class TestRoundtrip:
    def test_write_read_text(self):
        original = Trace(
            "t",
            [
                Instruction(pc=0x1000, is_load=True, data_addr=0x42),
                Instruction(
                    pc=0x1004,
                    branch_type=BranchType.INDIRECT_CALL,
                    taken=True,
                    target=0x2000,
                ),
            ],
            category="srv",
        )
        buffer = io.StringIO()
        write_text_trace(original, buffer)
        buffer.seek(0)
        loaded = read_text_trace(buffer, name="t")
        assert loaded.instructions == original.instructions

    def test_file_paths(self, tmp_path):
        original = Trace("t", [Instruction(pc=0x1000)])
        path = str(tmp_path / "trace.txt")
        write_text_trace(original, path)
        loaded = read_text_trace(path)
        assert loaded.instructions == original.instructions


def _rich_trace():
    return Trace(
        "rt",
        [
            Instruction(pc=0x1000, is_load=True, data_addr=0x42),
            Instruction(
                pc=0x1004,
                branch_type=BranchType.CONDITIONAL,
                taken=True,
                target=0x2000,
            ),
            Instruction(pc=0x2000, is_store=True, data_addr=0x9008),
            Instruction(
                pc=0x2004, branch_type=BranchType.RETURN, taken=True,
                target=0x1008,
            ),
        ],
        category="srv",
    )


class TestConvertBugfixRegressions:
    """The three ISSUE 8 convert.py satellite bugs, pinned."""

    def test_pathlib_path_accepted(self, tmp_path):
        # Regression: pathlib.Path fell into the open-file branch and
        # crashed with AttributeError on .write/iteration.
        original = _rich_trace()
        path = tmp_path / "trace.txt"  # a pathlib.Path, not str
        write_text_trace(original, path)
        loaded = read_text_trace(path)
        assert loaded.instructions == original.instructions

    def test_gz_paths_roundtrip(self, tmp_path):
        original = _rich_trace()
        path = tmp_path / "trace.txt.gz"
        write_text_trace(original, path)
        import gzip

        assert open(path, "rb").read()[:2] == b"\x1f\x8b"
        with gzip.open(path, "rt") as fh:
            assert fh.readline().startswith("#")
        loaded = read_text_trace(path)
        assert loaded.instructions == original.instructions

    def test_roundtrip_bit_identical(self, tmp_path):
        # Equal traces must produce byte-identical files (gzip included:
        # mtime is pinned to 0), so text exports diff cleanly.
        original = _rich_trace()
        for suffix in ("a.txt", "a.txt.gz"):
            p1, p2 = tmp_path / ("1" + suffix), tmp_path / ("2" + suffix)
            write_text_trace(original, p1)
            write_text_trace(original, p2)
            assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_write_is_atomic(self, tmp_path, monkeypatch):
        # Regression: a bare open(path, "w") could leave a torn file; the
        # crash-safe artifact layer writes tmp + fsync + rename, so a
        # failure mid-write must leave the original intact.
        path = tmp_path / "trace.txt"
        write_text_trace(_rich_trace(), path)
        before = open(path, "rb").read()

        import repro.check.artifacts as artifacts

        real_fsync = artifacts.os.fsync

        def exploding_fsync(fd):
            real_fsync(fd)
            raise OSError("disk gone")

        monkeypatch.setattr(artifacts.os, "fsync", exploding_fsync)
        with pytest.raises(OSError):
            write_text_trace(Trace("other", [Instruction(pc=0x1)]), path)
        assert open(path, "rb").read() == before
        leftovers = [p for p in path.parent.iterdir() if p.name != path.name]
        assert not leftovers  # no orphaned temp files

    def test_parse_error_is_trace_error(self, tmp_path):
        # Regression: TraceParseError was a standalone ValueError outside
        # the TraceError taxonomy, bypassing structured CLI handling and
        # suite quarantine.
        from repro.check.errors import TraceError

        assert issubclass(TraceParseError, TraceError)
        assert issubclass(TraceParseError, ValueError)
        path = tmp_path / "bad.txt"
        path.write_text("0x1000\ngarbage line\n")
        with pytest.raises(TraceParseError) as exc:
            read_text_trace(path)
        err = exc.value
        assert err.line_no == 2
        assert err.path == str(path)
        assert err.record_index == 1
        assert str(path) in str(err)


class TestCli:
    def test_gen_and_run(self, tmp_path, capsys):
        out = str(tmp_path / "w.trc")
        assert main(["gen", out, "--category", "int", "--seed", "3",
                     "--instructions", "20000"]) == 0
        generated = read_trace(out)
        assert len(generated) == 20000
        assert main(["run", out, "--prefetcher", "entangling_2k"]) == 0
        captured = capsys.readouterr().out
        assert "IPC:" in captured
        assert "Entangling-2K" in captured or "entangling" in captured.lower()

    def test_sweep(self, tmp_path, capsys):
        out = str(tmp_path / "w.trc")
        main(["gen", out, "--category", "crypto", "--seed", "1",
              "--instructions", "20000"])
        assert main(["sweep", out, "--prefetchers", "no,next_line"]) == 0
        captured = capsys.readouterr().out
        assert "next_line" in captured
        assert "coverage" in captured

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("command", ["run", "import"])
    def test_format_text_on_binary_trace_exits_2(
        self, tmp_path, capsys, command
    ):
        trace = str(tmp_path / "w.trc")
        main(["gen", trace, "--category", "int", "--seed", "1",
              "--instructions", "2000"])
        capsys.readouterr()
        outputs = [str(tmp_path / "out.trc")] if command == "import" else []
        assert main([command, trace, *outputs, "--format", "text"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"{command}: {trace}: line 1: not UTF-8")

    def test_run_unknown_prefetcher(self, tmp_path):
        out = str(tmp_path / "w.trc")
        main(["gen", out, "--category", "fp", "--seed", "1",
              "--instructions", "5000"])
        with pytest.raises(KeyError):
            main(["run", out, "--prefetcher", "hal9000"])


class TestCommitStaging:
    def test_staged_pairs_install_after_delay(self):
        from repro.core.entangling import EntanglingConfig, EntanglingPrefetcher

        pf = EntanglingPrefetcher(EntanglingConfig(commit_delay_accesses=2))
        pf.on_demand_access(10, True, 0)
        pf.on_demand_access(30, False, 100)
        from tests.test_entangling import fill

        pf.on_fill(fill(30, 150, 100))
        # Pair is staged, not yet in the table.
        assert pf.table.peek(10) is None or pf.table.peek(10).find_dst(30) is None
        pf.on_demand_access(40, True, 200)
        pf.on_demand_access(50, True, 210)
        pf.on_demand_access(60, True, 220)
        assert pf.table.peek(10).find_dst(30) is not None

    def test_zero_delay_installs_immediately(self):
        from repro.core.entangling import EntanglingConfig, EntanglingPrefetcher
        from tests.test_entangling import fill

        pf = EntanglingPrefetcher(EntanglingConfig(commit_delay_accesses=0))
        pf.on_demand_access(10, True, 0)
        pf.on_demand_access(30, False, 100)
        pf.on_fill(fill(30, 150, 100))
        assert pf.table.peek(10).find_dst(30) is not None
