"""Smoke tests for the python -m repro entry point."""

import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=300,
    )


class TestCli:
    def test_demo(self):
        result = run_cli("demo")
        assert result.returncode == 0
        assert "DRAM cycles" in result.stdout

    def test_specs(self):
        result = run_cli("specs")
        assert result.returncode == 0
        assert "9.6 GFLOPs" in result.stdout

    def test_trace(self):
        result = run_cli("trace")
        assert result.returncode == 0
        assert "all-bank-pim" in result.stdout

    def test_report(self):
        result = run_cli("report")
        assert result.returncode == 0
        assert "Table I" in result.stdout
        assert "Fig. 14" in result.stdout

    def test_unknown_command(self):
        result = run_cli("frobnicate")
        assert result.returncode == 1


class TestReplayCli:
    """The durability entry points, driven in-process: ``replay
    --selftest/--trace/--journal`` and ``serve-bench --replay``."""

    def _run(self, *args):
        import io
        from contextlib import redirect_stdout

        from repro.__main__ import main

        out = io.StringIO()
        with redirect_stdout(out):
            rc = main(list(args))
        return rc, out.getvalue()

    def test_replay_selftest(self):
        rc, out = self._run("replay", "--selftest")
        assert rc == 0, out
        assert "[ok] emit/parse/execute round-trip" in out

    def test_replay_without_mode_prints_help(self, capsys):
        from repro.__main__ import main

        assert main(["replay"]) == 1

    def test_replay_trace_file_round_trips(self, tmp_path):
        from repro.tools.pimulator import sample_trace

        trace = tmp_path / "sample.trace"
        trace.write_text(sample_trace())
        emitted = tmp_path / "canonical.trace"
        rc, out = self._run(
            "replay", "--trace", str(trace), "--emit", str(emitted)
        )
        assert rc == 0, out
        assert "state digest" in out
        assert "[ok] emit/parse/execute round-trip" in out
        # The canonical emission is itself a valid, equivalent trace.
        rc2, out2 = self._run("replay", "--trace", str(emitted))
        assert rc2 == 0, out2

    def test_replay_trace_rejects_malformed_file(self, tmp_path):
        trace = tmp_path / "bad.trace"
        trace.write_text("SB X 5\n")
        rc, out = self._run("replay", "--trace", str(trace))
        assert rc == 1
        assert "replay failed" in out

    def test_replay_journal_recovers_and_exports(self, tmp_path):
        import numpy as np

        from repro.stack import (
            PimServer, PimSystem, Request, ServerConfig, SystemConfig,
        )

        rng = np.random.default_rng(3)
        config = SystemConfig(num_pchs=2, num_rows=128, simulate_pchs=1)
        server_config = ServerConfig(
            lanes=1, max_batch=4, journal_dir=str(tmp_path)
        )
        with PimServer(PimSystem(config), server_config) as server:
            for i in range(4):
                server.submit(Request(
                    "add",
                    a=(rng.standard_normal(32) * 0.25).astype(np.float16),
                    b=(rng.standard_normal(32) * 0.25).astype(np.float16),
                    arrival_ns=float(i * 1000), trace_id=f"cli-{i}",
                ))
            server.submit(Request(
                "gemv",
                weights=(rng.standard_normal((64, 96)) * 0.25).astype(np.float16),
                a=(rng.standard_normal(96) * 0.25).astype(np.float16),
                arrival_ns=4000.0, trace_id="cli-gemv",
            ))
            server.run()
        exported = tmp_path / "exported.trace"
        rc, out = self._run(
            "replay", "--journal", str(tmp_path),
            "--export-trace", str(exported),
        )
        assert rc == 0, out
        assert "every journaled request has exactly one terminal" in out
        # The export is the kernels' command stream: one PIM line per
        # triggering column command, on every stream (2 channels, 1 lane),
        # and one SB R line per column of a GEMV stream's readback.
        from repro.stack.kernels import column_commands, column_cost

        lines = exported.read_text().splitlines()
        pim_lines = sum(line.startswith("PIM") for line in lines)
        assert pim_lines == 2 * (
            4 * column_commands("add", (32,), 2)
            + column_commands("gemv", (64, 96), 2)
        )
        sb_reads = sum(line.startswith("SB R ") for line in lines)
        assert sb_reads == 2 * (
            column_cost("gemv", (64, 96), 2) - column_commands("gemv", (64, 96), 2)
        )
        # The exported trace-ISA stream executes and round-trips.
        rc2, out2 = self._run("replay", "--trace", str(exported))
        assert rc2 == 0, out2

    def test_replay_journal_corrupt_mid_stream_fails(self, tmp_path):
        from repro.journal.wal import JournalWriter, segment_path

        with JournalWriter(str(tmp_path)) as writer:
            writer.append({"kind": "meta"})
            writer.append({"kind": "meta"})
        # Flip a byte in the FIRST frame: mid-stream damage, not a torn
        # tail, so recovery must refuse rather than guess.
        segment = segment_path(str(tmp_path), 1)
        with open(segment, "rb") as handle:
            data = bytearray(handle.read())
        data[10] ^= 0xFF
        with open(segment, "wb") as handle:
            handle.write(bytes(data))
        rc, out = self._run("replay", "--journal", str(tmp_path))
        assert rc == 1
        assert "recovery failed" in out

    def test_serve_bench_replay_smoke(self):
        rc, out = self._run("serve-bench", "--replay", "--seed", "5")
        assert rc == 0, out
        assert "[ok] replayed profile identical" in out
        assert "[ok] replayed results bit-exact" in out


class TestTraceCli:
    """The observability entry points: ``trace --out`` and
    ``serve-bench --trace``."""

    def test_trace_emits_valid_reconciled_chrome_trace(self, tmp_path):
        import json

        out = tmp_path / "trace.json"
        spans = tmp_path / "spans.jsonl"
        metrics = tmp_path / "metrics.txt"
        result = run_cli(
            "trace", "--out", str(out), "--spans", str(spans),
            "--metrics", str(metrics), "--validate", "--requests", "16",
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "drift" in result.stdout
        assert "[ok] trace validates" in result.stdout
        assert "span timeline" in result.stdout
        obj = json.loads(out.read_text())
        assert any(e.get("ph") == "X" for e in obj["traceEvents"])
        assert len(spans.read_text().splitlines()) > 0
        assert "counter   serving.batches" in metrics.read_text()

    def test_serve_bench_trace_flag(self, tmp_path):
        import json

        out = tmp_path / "sb.json"
        result = run_cli("serve-bench", "--trace", str(out))
        assert result.returncode == 0, result.stdout + result.stderr
        assert f"to {out}" in result.stdout
        obj = json.loads(out.read_text())
        assert any(
            e.get("cat") == "request" for e in obj["traceEvents"]
        )
