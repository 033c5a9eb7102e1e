"""Tests for the shard-side worker loop, driven in-process over a pipe.

:func:`repro.stack.worker.run_worker` only touches the connection's
``recv``/``send`` surface, so these tests run it on a plain thread over a
local ``multiprocessing.Pipe`` pair — same code path the fabric spawns in
a child process, but visible to the coverage tracer and debuggable.
"""

import multiprocessing
import pickle
import threading
import zlib

import numpy as np
import pytest

from repro.stack import Request, ServerConfig, SystemConfig, gemv_reference
from repro.stack.context import PimContext
from repro.stack.profiler import Profiler
from repro.stack.worker import run_worker, serve_round


def rand(shape, seed, scale=0.25):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


CONFIG = SystemConfig(num_pchs=2, num_rows=256, simulate_pchs=1)
SERVER_CONFIG = ServerConfig(lanes=2, max_batch=4)


def wire(items):
    """The CRC32-framed serve message the router sends for ``items``."""
    blob = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
    return ("serve", zlib.crc32(blob), blob)


def recv_payload(conn):
    """Receive one framed result message; returns its verified payload."""
    kind, crc, blob = conn.recv()
    assert kind == "result"
    assert zlib.crc32(blob) == crc
    return pickle.loads(blob)


@pytest.fixture()
def worker():
    """``run_worker`` on a thread; yields the router's end of the pipe."""
    router_end, worker_end = multiprocessing.Pipe()
    thread = threading.Thread(
        target=run_worker, args=(worker_end, CONFIG, SERVER_CONFIG, 3),
        daemon=True,
    )
    thread.start()
    yield router_end
    try:
        router_end.send(("close",))
        if router_end.poll(10.0):
            router_end.recv()
    except (OSError, BrokenPipeError):
        pass
    router_end.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


class TestWorkerProtocol:
    def test_ping_pong(self, worker):
        worker.send(("ping",))
        assert worker.recv() == ("pong", 3)

    def test_serve_round_trip_bit_exact(self, worker):
        w = rand((16, 8), 0)
        items = [
            (rid, Request("gemv", weights=w, a=rand(8, rid + 1)))
            for rid in (10, 11, 12)
        ]
        worker.send(wire(items))
        payload = recv_payload(worker)
        assert payload["shard"] == 3
        assert set(payload["results"]) == {10, 11, 12}
        assert payload["submit_errors"] == {}
        for rid, request in items:
            golden = gemv_reference(request.weights, request.a, CONFIG.num_pchs)
            assert np.array_equal(payload["results"][rid], golden)
            assert payload["outcomes"][rid] == "completed"

    def test_profile_speaks_fabric_ids(self, worker):
        """Request ids and channels come back in the fabric's id spaces."""
        w = rand((16, 8), 0)
        worker.send(wire([(77, Request("gemv", weights=w, a=rand(8, 1)))]))
        payload = recv_payload(worker)
        profile = payload["profile"]
        assert [s.request_id for s in profile.requests] == [77]
        assert all(s.shard == 3 for s in profile.requests)
        base = 3 * CONFIG.num_pchs
        assert all(
            base <= channel < base + CONFIG.num_pchs
            for channel in profile.channel_busy_cycles
        )

    def test_a_round_records_into_no_profiler(self, monkeypatch, worker):
        """The reply carries the round's profile; folding it into the
        worker's own profiler as well would be work nothing reads."""
        calls = []
        monkeypatch.setattr(
            Profiler, "record_serving", lambda self, serving: calls.append(1)
        )
        w = rand((16, 8), 0)
        worker.send(wire([(5, Request("gemv", weights=w, a=rand(8, 1)))]))
        assert recv_payload(worker)["outcomes"] == {5: "completed"}
        assert calls == []

    def test_submit_errors_reported_per_rid(self, worker):
        """A request the shard refuses comes back in submit_errors, not
        as a crash — the router owes it a host completion."""
        good = Request("gemv", weights=rand((16, 8), 0), a=rand(8, 1))
        bad = Request("gemv")  # validate() fails: no operands
        worker.send(wire([(0, good), (1, bad)]))
        payload = recv_payload(worker)
        assert 0 in payload["results"]
        assert set(payload["submit_errors"]) == {1}
        assert 1 not in payload["outcomes"]

    def test_kill_drops_connection_without_reply(self, worker):
        worker.send(("kill",))
        # The worker dies without a goodbye: the next read hits EOF (the
        # pipe reports readable, then recv raises), never a reply tuple.
        assert worker.poll(10.0)
        with pytest.raises((EOFError, OSError)):
            worker.recv()

    def test_unknown_message_reports_error(self, worker):
        worker.send(("frobnicate",))
        kind, body = worker.recv()
        assert kind == "error"
        assert "frobnicate" in body


class TestServeRoundTracing:
    def test_spans_are_shard_tagged_and_rid_rewritten(self):
        config = CONFIG.replace(trace=True)
        with PimContext(config) as ctx:
            server = ctx.server(SERVER_CONFIG)
            w = rand((16, 8), 0)
            items = [
                (500, Request("gemv", weights=w, a=rand(8, 1),
                              trace_id="req500")),
                (501, Request("gemv", weights=w, a=rand(8, 2),
                              trace_id="req501")),
            ]
            payload = serve_round(ctx, server, 2, items)
            assert payload["spans"], "traced round must ship spans"
            assert all(span.shard == 2 for span in payload["spans"])
            rids = {
                span.attrs["request_id"]
                for span in payload["spans"]
                if "request_id" in span.attrs
            }
            assert rids <= {500, 501}
            trace_ids = {
                span.attrs.get("trace_id")
                for span in payload["spans"]
                if "trace_id" in span.attrs
            }
            assert trace_ids == {"req500", "req501"}
            # The round ships-and-forgets: the local tracer is reset so
            # the next round's span ids restart at 1.
            assert ctx.tracer.spans == []
            assert ctx.tracer.events == []


class TestWorkerChecksumProtocol:
    """Satellite: CRC32-framed serve/result payloads and chaos control."""

    @staticmethod
    def gemv_items(rids):
        w = rand((16, 8), 0)
        return [
            (rid, Request("gemv", weights=w, a=rand(8, rid + 1)))
            for rid in rids
        ]

    def test_crc_framed_round_trip_bit_exact(self, worker):
        items = self.gemv_items((20, 21))
        worker.send(wire(items))
        payload = recv_payload(worker)
        for rid, request in items:
            golden = gemv_reference(request.weights, request.a, CONFIG.num_pchs)
            assert np.array_equal(payload["results"][rid], golden)

    def test_corrupted_dispatch_detected_not_served(self, worker):
        items = self.gemv_items((30,))
        blob = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
        corrupted = bytearray(blob)
        corrupted[len(corrupted) // 2] ^= 0x40
        worker.send(("serve", zlib.crc32(blob), bytes(corrupted)))
        kind, body = worker.recv()
        assert kind == "error"
        assert "CRC32" in body

    def test_chaos_corrupt_reply_fails_router_checksum(self, worker):
        worker.send(("chaos", {"corrupt_reply": True, "seed": 1}))
        assert worker.recv() == ("chaos-ok", 3)
        worker.send(wire(self.gemv_items((40,))))
        message = worker.recv()
        assert message[0] == "result" and len(message) == 3
        _, crc, blob = message
        # The blob was corrupted *after* checksumming: the CRC must not
        # match, which is exactly what the router's verification catches.
        assert zlib.crc32(blob) != crc
        # One-shot fault: the next round is clean again.
        worker.send(wire(self.gemv_items((41,))))
        _, crc, blob = worker.recv()
        assert zlib.crc32(blob) == crc

    def test_chaos_delay_stalls_next_serve_only(self, worker):
        import time

        worker.send(("chaos", {"delay_s": 0.2}))
        assert worker.recv() == ("chaos-ok", 3)
        t0 = time.monotonic()
        worker.send(wire(self.gemv_items((50,))))
        recv_payload(worker)
        assert time.monotonic() - t0 >= 0.2
        t0 = time.monotonic()
        worker.send(wire(self.gemv_items((51,))))
        recv_payload(worker)
        assert time.monotonic() - t0 < 0.2

    def test_chaos_bad_spec_reports_error(self, worker):
        worker.send(("chaos", {"fail_channel": 99}))
        kind, body = worker.recv()
        assert kind == "error"
        assert "channel" in body.lower()
