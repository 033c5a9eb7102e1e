"""End-to-end gates on one in-process ``PimServer``.

Each test serves the command-line workload (``_serving_setup`` /
``_poisson_stream``: GEMV 64x96 and ADD over 256 elements, 2 lanes,
seed 7) through the library and asserts one contract no tier-1 test
pins.  ``tests/gates`` sits outside the tier-1 collection; run it with
``PYTHONPATH=src python -m pytest tests/gates -q``.  Each docstring names
a deliberate break of the library the test fails on.
"""

import numpy as np

import repro.dram.device
from repro.__main__ import _poisson_stream, _serving_setup
from repro.dram.bank import Bank
from repro.dram.ecc import EccBank
from repro.faults import FaultConfig
from repro.journal import read_records
from repro.obs import diff_span_trees, validate_chrome_trace, write_chrome_trace
from repro.stack import PimServer, PimSystem

from tests.dram.eager_ecc import EagerEccBank

SEED = 7


def serve(config, server_config, requests):
    """One session on a fresh system: ``(system, handles, profile)``."""
    system = PimSystem(config)
    with PimServer(system, server_config) as server:
        handles = [server.submit(request) for request in requests]
        profile = server.run()
    return system, handles, profile


def test_overload_goodput_stays_within_10_percent_of_baseline():
    """Twice the saturation load on an 8-deep shedding queue sheds work
    and keeps goodput within 10% of an unbounded server at saturation:
    no congestion collapse.  Fails when admission sheds at a depth of one
    (``len(admitted) >= 1`` for ``>= self.queue_depth`` in
    ``PimServer._admit``): batches shrink and goodput drops by half."""
    config, server_config, _, w = _serving_setup(SEED)
    _, _, baseline = serve(
        config, server_config,
        _poisson_stream(np.random.default_rng(SEED), w, 32, 500.0),
    )
    _, _, overloaded = serve(
        config, server_config.replace(queue_depth=8, admission="shed"),
        _poisson_stream(np.random.default_rng(SEED + 1), w, 64, 250.0),
    )
    assert overloaded.rejected > 0
    assert overloaded.goodput_rps() >= 0.9 * baseline.goodput_rps()


def test_array_sec_ded_serves_like_the_per_word_oracle(monkeypatch):
    """Two dead channels, bit flips, a scrub every two batches: the lazy
    ECC array of the production :class:`~repro.dram.ecc.EccBank` and the
    eager oracle (``tests/dram/eager_ecc.py``, patched in as the device's
    ECC bank) make the same corrections, scrubs and retries, so the two
    profiles render identically.  Fails when the scrub keeps a corrected
    word's entry (``continue`` before ``del entries[word]`` on the
    corrected branch of ``EccBank.scrub_row``): the stale check byte is
    corrected again on every read."""
    renders = []
    for bank_cls in (None, EagerEccBank):
        if bank_cls is not None:
            monkeypatch.setattr(
                repro.dram.device, "_bank_cls",
                lambda cfg: bank_cls if cfg.ecc else Bank,
            )
        config, server_config, rng, w = _serving_setup(SEED)
        config = config.replace(
            ecc=True,
            faults=FaultConfig(
                bit_flip_rate=1e-4,
                check_flip_rate=1e-4,
                register_fault_rate=0.05,
                failed_channels=(0, 1),
                seed=SEED,
            ),
        )
        system, _, profile = serve(
            config, server_config.replace(scrub_interval=2),
            _poisson_stream(rng, w, 24, 2000.0),
        )
        ecc_banks = {type(bank) for ch in system.device.pchs for bank in ch.banks}
        assert ecc_banks == {bank_cls or EccBank}
        assert profile.ecc_corrected + profile.scrub_corrected > 0
        renders.append(profile.render())
    assert renders[0] == renders[1]


def test_the_journaled_stream_replays_byte_identically(tmp_path):
    """Re-serving what the journal captured — not the in-memory requests
    — on a fresh system gives the recorded profile, span tree and result
    bytes.  Fails when the journal rounds a request's arrival to a whole
    nanosecond (``request.replace(arrival_ns=round(request.arrival_ns))``
    in ``JournalWriter.append_accepted``)."""
    config, server_config, _, w = _serving_setup(SEED, trace=True)
    requests = _poisson_stream(
        np.random.default_rng(SEED), w, 32, 2000.0,
        trace_prefix=f"replay-s{SEED}",
    )
    journal = str(tmp_path / "record")
    recorded_system, recorded, recorded_profile = serve(
        config, server_config.replace(journal_dir=journal), requests
    )
    accepted = sorted(
        (r for r in read_records(journal) if r["kind"] == "accepted"),
        key=lambda r: r["rid"],
    )
    assert len(accepted) == len(requests)
    replayed_system, replayed, replayed_profile = serve(
        config, server_config, [r["request"] for r in accepted]
    )
    assert replayed_profile.render() == recorded_profile.render()
    assert diff_span_trees(recorded_system.tracer, replayed_system.tracer) is None
    assert [h.result.tobytes() for h in replayed] == [
        h.result.tobytes() for h in recorded
    ]


def test_the_trace_reconciles_with_the_profile_and_validates(tmp_path):
    """What ``trace --out`` writes: one request span per request, the
    spans' extent within 1% of the profile's makespan, and a file that
    passes the Chrome trace-event schema.  Fails when a batch's head
    request span ends late (``finish * 1.05`` where ``PimServer``'s
    dispatch finishes ``head_span``)."""
    config, server_config, rng, w = _serving_setup(SEED, trace=True)
    system, _, profile = serve(
        config, server_config, _poisson_stream(rng, w, 32, 2000.0)
    )
    spans = system.tracer.request_spans()
    assert len(spans) == profile.num_requests
    extent = max(span.end_ns for span in spans)
    assert abs(extent - profile.makespan_ns) <= 0.01 * profile.makespan_ns
    path = str(tmp_path / "trace.json")
    write_chrome_trace(system.tracer, path)
    assert validate_chrome_trace(path) == []
