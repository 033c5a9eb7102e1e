"""The default execution path against the ``exec_mode="scalar"`` oracle.

``SystemConfig()`` now trace-compiles AB-PIM windows and the device
advances one shared all-bank state per broadcast; both only make the
simulator faster.  On the four shapes of the end-to-end ledger
(``benchmarks/e2e``, quick sizes, its own seeded wave generators) the
default system must produce, wave for wave, the simulated statistics,
``ExecutionReport``s, command counters and results of the execution units
run trigger by trigger with per-word SEC-DED — byte for byte.
"""

import dataclasses

import pytest

from benchmarks.e2e.workloads import SPECS, make_wave, open_session, stop_children
from repro.pim.fused import FusedLockstepGroup
from repro.pim.lockstep import LockstepGroup
from repro.stack.profiler import Profiler

SEED = 7
WAVES = 3


def run(spec, monkeypatch, **knobs):
    """Everything simulated about ``WAVES`` quick waves of ``spec``."""
    reports = []
    record = Profiler.record

    def capture(self, report):
        reports.append(repr(dataclasses.astuple(report)))
        record(self, report)

    signatures = []
    with monkeypatch.context() as patch, open_session(spec, True, **knobs) as session:
        patch.setattr(Profiler, "record", capture)
        for index in range(WAVES):
            result = session.run_wave(make_wave(spec, SEED, index, True))
            assert result.failures == []  # bit-exact with the host references
            signatures.append(result.sim_signature())
        counters = session.counters()
        context = getattr(session, "ctx", None)
        group = context and type(context.system.device.pchs[0].lockstep)
    # Not simulated: the cache's own tallies, and the journal's size (its
    # header spells out the config, ``exec_mode`` included).
    for name in ("trace_hits", "trace_misses", "journal_bytes"):
        counters.pop(name, None)
    return {
        "signatures": signatures,
        "reports": reports,
        "counters": counters,
    }, group


@pytest.mark.parametrize("name", sorted(SPECS))
def test_default_matches_the_scalar_oracle(name, monkeypatch):
    spec = SPECS[name]
    try:
        default, default_group = run(spec, monkeypatch)
        oracle, oracle_group = run(spec, monkeypatch, exec_mode="scalar")
    finally:
        stop_children()
    if spec.kind != "fabric":  # the fabric's systems live in its workers
        assert default_group is FusedLockstepGroup
        assert oracle_group is LockstepGroup
        assert default["reports"]
    assert default == oracle
