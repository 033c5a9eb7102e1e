"""The chaos harness end to end: invariants hold, properties survive fuzzing.

The hypothesis property is the satellite acceptance check: *any* seeded
chaos schedule (over the fast fault kinds — no wall-clock stalls) leaves
every request with exactly one terminal outcome, bit-exact results, a
valid merged trace, zero device spans for dropped work, and full ring
capacity after healing.  ``gates=False`` skips the fault-free baseline
session the degradation gates need, keeping each example cheap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosSchedule, run_chaos
from repro.chaos.invariants import check_capacity, check_conservation
from repro.stack.profiler import RequestStats, ServingProfile

# Fault kinds that wait out no wall-clock stall: cheap enough to fuzz.
# kill qualifies: the stall it arms on its victim is cut short by the
# SIGKILL.  kill_router qualifies: the router crash is emulated
# in-process and its journal recovery replays on the simulated clock.
FAST_KINDS = (
    "kill",
    "kill_router",
    "corrupt_pipe",
    "corrupt_shm",
    "bit_flips",
    "fail_channel",
)


class TestHarnessSmoke:
    def test_fast_kinds_scenario_holds_every_invariant(self):
        report = run_chaos(
            seed=3, workers=2, requests=12, kinds=FAST_KINDS, gates=False
        )
        assert report.ok, "\n".join(report.violations)
        assert report.alive_after == [0, 1]
        assert len(report.applied) == len(FAST_KINDS)
        assert sum(report.profile.outcomes().values()) == report.requests

    def test_shm_transport_matches_pipe_oracle(self):
        """Satellite: the same chaos schedule under transport="shm" is
        bit-exact against its pipe twin — profiles, outcomes, and span
        trees — with the corrupt_shm kind striking a real frame.  The
        schedule includes kill_router, so the run also proves recovery
        re-creates the shm plumbing without leaking a segment."""
        from repro.stack.shm import live_segments

        from ..reference.span_trees import diff_span_trees

        segments_before = live_segments()
        runs = {
            transport: run_chaos(
                seed=3, workers=2, requests=12, kinds=FAST_KINDS,
                gates=False, transport=transport,
            )
            for transport in ("pipe", "shm")
        }
        pipe, shm = runs["pipe"], runs["shm"]
        assert shm.ok, "\n".join(shm.violations)
        assert pipe.profile.render() == shm.profile.render()
        assert pipe.profile.outcomes() == shm.profile.outcomes()
        assert [
            (r.request_id, r.outcome, r.shard, r.finish_ns)
            for r in pipe.profile.requests
        ] == [
            (r.request_id, r.outcome, r.shard, r.finish_ns)
            for r in shm.profile.requests
        ]
        assert diff_span_trees(pipe.tracer, shm.tracer) is None
        assert live_segments() == segments_before

    def test_report_renders(self):
        report = run_chaos(
            seed=3, workers=2, requests=8, kinds=("bit_flips",), gates=False
        )
        text = "\n".join(report.render())
        assert "chaos scenario" in text
        assert "violations" in text
        # Where each request was served, in submission order.
        assert len(report.placement) == report.requests
        assert set(report.placement) <= {-1, 0, 1}
        line = "shard per request     : " + " ".join(map(str, report.placement))
        assert line in report.render()

    def test_explicit_schedule_honoured(self):
        schedule = ChaosSchedule.generate(5, workers=2, kinds=("kill",))
        report = run_chaos(
            seed=5, workers=2, requests=8, schedule=schedule, gates=False
        )
        assert report.ok, "\n".join(report.violations)
        assert report.schedule is schedule
        assert any(entry.startswith("kill@") for entry in report.applied)


class TestInvariantCheckers:
    """The checkers themselves must catch violations, not just pass."""

    def test_conservation_flags_phantom_profile_entry(self):
        profile = ServingProfile()
        stats = RequestStats(
            request_id=99, op="gemv", arrival_ns=0.0, start_ns=0.0,
            finish_ns=1.0, outcome="completed",
        )
        profile.requests.append(stats)
        violations = check_conservation([], profile)
        assert any("never submitted" in v for v in violations)

    def test_capacity_flags_missing_shard(self):
        violations = check_capacity([0], workers=2)
        assert violations
        assert any("capacity" in v for v in violations)

    def test_capacity_ok_when_full(self):
        assert check_capacity([0, 1], workers=2) == []


class TestKillRouter:
    """The journal is the only survivor of a router crash (PR 8)."""

    def test_kill_router_wave_recovers_every_request(self, tmp_path):
        report = run_chaos(
            seed=11, workers=2, requests=16, kinds=("kill_router",),
            gates=False, journal_dir=str(tmp_path),
        )
        assert report.ok, "\n".join(report.violations)
        assert "kill_router@router" in report.applied
        # The crashed wave's requests came back through journal recovery:
        # terminal, bit-exact (checked by the invariant suite), and
        # tagged so they never inflate goodput.
        assert report.profile.recovered > 0
        recovered = [s for s in report.profile.requests if s.recovered]
        assert len(recovered) == report.profile.recovered
        assert all(s.outcome == "completed" for s in recovered)

    def test_kill_router_composes_with_worker_faults(self):
        report = run_chaos(
            seed=4, workers=2, requests=16,
            kinds=("kill", "kill_router", "corrupt_pipe"), gates=False,
        )
        assert report.ok, "\n".join(report.violations)
        assert "kill_router@router" in report.applied


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    kinds=st.sets(st.sampled_from(FAST_KINDS), min_size=1).map(
        lambda s: tuple(sorted(s))
    ),
)
@settings(max_examples=5, deadline=None)
def test_any_chaos_schedule_preserves_fabric_contract(seed, kinds):
    """Property (satellite): every request ends in exactly one terminal
    outcome, dropped work has zero device spans, capacity recovers —
    regardless of which faults fire where (a router crash included:
    SIGKILL at any scheduled wave point, then recovery, still yields
    exactly one bit-exact terminal outcome per journaled request)."""
    report = run_chaos(
        seed=seed, workers=2, requests=8, kinds=kinds, gates=False
    )
    assert report.ok, "\n".join(report.violations)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=3, deadline=None)
def test_router_crash_at_any_wave_point_conserves_outcomes(seed):
    """Property (tentpole acceptance): a kill_router event at any seeded
    wave point, recovered through the journal, leaves every request with
    exactly one terminal outcome, bit-exact against the golden path."""
    report = run_chaos(
        seed=seed, workers=2, requests=12, kinds=("kill_router", "kill"),
        gates=False,
    )
    assert report.ok, "\n".join(report.violations)
    assert report.profile.recovered > 0
