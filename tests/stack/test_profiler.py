"""Tests for the session profiler."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stack.blas import PimBlas
from repro.stack.profiler import (
    KernelProfile,
    Profiler,
    RequestStats,
    ServingProfile,
    SessionProfile,
    _percentile,
)
from repro.stack.runtime import PimSystem, SystemConfig


def rand(shape, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


@pytest.fixture()
def blas():
    return PimBlas(PimSystem(SystemConfig(num_pchs=1, num_rows=256)))


class TestProfiler:
    def test_records_gemv_calls(self, blas):
        w = rand((128, 64), 0)
        blas.gemv(w, rand(64, 1))
        blas.gemv(w, rand(64, 2))
        profile = blas.profiler.profile.kernels["gemv[128x64]"]
        assert profile.invocations == 2
        assert profile.cycles > 0
        assert profile.pim_flops > 0

    def test_results_pass_through_unchanged(self, blas):
        w, x = rand((128, 64), 3), rand(64, 4)
        y = blas.gemv(w, x)
        gold = w.astype(np.float32) @ x.astype(np.float32)
        assert np.abs(y - gold).max() < 1e-3
        assert blas.profiler.profile.kernels["gemv[128x64]"].cycles > 0

    def test_mixed_kernels_profiled_separately(self, blas):
        blas.gemv(rand((128, 64), 5), rand(64, 6))
        blas.add(rand(2000, 7), rand(2000, 8))
        names = set(blas.profiler.profile.kernels)
        assert any(n.startswith("gemv") for n in names)
        assert any(n.startswith("add") for n in names)

    def test_time_share_sums_to_one(self, blas):
        blas.gemv(rand((128, 64), 9), rand(64, 10))
        blas.add(rand(2000, 11), rand(2000, 12))
        shares = blas.profiler.profile.time_share()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_lstm_cell_reports_collected(self, blas):
        h, d = 48, 32
        blas.lstm_cell(
            rand((4 * h, d), 13), rand((4 * h, h), 14),
            rand(4 * h, 15).astype(np.float32),
            rand(d, 16), rand(h, 17), rand(h, 18),
        )
        kernels = blas.profiler.profile.kernels.values()
        assert sum(k.invocations for k in kernels) == 2  # two GEMVs inside the cell

    def test_render_table(self, blas):
        blas.gemv(rand((128, 64), 19), rand(64, 20))
        lines = blas.profiler.profile.render()
        assert len(lines) >= 2
        assert "GFLOP/s" in lines[0]

    def test_command_utilisation_bounded(self, blas):
        blas.add(rand(4000, 21), rand(4000, 22))
        for profile in blas.profiler.profile.kernels.values():
            assert 0.0 < profile.command_utilisation() <= 1.0

    def test_blas_shares_a_given_profiler(self):
        profiler = Profiler()
        blas = PimBlas(
            PimSystem(SystemConfig(num_pchs=1, num_rows=256)), profiler=profiler
        )
        blas.relu(rand(512, 23))
        assert blas.profiler is profiler
        assert profiler.profile.kernels["relu[512]"].invocations == 1


class TestProfileDataStructures:
    def test_empty_session(self):
        session = SessionProfile()
        assert session.time_share() == {}
        assert session.total_ns == 0

    def test_empty_kernel_profile(self):
        profile = KernelProfile("x")
        assert profile.command_utilisation() == 0.0
        assert profile.gflops() == 0.0


class TestPercentileEdgeCases:
    def test_empty_list_is_zero_for_any_quantile(self):
        for q in (0.0, 0.5, 0.95, 1.0):
            assert _percentile([], q) == 0.0

    def test_single_element_is_returned_for_any_quantile(self):
        for q in (0.0, 0.5, 1.0):
            assert _percentile([42.0], q) == 42.0

    def test_extreme_quantiles_hit_min_and_max(self):
        values = [30.0, 10.0, 20.0, 40.0]
        assert _percentile(values, 0.0) == 10.0
        assert _percentile(values, 1.0) == 40.0

    def test_out_of_range_quantiles_clamp_to_extremes(self):
        values = [3.0, 1.0, 2.0]
        # Percent-style misuse (95 instead of 0.95) degrades to the max
        # instead of indexing out of bounds.
        assert _percentile(values, 95.0) == 3.0
        assert _percentile(values, -0.5) == 1.0

    def test_unsorted_input_is_ranked_not_indexed(self):
        assert _percentile([9.0, 1.0, 5.0], 0.5) == 5.0


class TestServingProfileEdgeCases:
    def test_empty_profile_reports_zero_not_nan(self):
        profile = ServingProfile()
        assert profile.throughput_rps() == 0.0
        assert profile.goodput_rps() == 0.0
        assert profile.mean_wait_ns() == 0.0
        assert profile.mean_service_ns() == 0.0
        assert profile.mean_turnaround_ns() == 0.0
        assert profile.p95_turnaround_ns() == 0.0
        assert profile.mean_batch_size() == 0.0
        assert profile.outcomes() == {}
        assert profile.channel_occupancy() == {}
        assert profile.turnaround_percentiles_by_priority() == {}
        assert profile.shard_cost_imbalance() == 1.0
        assert not any("shard cost" in line for line in profile.render())

    def test_shard_cost_renders_max_and_mean_for_fabric_runs(self):
        profile = ServingProfile(shard_cost={0: 576, 1: 544, 2: 0})
        assert profile.shard_cost_imbalance() == 576 * 3 / 1120
        assert (
            "  shard cost (col cmds)  : max 576 / mean 373.3"
            in profile.render()
        )
        assert ServingProfile(shard_cost={0: 0}).shard_cost_imbalance() == 1.0

    def test_zero_makespan_profile_reports_zero_rates(self):
        # Every request shed at t=0: terminal requests exist but the
        # session never advanced the clock — rates are 0.0, not a
        # ZeroDivisionError.
        profile = ServingProfile()
        profile.record(
            RequestStats(
                request_id=0, op="add", arrival_ns=0.0, start_ns=0.0,
                finish_ns=0.0, batch_size=0, outcome="rejected",
            )
        )
        assert profile.makespan_ns == 0.0
        assert profile.throughput_rps() == 0.0
        assert profile.goodput_rps() == 0.0

    def test_never_served_request_stats(self):
        # Shed after queueing for 4ns: wait is defined, service is zero.
        stats = RequestStats(
            request_id=1, op="gemv", arrival_ns=5.0, start_ns=9.0,
            finish_ns=9.0, batch_size=0, outcome="expired",
        )
        assert stats.wait_ns == 4.0
        assert stats.service_ns == 0.0
        assert stats.turnaround_ns == 4.0

    def test_goodput_counts_only_useful_outcomes(self):
        profile = ServingProfile()
        for i, outcome in enumerate(
            ["completed", "degraded_host", "rejected", "expired", "failed"]
        ):
            profile.record(
                RequestStats(
                    request_id=i, op="add", arrival_ns=0.0, start_ns=0.0,
                    finish_ns=1000.0 if outcome in ("completed", "degraded_host")
                    else 0.0,
                    batch_size=1 if outcome in ("completed", "degraded_host")
                    else 0,
                    outcome=outcome,
                )
            )
        assert profile.num_requests == 5
        assert profile.rejected == 1
        assert profile.expired == 1
        assert profile.degraded == 1
        # 5 terminal requests over 1us, but only 2 produced results.
        assert profile.throughput_rps() == pytest.approx(5e6)
        assert profile.goodput_rps() == pytest.approx(2e6)

    def test_priority_percentiles_exclude_dropped_requests(self):
        profile = ServingProfile()
        profile.record(
            RequestStats(
                request_id=0, op="add", arrival_ns=0.0, start_ns=100.0,
                finish_ns=200.0, priority=1, outcome="completed",
            )
        )
        # A shed request of the same class: zero-length turnaround must
        # not flatter the class's latency distribution.
        profile.record(
            RequestStats(
                request_id=1, op="add", arrival_ns=0.0, start_ns=0.0,
                finish_ns=0.0, batch_size=0, priority=1, outcome="rejected",
            )
        )
        by_priority = profile.turnaround_percentiles_by_priority((0.5,))
        assert by_priority == {1: {0.5: 200.0}}


def _session(
    request_specs, breakers=(), makespan_cycles=0, busy=(), **counters
):
    """Build one ServingProfile from compact specs.

    ``request_specs`` is a list of ``(priority, outcome, arrival, start,
    finish)``; ``breakers`` a list of ``(lane, previous, state, at_ns)``.
    """
    profile = ServingProfile(makespan_cycles=makespan_cycles)
    for i, (priority, outcome, arrival, start, finish) in enumerate(
        request_specs
    ):
        profile.record(
            RequestStats(
                request_id=i, op="add", arrival_ns=arrival, start_ns=start,
                finish_ns=finish, priority=priority, outcome=outcome,
            )
        )
    for lane, previous, state, at_ns in breakers:
        profile.record_breaker(lane, previous, state, at_ns)
    for channel, cycles in busy:
        profile.channel_busy_cycles[channel] = cycles
    for name, value in counters.items():
        setattr(profile, name, value)
    return profile


class TestServingProfileMerge:
    """merge(a, b) must equal the profile one combined session records."""

    A_REQUESTS = [
        (0, "completed", 0.0, 50.0, 150.0),
        (1, "completed", 10.0, 60.0, 400.0),
        (0, "rejected", 20.0, 20.0, 20.0),
    ]
    B_REQUESTS = [
        (1, "completed", 500.0, 550.0, 900.0),
        (0, "degraded_host", 510.0, 510.0, 800.0),
        (1, "expired", 520.0, 520.0, 520.0),
    ]
    A_BREAKERS = [(0, "closed", "open", 120.0)]
    B_BREAKERS = [(0, "open", "half_open", 600.0), (0, "half_open", "closed", 700.0)]

    def make_pair(self):
        a = _session(
            self.A_REQUESTS, breakers=self.A_BREAKERS, makespan_cycles=1000,
            busy=[(0, 600), (1, 200)], batches=2, launches=3, retries=1,
            scrubs=1, scrub_corrected=2, ecc_corrected=4, faults_injected=5,
            retry_budget_exhausted=1, breaker_short_circuits=1,
        )
        b = _session(
            self.B_REQUESTS, breakers=self.B_BREAKERS, makespan_cycles=400,
            busy=[(1, 100), (2, 300)], batches=1, launches=1, fallbacks=2,
            scrubs=1, scrub_uncorrectable=1,
        )
        combined = _session(
            self.A_REQUESTS + self.B_REQUESTS,
            breakers=self.A_BREAKERS + self.B_BREAKERS,
            makespan_cycles=1400,
            busy=[(0, 600), (1, 300), (2, 300)],
            batches=3, launches=4, retries=1, fallbacks=2, scrubs=2,
            scrub_corrected=2, scrub_uncorrectable=1, ecc_corrected=4,
            faults_injected=5, retry_budget_exhausted=1,
            breaker_short_circuits=1,
        )
        return a, b, combined

    def test_merge_equals_combined_session(self):
        a, b, combined = self.make_pair()
        merged = a.merge(b)
        assert merged is a
        assert merged.num_requests == combined.num_requests
        assert merged.outcomes() == combined.outcomes()
        assert merged.makespan_ns == combined.makespan_ns
        assert merged.makespan_cycles == combined.makespan_cycles
        assert merged.channel_busy_cycles == combined.channel_busy_cycles
        assert merged.channel_occupancy() == combined.channel_occupancy()
        for name in (
            "batches", "launches", "retries", "fallbacks", "scrubs",
            "scrub_corrected", "scrub_uncorrectable", "ecc_corrected",
            "faults_injected", "rejected", "expired", "degraded",
            "retry_budget_exhausted", "breaker_opens",
            "breaker_short_circuits",
        ):
            assert getattr(merged, name) == getattr(combined, name), name

    def test_merge_carries_breaker_transitions(self):
        """The regression: ad-hoc merging historically dropped the
        transition log, leaving only the scalar open counter."""
        a, b, combined = self.make_pair()
        merged = a.merge(b)
        assert merged.breaker_transitions == combined.breaker_transitions
        assert merged.breaker_opens == combined.breaker_opens == 1

    def test_merge_carries_percentile_inputs(self):
        """Per-priority percentiles need the raw per-request stats, not
        just aggregates — merge must carry every RequestStats across."""
        a, b, combined = self.make_pair()
        merged = a.merge(b)
        assert (
            merged.turnaround_percentiles_by_priority()
            == combined.turnaround_percentiles_by_priority()
        )
        assert merged.p95_turnaround_ns() == combined.p95_turnaround_ns()
        assert merged.render() == combined.render()

    def test_profiler_record_serving_merges_sessions(self):
        a, b, combined = self.make_pair()
        profiler = Profiler()
        profiler.record_serving(a)
        profiler.record_serving(b)
        assert profiler.serving.num_requests == combined.num_requests
        assert profiler.serving.render() == combined.render()

    def test_record_serving_leaves_the_recorded_sessions_alone(self):
        """The profiler folds sessions into a profile of its own: the
        first session's profile, handed back to its caller, must not grow
        when a later session is recorded."""
        a, b, combined = self.make_pair()
        a_requests, b_requests = a.num_requests, b.num_requests
        profiler = Profiler()
        profiler.record_serving(a)
        profiler.record_serving(b)
        assert profiler.serving is not a and profiler.serving is not b
        assert (a.num_requests, b.num_requests) == (a_requests, b_requests)
        assert profiler.serving.num_requests == combined.num_requests


def _random_profile(draw_seed: int, shard: int) -> ServingProfile:
    """One shard-flavoured ServingProfile from a deterministic seed."""
    rng = np.random.default_rng(draw_seed)
    profile = ServingProfile(makespan_cycles=int(rng.integers(0, 500)))
    outcomes = ["completed", "rejected", "expired", "degraded_host"]
    for i in range(int(rng.integers(1, 6))):
        arrival = float(rng.integers(0, 1000))
        start = arrival + float(rng.integers(0, 100))
        profile.record(
            RequestStats(
                request_id=int(rng.integers(0, 1000)),
                op="gemv",
                arrival_ns=arrival,
                start_ns=start,
                finish_ns=start + float(rng.integers(0, 400)),
                lane=int(rng.integers(0, 3)),
                shard=shard,
                priority=int(rng.integers(0, 3)),
                outcome=outcomes[int(rng.integers(0, len(outcomes)))],
            )
        )
    for _ in range(int(rng.integers(0, 3))):
        profile.record_breaker(
            int(rng.integers(0, 3)), "closed", "open",
            float(rng.integers(0, 1000)), shard=shard,
        )
    profile.channel_busy_cycles[int(rng.integers(0, 8))] = int(
        rng.integers(1, 400)
    )
    profile.retries = int(rng.integers(0, 4))
    profile.fallbacks = int(rng.integers(0, 4))
    profile.replays = int(rng.integers(0, 4))
    if rng.integers(0, 2):
        profile.quarantined_shards.append(shard)
        profile.quarantined_channels.append(int(rng.integers(0, 8)))
    profile.shard_cost[int(rng.integers(0, 3))] = int(rng.integers(0, 2000))
    return profile


def _merge_fold(profiles):
    """Left-fold merge into a fresh profile (merge mutates its target)."""
    import copy

    acc = ServingProfile()
    for profile in profiles:
        acc.merge(copy.deepcopy(profile))
    return acc


class TestMergeAlgebra:
    """``merge()`` must be associative and commutative: the fabric folds
    shard profiles in whatever order replies arrive (and re-folds after
    replays), and the merged session must not depend on that order."""

    @given(
        seeds=st.lists(st.integers(0, 2**16), min_size=3, max_size=5),
        order=st.permutations(list(range(3))),
    )
    @settings(max_examples=25, deadline=None)
    def test_merge_order_free(self, seeds, order):
        profiles = [
            _random_profile(seed, shard) for shard, seed in enumerate(seeds)
        ]
        forward = _merge_fold(profiles)
        shuffled = list(profiles)
        base = [shuffled[i] for i in order] + shuffled[3:]
        permuted = _merge_fold(base)
        assert forward.render() == permuted.render()
        assert forward.outcomes() == permuted.outcomes()
        assert forward.requests == permuted.requests
        assert forward.breaker_transitions == permuted.breaker_transitions
        assert forward.quarantined_shards == permuted.quarantined_shards
        assert forward.quarantined_channels == permuted.quarantined_channels
        assert forward.channel_busy_cycles == permuted.channel_busy_cycles
        assert forward.replays == permuted.replays
        assert forward.shard_cost == permuted.shard_cost
        assert sum(forward.shard_cost.values()) == sum(
            sum(p.shard_cost.values()) for p in profiles
        )

    @given(seeds=st.lists(st.integers(0, 2**16), min_size=3, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_merge_associative_grouping(self, seeds):
        """(a ∪ b) ∪ c == a ∪ (b ∪ c) for every counter and log."""
        import copy

        profiles = [
            _random_profile(seed, shard) for shard, seed in enumerate(seeds)
        ]
        a, b, c = (copy.deepcopy(p) for p in profiles[:3])
        left = a.merge(b).merge(c)
        a2, b2, c2 = (copy.deepcopy(p) for p in profiles[:3])
        right = a2.merge(b2.merge(c2))
        assert left.render() == right.render()
        assert left.requests == right.requests
        assert left.breaker_transitions == right.breaker_transitions
        assert (
            left.turnaround_percentiles_by_priority()
            == right.turnaround_percentiles_by_priority()
        )


class _CountedStats(RequestStats):
    """A ``RequestStats`` that counts the reads of its arrival time: a
    fold that reads an entry reads its sort key."""

    reads = 0

    def __getattribute__(self, name):
        if name == "arrival_ns":
            _CountedStats.reads += 1
        return super().__getattribute__(name)


def _counted_session(first, count, shard=0):
    """``count`` completed requests arriving 10 ns apart from ``first``."""
    profile = ServingProfile()
    for i in range(first, first + count):
        profile.record(
            _CountedStats(
                request_id=i, op="add", arrival_ns=10.0 * i,
                start_ns=10.0 * i, finish_ns=10.0 * i + 5.0, shard=shard,
            )
        )
    return profile


class TestFoldCost:
    """Folding a session into a long-lived profile costs the session's
    size: the profiler of a context that has served for hours must not
    re-sort its history on every ``server.run()``."""

    HELD, NEW = 10_000, 64

    def _held_profiler(self):
        profiler = Profiler()
        profiler.record_serving(_counted_session(0, self.HELD))
        return profiler

    def test_a_later_session_reads_only_its_own_entries(self):
        profiler = self._held_profiler()
        _CountedStats.reads = 0
        profiler.record_serving(_counted_session(self.HELD, self.NEW))
        assert profiler.serving.num_requests == self.HELD + self.NEW
        assert _CountedStats.reads <= 4 * self.NEW

    def test_an_overlapping_session_reads_only_the_overlap(self):
        """A session (another shard's) that starts before the held tail
        is merged with the entries it overlaps, into the canonical order."""
        profiler = self._held_profiler()
        overlap = _counted_session(self.HELD - self.NEW, self.NEW, shard=1)
        expected = sorted(
            profiler.serving.requests + overlap.requests,
            key=lambda r: (r.arrival_ns, r.finish_ns, r.shard, r.request_id),
        )
        _CountedStats.reads = 0
        profiler.record_serving(overlap)
        assert _CountedStats.reads <= 8 * self.NEW
        assert profiler.serving.requests == expected


class TestFrozenEntries:
    def _profile(self):
        profile = ServingProfile()
        profile.record(
            RequestStats(
                request_id=0, op="add", arrival_ns=0.0, start_ns=0.0,
                finish_ns=0.0, batch_size=0, outcome="rejected",
            )
        )
        return profile

    def test_a_recorded_entry_cannot_be_assigned(self):
        profile = self._profile()
        with pytest.raises(FrozenInstanceError):
            profile.requests[0].outcome = "completed"

    def test_the_outcome_counts_are_read_from_the_entries(self):
        profile = self._profile()
        assert (profile.rejected, profile.expired, profile.degraded) == (1, 0, 0)
        with pytest.raises(AttributeError):
            profile.rejected = 0

    def test_relabel_copies_and_leaves_other_holders_alone(self):
        profile = self._profile()
        profiler = Profiler()
        profiler.record_serving(profile)
        profile.relabel({0: 7}, shard=2, recovered=True)
        assert [(r.request_id, r.shard) for r in profile.requests] == [(7, 2)]
        assert profile.recovered == 1
        held = profiler.serving.requests[0]
        assert (held.request_id, held.shard, held.recovered) == (0, 0, False)
