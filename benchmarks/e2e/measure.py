"""The untraced run: closed-loop waves, the noise guard, the eight numbers.

On a shared box the same wave swings by 30-40 % in episodes lasting
seconds, now and then by 2x for minutes, the box's quiet speed drifts by
+-8 % over minutes, and all of it shows in a fixed piece of host work run
between the waves (``HostProbe``).  So every timed unit (a wave, or a
fresh set-up) is bracketed by two probes, and its wall time is reported
*at the reference host speed*: multiplied by ``PROBE_REFERENCE_S`` over
the mean of its two probes.  Medians and the middle half of the waves do
the rest.  A unit is *clean* when both its probes are within
``CLEAN_FACTOR`` of the run's probe floor; the share of waves that are not
is reported, and too few clean waves flag the run ``disturbed``.
README.md has the measurements behind these choices.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .workloads import (
    Spec,
    WaveResult,
    hygiene_failures,
    make_wave,
    open_session,
)

__all__ = [
    "END_TO_END", "HostProbe", "Sizes", "clean_units", "measure", "speed_scale",
]

#: A unit is clean when both neighbouring probes are within this factor
#: of the run's probe floor: the lower decile of its probes, not the
#: single fastest one, which now and then is a fluke 10 % under the rest
#: and would mark every wave of a quiet run disturbed.
CLEAN_FACTOR = 1.10
FLOOR_PERCENTILE = 10
#: The probe's time on the box the baseline was recorded on.  Wall
#: metrics are reported *at this host speed*: a unit's wall time is
#: multiplied by ``PROBE_REFERENCE_S / (mean of its two probes)``.  It is
#: a unit, not a knob: changing it rescales every wall metric of every
#: run by the same factor.
PROBE_REFERENCE_S = 0.050

#: name -> unit of every end-to-end metric, in report order.
END_TO_END: Dict[str, str] = {
    "wall_rps": "req/s",
    "wave_ms_p50": "ms",
    "wave_ms_p75": "ms",
    "sim_khz": "kHz",
    "sim_rps": "req/s",
    "sim_p95_turnaround_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


@dataclass(frozen=True)
class Sizes:
    """How much one run does.  ``quick`` is for the self-test only."""

    #: Timed waves whose simulated statistics feed the ``sim_*`` metrics:
    #: a fixed number, so they repeat exactly however many waves the
    #: wall-clock budget allows after them.  Twelve, because four waves of
    #: Poisson arrivals left ``fabric_hardened``'s ``sim_rps`` swinging 5 %
    #: from seed to seed.
    sim_waves: int = 12
    #: Timed waves the traced run replays: their simulated statistics go
    #: into the record's digest, and the per-request counts come from them.
    replay_waves: int = 4
    #: Fresh set-ups per run (the first is the measured session's own).
    setups: int = 3
    #: One fresh set-up is taken after this many timed waves.
    setup_every: int = 6
    #: Below this many clean waves the workload is flagged ``disturbed``.
    min_clean: int = 8
    quick: bool = False

    @classmethod
    def for_quick(cls) -> "Sizes":
        return cls(
            sim_waves=2, replay_waves=2, setups=2, setup_every=2, min_clean=0,
            quick=True,
        )


class HostProbe:
    """A fixed piece of host work (~50 ms) that is slowed by what slows
    the simulator: 40 000 FP16 operations on 16-element NumPy arrays, one
    Python loop iteration each (interpreter dispatch plus the call
    overhead of small array arithmetic, which is what the exec units and
    the controller spend their time on).

    It never touches the program under test.  Calling it returns the
    seconds it took.  A tight integer loop is not enough: in a 2x episode
    it slowed by 1.7x where the waves slowed by 2.1x, this loop by 2.2x
    (README.md, "The noise guard").
    """

    _ARRAY_OPS = 40_000

    def __init__(self):
        self._vectors = [
            np.random.default_rng(k).standard_normal(16).astype(np.float16)
            for k in range(64)
        ]

    def __call__(self) -> float:
        start = time.perf_counter()
        vectors = self._vectors
        acc = vectors[0]
        for k in range(self._ARRAY_OPS):
            acc = (vectors[k & 63] * vectors[(k + 7) & 63] + acc).astype(np.float16)
        return time.perf_counter() - start


def clean_units(
    probes: Sequence[float], brackets: Sequence[Tuple[int, int]]
) -> List[bool]:
    """Which units ran undisturbed.

    ``brackets[k]`` names the probes taken just before and just after
    unit ``k``; the unit is clean when both are within ``CLEAN_FACTOR``
    of the probe floor.
    """
    limit = CLEAN_FACTOR * probe_floor(probes)
    return [
        probes[before] <= limit and probes[after] <= limit
        for before, after in brackets
    ]


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def probe_floor(probes: Sequence[float]) -> float:
    """The run's undisturbed probe time: the lower decile of its probes."""
    return percentile(probes, FLOOR_PERCENTILE)


def speed_scale(*probes: float) -> float:
    """Factor that turns a wall time measured next to ``probes`` into one
    at the reference host speed (rates divide by it)."""
    return PROBE_REFERENCE_S / statistics.fmean(probes)


@dataclass
class _Log:
    """Probes and the timed units between them, in run order."""

    host_probe: HostProbe = field(default_factory=HostProbe)
    probes: List[float] = field(default_factory=list)
    waves: List[WaveResult] = field(default_factory=list)
    wave_brackets: List[Tuple[int, int]] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    setup_brackets: List[Tuple[int, int]] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def probe(self) -> int:
        self.probes.append(self.host_probe())
        return len(self.probes) - 1

    def account(self, result: WaveResult) -> WaveResult:
        self.attempted += result.requests
        self.failures.extend(result.failures)
        return result


def _setup(spec: Spec, seed: int, quick: bool, log: _Log):
    """One fresh set-up: construct the system and run the cold first wave.

    Returns ``(session, seconds)``; the caller owns closing the session.
    """
    wave = make_wave(spec, seed, 0, quick)
    start = time.perf_counter()
    session = open_session(spec, quick)
    try:
        result = session.run_wave(wave)
    except BaseException:
        session.close()
        raise
    seconds = time.perf_counter() - start
    log.account(result)
    return session, seconds


def sim_digest(results: Sequence[WaveResult]) -> str:
    """A digest of the simulated statistics of ``results``."""
    return hashlib.sha1(
        repr([r.sim_signature() for r in results]).encode()
    ).hexdigest()[:16]


def measure(spec: Spec, seed: int, seconds: float, sizes: Sizes) -> Dict:
    """Run ``spec`` untraced for about ``seconds`` and report.

    Order: probe, set-up (construct + cold wave 0), warm-up wave 1, then
    timed waves 2.. with a probe between each, and a fresh set-up on a
    separate system every ``setup_every`` waves — interleaved, so set-up
    samples see the same noise episodes the waves do.  Stops once the
    budget is spent *and* the fixed ``sim_waves`` and ``setups`` are in.
    """
    log = _Log()
    started = time.perf_counter()

    def timed_setup(before: int, keep: bool = False):
        session, setup_s = _setup(spec, seed, sizes.quick, log)
        if not keep:
            session.close()
        after = log.probe()
        log.setups.append(setup_s)
        log.setup_brackets.append((before, after))
        return session, after

    session, before = timed_setup(log.probe(), keep=True)
    with session:
        log.account(session.run_wave(make_wave(spec, seed, 1, sizes.quick)))
        before = log.probe()
        while True:
            wave = make_wave(spec, seed, 2 + len(log.waves), sizes.quick)
            log.waves.append(log.account(session.run_wave(wave)))
            after = log.probe()
            log.wave_brackets.append((before, after))
            before = after
            spent = time.perf_counter() - started >= seconds
            if spent and len(log.waves) >= sizes.sim_waves:
                break
            if len(log.waves) % sizes.setup_every == 0:
                _, before = timed_setup(before)
        while len(log.setups) < sizes.setups:
            _, before = timed_setup(before)
    cpu = time.process_time()
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu += usage_children.ru_utime + usage_children.ru_stime
    elapsed = time.perf_counter() - started
    log.failures.extend(hygiene_failures())
    return _report(spec, log, sizes, cpu / elapsed)


def _report(spec: Spec, log: _Log, sizes: Sizes, cpu_per_wall: float) -> Dict:
    probes = log.probes
    n_clean = sum(clean_units(probes, log.wave_brackets))
    # Each unit's wall at the reference host speed.
    wave_s = [
        w.wall_s * speed_scale(probes[a], probes[b])
        for w, (a, b) in zip(log.waves, log.wave_brackets)
    ]
    setup_s = [
        s * speed_scale(probes[a], probes[b])
        for s, (a, b) in zip(log.setups, log.setup_brackets)
    ]
    # Rates come from the middle half of the waves: a wave that straddled
    # a speed change is mis-scaled either way and lands in a tail.
    order = sorted(range(len(wave_s)), key=wave_s.__getitem__)
    middle = order[len(order) // 4 : len(order) - len(order) // 4]
    wall = sum(wave_s[i] for i in middle)
    sim = log.waves[: sizes.sim_waves]
    turnaround = [t for w in sim for t in w.turnaround_ns]
    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    values = {
        "wall_rps": sum(log.waves[i].requests for i in middle) / wall,
        "wave_ms_p50": percentile(wave_s, 50) * 1e3,
        "wave_ms_p75": percentile(wave_s, 75) * 1e3,
        "sim_khz": sum(log.waves[i].busy_cycles for i in middle) / wall / 1e3,
        "sim_rps": sum(w.requests for w in sim)
        / (sum(w.sim_makespan_ns for w in sim) * 1e-9),
        "sim_p95_turnaround_us": percentile(turnaround, 95) / 1e3,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    failed = len(log.failures)
    return {
        "workload": spec.name,
        "correct": failed == 0,
        "attempted": log.attempted,
        "failed": failed,
        "failures": log.failures[:20],
        "disturbed": n_clean < sizes.min_clean,
        "samples": {
            "waves": len(log.waves),
            "clean_waves": n_clean,
            "setups": len(log.setups),
            "sim_waves": len(sim),
            "sim_requests": len(turnaround),
        },
        "host": {
            "disturbed_share": 1.0 - n_clean / len(log.waves),
            "probe_ms_floor": probe_floor(probes) * 1e3,
            "probe_ms_p50": percentile(probes, 50) * 1e3,
            "wave_ms_p50_unscaled": percentile(
                [w.wall_s * 1e3 for w in log.waves], 50
            ),
            "wave_ms_p90_unscaled": percentile(
                [w.wall_s * 1e3 for w in log.waves], 90
            ),
            "cpu_per_wall": cpu_per_wall,
        },
        "sim_digest": sim_digest(log.waves[: sizes.replay_waves]),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        },
    }
