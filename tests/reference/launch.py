"""The reference kernel launch, and the recorded launch-scenario corpus.

The reference is the launch as a plain SB-mode session issues it, channel
by channel and command by command (Section III-B): PREA, then an ACT and
a PRE to the ABMR row into AB mode; the microkernel's CRF writes queued,
one request per column, then a fence, where a unit's CRF does not hold
it, and batch-norm's scalars queued into SRF_M and SRF_A the same
way; a drain per GEMV tile program — per (batch slot, slice on the
channel, tile) — or per elementwise item; and PREA, then an ACT and a PRE
to the SBMR row back to SB mode.  :func:`reference_launches` swaps it in
for ``GemvKernel.batched`` and ``ElementwiseKernel.batched``; the staging,
the readback and the functional shortcut stay the production ones.

Production hands each channel one program from SB mode back to SB mode
instead (``repro.pim.stream.sb_to_sb``), so it records one tracer
``drain`` span where the reference records one per tile program: the
reference folds a launch's drain spans on a channel into one (first
start, last end, columns and commands summed, the first span's id).
Everything else must be equal.

``SCENARIOS`` is the corpus: each scenario a fresh system and a script of
calls — GEMV launches and elementwise batches, or six requests through a
two-lane server whose first channel fails mid-launch.  After every call
it records each *field* (results, report counters, then per channel the
controller's counters, clocks and queue, the mode FSM, the column
counters, every bank and every execution unit, and the tracer's spans
and mode events); ``tests/golden/launch_scenarios.json`` keeps one
16-hex digest per (scenario, field), taken over every call and channel.
Tier-1 (``tests/stack/test_launch.py``) runs each scenario once through
production and compares; this script re-derives the file from the
reference:

    PYTHONPATH=src python tests/reference/launch.py           # re-record
    PYTHONPATH=src python tests/reference/launch.py --check   # CI job launch-corpus

``--check`` fails on any difference, and for each it runs production and
prints the first call and channel where the reference and production
part.  The file is re-recorded from this reference only, never from
production.  A change that needs its parent's launch as the oracle adds
scenarios here; it does not add another patched-parent module.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import hashlib
import json
import pathlib
import sys
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.invariants import check_quarantined_queues
from repro.dram.commands import CommandType
from repro.dram.controller import SchedulerPolicy
from repro.errors import PimChannelError
from repro.pim.device import PimPseudoChannel
from repro.pim.registers import GRF_REG_BYTES, LANES
from repro.stack import PimSystem, Request, ServerConfig, SystemConfig
from repro.stack import kernels
from repro.stack.arithmetic import elementwise_reference, mac_partials, reduce_partials
from repro.stack.kernels import (
    ELEMENTWISE_OPS, ElementwiseKernel, ExecutionReport, GemvKernel,
)
from repro.stack.server import PimServer, RequestOutcome

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden" / "launch_scenarios.json"
_COL_GROUP = 8


# -- the reference ----------------------------------------------------------------


def _transition(mc, row: int) -> None:
    """PREA, then an ACT and a PRE to ``row`` (the ABMR or SBMR row)."""
    mc.precharge_all()
    mc.closed_page_access(0, 0, row)


def _load(mc, row: int, block: np.ndarray) -> None:
    """Queue ``block``'s columns to register row ``row`` as single
    writes, then a fence."""
    for col, data in enumerate(block):
        mc.write(0, 0, row, col, data)
    mc.fence()


def _load_crf(system, index: int, source: str) -> None:
    """Load microkernel ``source`` into channel ``index``'s CRF where some
    unit's CRF differs from its words."""
    words = system.microkernels.get(source)
    if any(unit.regs.crf != words for unit in system.device.pch(index).units):
        image = system.microkernels.image(source)
        _load(system.controllers[index], system.device.memory_map.crf_row, image)


def _fold_drains(tracer, mark: Optional[Tuple[int, int]], channel: int) -> None:
    """Fold the ``drain`` spans recorded since ``mark`` — one launch's
    drains on ``channel``, between its two transitions — into the one span
    a drain of the launch's single program records."""
    if tracer is None:
        return
    first, next_id = mark
    spans = tracer.spans[first:]
    if not spans:
        return
    assert all(s.name == "drain" and s.channel == channel for s in spans), spans
    head = spans[0]
    head.end_ns = spans[-1].end_ns
    head.attrs = {
        "requests": sum(s.attrs["requests"] for s in spans),
        "commands": sum(s.attrs["commands"] for s in spans),
    }
    del tracer.spans[first + 1 :]
    tracer._next_id = next_id + 1


def _gemv_launch(self, pos: int, group: np.ndarray, source: str) -> None:
    """One launch of ``group`` on the channel at ``pos``: enter, load the
    CRF, a drain per (slot, slice on the channel, tile) program, leave.
    The launch's drain spans fold into one, also when a drain raises."""
    plan = self.plan
    k = len(self.channels)
    index = self.channels[pos]
    mc = self.sys.controller(index)
    memory_map = self.sys.device.memory_map
    _transition(mc, memory_map.abmr_row)
    _load_crf(self.sys, index, source)
    tracer = mc.tracer
    mark = None if tracer is None else (len(tracer.spans), tracer._next_id)
    try:
        for slot, xp in enumerate(group):
            for s in range(pos, plan.num_slices, k):
                x_slice = xp[s * plan.n_slice : (s + 1) * plan.n_slice]
                staged = (
                    np.repeat(x_slice, LANES).view(np.uint8)
                    .reshape(plan.chunks, 8, GRF_REG_BYTES)
                )
                blocks = (*staged, *kernels._CONSTANT_BLOCKS)
                for tile in range(plan.tiles):
                    mc.drain(plan.program(tile, s // k, slot), blocks)
        mc.drain()  # a channel that holds no slice still loads its CRF
    finally:
        # A tile program that raises records no span; those before it do.
        _fold_drains(tracer, mark, index)
    _transition(mc, memory_map.sbmr_row)


def gemv_batched(self, xs, simulate_pchs=None):
    """``GemvKernel.batched``, each launch :func:`_gemv_launch` per
    simulated channel."""
    xs = np.asarray(xs, dtype=np.float16)
    if xs.ndim != 2 or xs.shape[1] != self.n:
        raise ValueError(f"expected batch of shape (B, {self.n})")
    self._check_alive()
    plan = self.plan
    k = len(self.channels)
    nsim_ch = k if simulate_pchs is None else min(simulate_pchs, k)
    batch = xs.shape[0]
    report = ExecutionReport(
        kernel=f"gemv[{self.m}x{self.n}]xB{batch}",
        simulated_pchs=sum(s % k < nsim_ch for s in range(plan.num_slices)),
        total_pchs=plan.num_slices,
    )
    padded = np.zeros((batch, plan.passes * k * plan.n_slice), dtype=np.float16)
    padded[:, : self.n] = xs
    outputs: List[np.ndarray] = []
    launches = 0
    source = self.MICROKERNEL.format(reps=plan.chunks - 1)
    start = self.sys.drain_set(self.channels)
    for base in range(0, batch, plan.batch_slots):
        group = padded[base : base + plan.batch_slots]
        launches += 1
        for pos in range(nsim_ch):
            _gemv_launch(self, pos, group, source)
        shortcut = None
        if nsim_ch < k:
            shortcut = mac_partials(
                self._weights[:, nsim_ch:].swapaxes(-1, -2),
                group.reshape(len(group), plan.passes, k, -1)[:, :, nsim_ch:],
            )
        for slot in range(len(group)):
            if shortcut is not None:
                self._poke_partials(shortcut[slot], nsim_ch, slot)
            partials = self._read_partials(nsim_ch, slot=slot)
            outputs.append(reduce_partials(partials)[: self.m])
    end = self.sys.drain_set(self.channels)
    self._account_commands(report, invocations=batch)
    kernels._fill_timing(self.sys, report, end - start, launches)
    return np.stack(outputs), report


def elementwise_batched(
    self, items: Sequence[Tuple], simulate_pchs: Optional[int] = None
) -> Tuple[List[np.ndarray], ExecutionReport]:
    """``ElementwiseKernel.batched``: each item staged, then on each
    simulated channel (entering and loading the CRF at the first item,
    loading the SRF for batch-norm's scalars) a drain of the slot
    program; every channel leaves after the last item."""
    self._check_alive()
    plan = self.plan
    nsim = plan.num_pchs if simulate_pchs is None else min(simulate_pchs, plan.num_pchs)
    sim_channels = self.channels[:nsim]
    normalised = []
    for item in items:
        a = item[0]
        b = item[1] if len(item) > 1 else None
        scalars = item[2] if len(item) > 2 else None
        normalised.append((*self._validate(a, b), scalars))
    report = ExecutionReport(
        kernel=f"{self.op.name}[{self.length}]xB{len(normalised)}",
        simulated_pchs=nsim,
        total_pchs=plan.num_pchs,
    )
    results: List[np.ndarray] = []
    _, counts, written = self._program
    program = plan.program(self.op.name)
    source = self.op.microkernel.format(reps=plan.groups - 1)
    memory_map = self.sys.device.memory_map
    start = self.sys.drain_set(self.channels)
    for item, (a, b, scalars) in enumerate(normalised):
        a = self._padded(a)
        self._scatter(a)
        if b is not None:
            b = self._padded(b)
            self._scatter(b, odd=True)
        for pch in sim_channels:
            mc = self.sys.controller(pch)
            if item == 0:
                _transition(mc, memory_map.abmr_row)
                _load_crf(self.sys, pch, source)
            if self.op.name == "bn" and scalars is not None:
                srf = np.zeros((2, GRF_REG_BYTES), dtype=np.uint8)
                srf[:, : 2 * _COL_GROUP] = np.repeat(
                    np.array(scalars, dtype=np.float16), _COL_GROUP
                ).view(np.uint8).reshape(2, -1)  # SRF_M, SRF_A: 8 copies each
                _load(mc, memory_map.srf_row, srf)
            mc.drain(program, kernels._CONSTANT_BLOCKS)
        if nsim < plan.num_pchs:
            result = np.empty_like(a)
            plan.lanes(result)[:, :, nsim:] = elementwise_reference(
                self.op.name,
                plan.lanes(a)[:, :, nsim:],
                None if b is None else plan.lanes(b)[:, :, nsim:],
                scalars,
            )
            self._scatter(result, col_offset=plan.in_cols, first_slot=nsim)
        if nsim:
            self.sys.drain_set(sim_channels)
        results.append(self._gather_result())
    for pch in sim_channels if normalised else ():
        _transition(self.sys.controller(pch), memory_map.sbmr_row)
    end = self.sys.drain_set(self.channels)
    kernels._fill_timing(self.sys, report, end - start, launches=1)
    times = nsim * len(normalised)
    kernels._count_program(report, counts, times)
    report.pim_flops = written * LANES * kernels.UNITS_PER_PCH * self.op.flops_per_element * times
    return results, report


@contextlib.contextmanager
def reference_launches() -> Iterator[None]:
    """Every GEMV and elementwise launch runs as the reference while open."""
    saved = GemvKernel.batched, ElementwiseKernel.batched
    GemvKernel.batched, ElementwiseKernel.batched = gemv_batched, elementwise_batched
    try:
        yield
    finally:
        GemvKernel.batched, ElementwiseKernel.batched = saved


# -- what a call leaves ---------------------------------------------------------------

#: Per channel, each recorded field of its controller ``mc``.
CHANNEL_FIELDS = {
    "busy_cycles": lambda mc: mc.busy_cycles,
    "fence_count": lambda mc: mc.fence_count,
    "epoch": lambda mc: mc._epoch,
    "row_hits": lambda mc: mc.row_hits,
    "row_misses": lambda mc: mc.row_misses,
    "refresh_count": lambda mc: mc.refresh_count,
    "cycle": lambda mc: mc._cycle,
    "next_ca": lambda mc: mc._next_ca,
    "open_rows": lambda mc: tuple(mc._open_rows),
    "queued_columns": lambda mc: mc.pending,
    "cmd_counts": lambda mc: dict(mc.channel.cmd_counts),
    "mode": lambda mc: mc.channel.mode_ctrl.mode,
    "armed_row": lambda mc: mc.channel.mode_ctrl._armed_row,
    "transition_count": lambda mc: mc.channel.mode_ctrl.transition_count,
    "pim_op_mode": lambda mc: mc.channel.pim_op_mode,
    "pim_triggered_columns": lambda mc: mc.channel.pim_triggered_columns,
    "ab_broadcast_columns": lambda mc: mc.channel.ab_broadcast_columns,
    "bank_states": lambda mc: [(b.state, b.open_row) for b in mc.channel.banks],
    "bank_bounds": lambda mc: [
        (b.next_act, b.next_pre, b.next_rd, b.next_wr) for b in mc.channel.banks
    ],
    "bank_counts": lambda mc: [(b.act_count, b.rd_count, b.wr_count) for b in mc.channel.banks],
    "stored_rows": lambda mc: [
        {row: array.tobytes() for row, array in b._rows.items()} for b in mc.channel.banks
    ],
    "registers": lambda mc: [
        (u.regs.grf_a.tobytes(), u.regs.grf_b.tobytes(), u.regs.srf_m.tobytes(),
         u.regs.srf_a.tobytes(), list(u.regs.crf))
        for u in mc.channel.units
    ],
    "sequencers": lambda mc: [u.sequencer_state() for u in mc.channel.units],
    "unit_stats": lambda mc: [dict(vars(u.stats)) for u in mc.channel.units],
}


def _record(system, **call: Any) -> Dict[str, Any]:
    """The fields ``call`` names, then every channel's (a list over the
    channels each) and, when the system traces, its spans and its mode
    events, a list over the channels."""
    record = dict(call)
    for name, field in CHANNEL_FIELDS.items():
        record[name] = [field(mc) for mc in system.controllers]
    tracer = system.tracer
    if tracer is not None:
        record["spans"] = [
            (s.span_id, s.parent_id, s.name, s.category, s.start_ns, s.end_ns, s.channel,
             dict(s.attrs))
            for s in tracer.spans
        ]
        record["mode_events"] = [
            [(e.name, e.at_ns, dict(e.attrs))
             for e in tracer.events if e.category == "mode" and e.channel == index]
            for index in range(len(system.controllers))
        ]
    return record


def _canon(value: Any) -> Any:
    """``value`` with its dicts as sorted items, its enums as names, its
    NumPy scalars as Python's and its bytes as their digest: equal values,
    equal ``repr``."""
    if isinstance(value, bytes):
        return hashlib.blake2b(value, digest_size=8).hexdigest()
    if isinstance(value, dict):
        return tuple(sorted(((_canon(k), _canon(v)) for k, v in value.items()), key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, np.generic):
        return value.item()
    return value


def digests(records: Sequence[Dict[str, Any]]) -> Dict[str, str]:
    """Each field's 16-hex digest over every call (and channel)."""
    return {
        name: hashlib.blake2b(
            repr(_canon([record[name] for record in records])).encode(), digest_size=8
        ).hexdigest()
        for name in records[0]
    }


def first_difference(
    production: Sequence[Dict[str, Any]], reference: Sequence[Dict[str, Any]], name: str
) -> str:
    """Where field ``name`` of a scenario's production run first parts
    from its reference run: the call and, for a per-channel field, the
    channel."""
    for call, (a, b) in enumerate(zip(production, reference)):
        a, b = _canon(a.get(name)), _canon(b.get(name))
        if a == b:
            continue
        if name in CHANNEL_FIELDS or name == "mode_events":
            channel = next(c for c, (x, y) in enumerate(zip(a, b)) if x != y)
            return f"production first parts from the reference at call {call}, channel {channel}"
        return f"production first parts from the reference at call {call}"
    if len(production) != len(reference):
        return "production and the reference make different numbers of calls"
    return (
        "production and the reference agree on it: the file is stale, re-record it "
        "from the reference"
    )


# -- the scenarios ------------------------------------------------------------------


def rand(shape, seed):
    return (np.random.default_rng(seed).standard_normal(shape) * 0.25).astype(np.float16)


def _calls(config, gemv, eltwise, layout_pchs=None) -> List[Dict[str, Any]]:
    """On a fresh system: a resident GEMV — ``gemv`` is its (shape,
    batches, max_batch, channels, simulate_pchs), one call per batch size
    — then, for each elementwise operator in turn on the same channels, a
    batch of each size ``eltwise`` = (length, sizes) names, batch-norm
    with fresh scalars per item, and the GEMV once more: each operator
    reloads the CRF.  The record of each call."""
    system = PimSystem(config)
    shape, batches, max_batch, channels, simulate_pchs = gemv
    m, n = shape
    kernel = GemvKernel(
        system, m, n, channels=channels, layout_pchs=layout_pchs, max_batch=max_batch
    )
    kernel.load_weights(rand(shape, 1))
    records = []

    def note(results, report):
        records.append(_record(
            system,
            results=[np.asarray(r).tobytes() for r in results],
            cycles=report.cycles, ns=report.ns, fences=report.fences,
            column_commands=report.column_commands,
        ))

    for call, batch in enumerate(batches):
        note(*kernel.batched(rand((batch, n), 10 + call), simulate_pchs))
    length, sizes = eltwise
    for i, op in enumerate(sorted(ELEMENTWISE_OPS) if sizes else ()):
        operator = ElementwiseKernel(system, op, length, channels=channels)
        for size in sizes:
            items = [
                (rand(length, 40 + 7 * i + j), rand(length, 41 + 7 * i + j),
                 (0.5 + j, -0.25 * j))
                for j in range(size)
            ]
            note(*operator.batched(
                [item if op in ("add", "mul", "bn") else item[:1] for item in items],
                simulate_pchs,
            ))
        operator.release()
    note(*kernel.batched(rand((batches[0], n), 20), simulate_pchs))
    return records


def serve_with_a_failure(op, after, simulate_pchs) -> List[Dict[str, Any]]:
    """Six requests of ``op`` through a two-lane server; the first lane's
    first channel fails at its ``after``-th column command — or, with
    ``after`` None, raises at the ACT to the ABMR row of its first launch,
    before that launch has loaded its CRF.  The lane is healed and the
    batch retried: the record of the session."""
    system = PimSystem(BASE.replace(simulate_pchs=simulate_pchs, refresh=False))
    failing = system.device.pch(0)
    abmr_row = failing.memory_map.abmr_row
    issue = PimPseudoChannel.issue
    columns = [0]

    def failing_issue(self, cmd, cycle):
        if self is failing and not self.banks[0].is_failed:
            if after is None and cmd.cmd is CommandType.ACT and cmd.row == abmr_row:
                for bank in self.banks:
                    bank.fail(0)
                raise PimChannelError("channel 0 failed", channels=(0,))
            if after is not None and cmd.cmd.is_column:
                columns[0] += cmd.count
                if columns[0] >= after:
                    for bank in self.banks:
                        bank.fail(0)
        return issue(self, cmd, cycle)

    w = rand((300, 200), 1)
    server = PimServer(system, ServerConfig(lanes=2, max_batch=4))
    try:
        PimPseudoChannel.issue = failing_issue
        if op == "gemv":
            requests = [Request("gemv", weights=w, a=rand(200, 10 + i)) for i in range(6)]
        else:
            requests = [
                Request(op, a=rand(3000, 10 + i), b=rand(3000, 20 + i),
                        scalars=(1.5, -0.25 * i) if op == "bn" else None)
                for i in range(6)
            ]
        handles = [server.submit(request) for request in requests]
        profile = server.run()
    finally:
        PimPseudoChannel.issue = issue
        server.close()
    assert all(h.outcome is RequestOutcome.COMPLETED for h in handles)
    assert profile.quarantined_channels == [0]
    assert max(r.retries for r in profile.requests) == 1
    assert not check_quarantined_queues(system)
    return [_record(
        system,
        results=[h.result.tobytes() for h in handles],
        retries=[r.retries for r in profile.requests],
        turnarounds=[r.finish_ns - r.arrival_ns for r in profile.requests],
    )]


BASE = SystemConfig(num_pchs=4, num_rows=256, refresh=True, trace=True)
_POLICIES = {
    "frfcfs": SchedulerPolicy.FRFCFS,
    "fcfs": SchedulerPolicy.FCFS,
    "shuffle": SchedulerPolicy.SHUFFLE,
}
_EVERY_CHANNEL = ((200, 96), (5, 5, 5), 3, None, None)
_LANE = ((256, 200), (4, 4, 4), 2, (1, 3), None)

SCENARIOS = {
    f"{policy}-penalty-{penalty}": functools.partial(
        _calls,
        BASE.replace(policy=_POLICIES[policy], fence_penalty_cycles=penalty, scheduler_seed=5),
        _EVERY_CHANNEL, (1000, (3,)),
    )
    for policy in _POLICIES
    for penalty in (0, 7)
}
SCENARIOS.update({
    # The default fence penalty, no refresh, no tracer.
    "untraced": functools.partial(
        _calls, SystemConfig(num_pchs=4, num_rows=256), _EVERY_CHANNEL, (1000, ())
    ),
    "scalar": functools.partial(
        _calls, BASE.replace(exec_mode="scalar"), ((200, 96), (4, 4, 4), 2, None, None),
        (700, (2,)),
    ),
    "ecc": functools.partial(
        _calls, BASE.replace(ecc=True), ((200, 96), (4, 4, 4), 2, None, None), (700, (2,))
    ),
    "lane-1,3": functools.partial(_calls, BASE, _LANE, (1500, (2,))),
    "one-simulated": functools.partial(
        _calls, BASE, ((256, 200), (4, 4, 4), 4, None, 1), (1500, (2,))
    ),
    # Two slices over four channels: two hold none, and enter, load and leave.
    "no-slice": functools.partial(
        _calls, BASE, ((256, 200), (3, 3, 3), 2, None, None), (1500, (2,)), layout_pchs=2
    ),
    # Launch groups of 1 to 8 inputs on a two-channel lane, each cold, then warm.
    "gemv-groups-1-to-8": functools.partial(
        _calls, BASE, ((300, 256), (*range(1, 9), *range(1, 9)), 8, (0, 2), None), (600, (1,))
    ),
    "elementwise-batches-1-to-5": functools.partial(
        _calls, BASE.replace(refresh=False), ((128, 64), (1, 1, 1), 1, (0, 1), None),
        (2000, (1, 2, 3, 4, 5)),
    ),
    "gemv-fails-at-column-700": functools.partial(serve_with_a_failure, "gemv", 700, 1),
    "gemv-fails-at-column-2500": functools.partial(serve_with_a_failure, "gemv", 2500, 1),
    "add-fails-at-column-40": functools.partial(serve_with_a_failure, "add", 40, 1),
    "bn-fails-at-column-100": functools.partial(serve_with_a_failure, "bn", 100, 1),
    "gemv-fails-at-its-entry": functools.partial(serve_with_a_failure, "gemv", None, None),
    "relu-fails-at-its-entry": functools.partial(serve_with_a_failure, "relu", None, None),
    # Every channel of the lane simulated: the first fails before the second launched.
    "gemv-fails-before-the-next-channel": functools.partial(
        serve_with_a_failure, "gemv", 300, None
    ),
    "bn-fails-before-the-next-channel": functools.partial(
        serve_with_a_failure, "bn", 100, None
    ),
})


def main(argv: Sequence[str]) -> int:
    if list(argv) not in ([], ["--check"]):
        print(__doc__)
        return 2
    with reference_launches():
        runs = {name: scenario() for name, scenario in SCENARIOS.items()}
    corpus = {name: digests(records) for name, records in runs.items()}
    if not argv:
        GOLDEN.write_text(json.dumps(corpus, indent=1) + "\n")
        print(f"recorded {len(corpus)} scenarios in {GOLDEN}")
        return 0
    recorded = json.loads(GOLDEN.read_text())
    failed = sorted(set(corpus) ^ set(recorded))
    for name in failed:
        print(f"{name}: in only one of the reference and {GOLDEN.name}")
    for name, fields in corpus.items():
        stale = sorted(
            f for f in set(fields) | set(recorded.get(name, {}))
            if name in recorded and fields.get(f) != recorded[name].get(f)
        )
        if not stale:
            continue
        failed.append(name)
        production = SCENARIOS[name]()
        for field in stale:
            print(f"{name}: {field} differs from {GOLDEN.name}; "
                  f"{first_difference(production, runs[name], field)}")
    same = sum(recorded.get(name) == fields for name, fields in corpus.items())
    print(f"{same} of {len(corpus)} scenarios as recorded")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
