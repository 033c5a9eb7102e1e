"""Property-based tests over kernel shapes, lengths and scheduling seeds.

The functional simulator must be bit-exact against the reference models
for *arbitrary* problem shapes — padding boundaries, partial tiles, ragged
slices — and under arbitrary in-window reordering.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.controller import SchedulerPolicy
from repro.stack.blas import (
    add_reference,
    bn_reference,
    gemv_reference,
    mul_reference,
    relu_reference,
)
from repro.stack.kernels import ElementwiseKernel, GemvKernel
from repro.stack.runtime import PimSystem, SystemConfig


def rand(shape, seed, scale=0.2):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


class TestGemvShapeProperty:
    @given(
        m=st.integers(1, 150),
        n=st.integers(1, 96),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_arbitrary_shapes_bit_exact(self, m, n, seed):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        w, x = rand((m, n), seed), rand(n, seed + 1)
        kernel = GemvKernel(system, m, n)
        kernel.load_weights(w)
        y, _ = kernel(x)
        assert np.array_equal(y, gemv_reference(w, x, num_pchs=1))

    @given(
        m=st.integers(1, 140),
        n=st.integers(1, 64),
        pchs=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=8, deadline=None)
    def test_channel_count_irrelevant_to_result(self, m, n, pchs, seed):
        system = PimSystem(SystemConfig(num_pchs=pchs, num_rows=128))
        w, x = rand((m, n), seed), rand(n, seed + 1)
        kernel = GemvKernel(system, m, n)
        kernel.load_weights(w)
        y, _ = kernel(x)
        # FP16 sub-accumulator structure depends on the slicing, so compare
        # against the reference with the *same* channel count...
        assert np.array_equal(y, gemv_reference(w, x, num_pchs=pchs))
        # ...and against FP32 within summation tolerance.
        gold = w.astype(np.float32) @ x.astype(np.float32)
        assert np.abs(y - gold).max() < 0.05


class TestElementwiseLengthProperty:
    @given(
        length=st.integers(1, 4000),
        op=st.sampled_from(["add", "mul"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_binary_ops_exact(self, length, op, seed):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        a, b = rand(length, seed), rand(length, seed + 1)
        out, _ = ElementwiseKernel(system, op, length)(a, b)
        ref = add_reference(a, b) if op == "add" else mul_reference(a, b)
        assert np.array_equal(out, ref)

    @given(length=st.integers(1, 4000), seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_relu_exact(self, length, seed):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        a = rand(length, seed, scale=2.0)
        out, _ = ElementwiseKernel(system, "relu", length)(a)
        assert np.array_equal(out, relu_reference(a))

    @given(
        length=st.integers(1, 4000),
        gamma=st.floats(-2, 2),
        beta=st.floats(-1, 1),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=8, deadline=None)
    def test_bn_exact(self, length, gamma, beta, seed):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        a = rand(length, seed)
        out, _ = ElementwiseKernel(system, "bn", length)(a, scalars=(gamma, beta))
        assert np.array_equal(out, bn_reference(a, gamma, beta))


class TestSchedulingSeedProperty:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_aam_immune_to_any_shuffle_seed(self, seed):
        """AAM + fences: correctness holds for every scheduler permutation."""
        system = PimSystem(SystemConfig(
            num_pchs=1, num_rows=128,
            policy=SchedulerPolicy.SHUFFLE, scheduler_seed=seed,
            fence_penalty_cycles=0,
        ))
        w, x = rand((128, 64), 7), rand(64, 8)
        kernel = GemvKernel(system, 128, 64)
        kernel.load_weights(w)
        y, _ = kernel(x)
        assert np.array_equal(y, gemv_reference(w, x, num_pchs=1))


# -- column bursts: the unit the kernels emit -----------------------------------


def _run_kernel(name, system, seed):
    """One invocation of the kernel ``name`` on ``system``: (results, cycles)."""
    if name.startswith("gemv"):
        w = rand((150, 72), seed)
        kernel = GemvKernel(system, 150, 72, max_batch=2)
        kernel.load_weights(w)
        if name == "gemv":
            out, report = kernel(rand(72, seed + 1))
        else:
            out, report = kernel.batched(rand((3, 72), seed + 1))
        return [out], report.cycles
    op = name.split("-")[0]
    length = 3000
    operands = (rand(length, seed), rand(length, seed + 1))[: 2 if op in ("add", "mul") else 1]
    kernel = ElementwiseKernel(system, op, length)
    if name.endswith("-batched"):
        item = operands if op != "bn" else (operands[0], None, (1.5, -0.25))
        outs, report = kernel.batched([item, item])
        return outs, report.cycles
    if op == "bn":
        out, report = kernel(operands[0], scalars=(1.5, -0.25))
    else:
        out, report = kernel(*operands)
    return [out], report.cycles


KERNELS = [
    "gemv", "gemv-batched",
    "add", "mul", "relu", "bn", "add-batched", "relu-batched", "bn-batched",
]


class TestEveryAamGroupIsOneBurst:
    """What the controller's program pass rests on — and, for the
    readback, what the run window is handed."""

    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("pchs", [1, 2])
    def test_every_epoch_of_a_pim_window_is_exactly_one_burst(
        self, name, pchs, monkeypatch
    ):
        """In every program a kernel hands ``drain``, each run between
        the ``PIM_OP_MODE`` writes is a burst of 8 columns with a fence
        after it — one per epoch, as is the mode-on write before them.  So
        no burst of the ledger's traffic is ever expanded —
        ``Request.expand`` is not called once."""
        from repro.dram.controller import MemoryController, Request

        system = PimSystem(SystemConfig(num_pchs=pchs, num_rows=128))
        conf_row = system.device.memory_map.conf_row
        drain = MemoryController.drain
        windows = []

        def recording_drain(self, program=(), blocks=()):
            if any(run.fence for run in program):  # not the (unfenced) readback
                on, off = (i for i, run in enumerate(program) if run.row == conf_row)
                assert program[on].fence
                windows.append(program[on + 1 : off])
            return drain(self, program, blocks)

        def no_expansion(self):
            raise AssertionError(f"{self!r} was expanded")

        monkeypatch.setattr(MemoryController, "drain", recording_drain)
        monkeypatch.setattr(Request, "expand", no_expansion)
        _run_kernel(name, system, seed=3)
        assert windows
        for window in windows:
            assert window and all(run.count == 8 and run.fence for run in window)

    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("exec_mode", ["fused", "lockstep"])
    def test_results_and_cycles_equal_the_run_with_bursts_expanded(
        self, name, exec_mode, monkeypatch
    ):
        """The same kernel with every program queued run by run and every
        run turned into its single requests as it is enqueued — the
        per-command stream the kernels used to emit — gives the same
        results, cycles and bus counts."""
        from repro.dram.controller import MemoryController

        def run():
            system = PimSystem(
                SystemConfig(num_pchs=2, num_rows=128, exec_mode=exec_mode)
            )
            outs, cycles = _run_kernel(name, system, seed=5)
            counts = [dict(mc.channel.cmd_counts) for mc in system.controllers]
            tallies = [
                (mc.row_hits, mc.row_misses, mc.busy_cycles, mc.fence_count)
                for mc in system.controllers
            ]
            return [out.tobytes() for out in outs], cycles, counts, tallies

        bursts = run()
        enqueue, drain = MemoryController.enqueue, MemoryController.drain
        expanded = []
        blocks = {}  # controller -> tag -> count, of the tagged runs it was fed

        def expanding_enqueue(self, request):
            expanded.append(request.count)
            for index, single in enumerate(request.expand()):
                if request.count > 1 and request.tag is not None:
                    blocks.setdefault(self, {})[request.tag] = request.count
                    single.tag = (request.tag, index)
                enqueue(self, single)

        def regrouping_drain(self, program=(), operands=()):
            """A program queued run by run, its reads tagged as ``drain``
            tags them; the singles' columns handed back as the run's block
            (a trigger run reads nothing back)."""
            self._queue_runs(program, operands)
            result = drain(self)
            for tag, count in blocks.pop(self, {}).items():
                columns = [result.read_data.pop((tag, i), None) for i in range(count)]
                if columns[0] is not None:
                    result.read_data[tag] = np.stack(columns)
            return result

        monkeypatch.setattr(MemoryController, "enqueue", expanding_enqueue)
        monkeypatch.setattr(MemoryController, "drain", regrouping_drain)
        assert run() == bursts
        assert 8 in expanded

    @pytest.mark.parametrize("name", ["gemv", "gemv-batched", "add", "mul", "relu"])
    def test_no_request_is_built_for_the_compute_leg(self, name, monkeypatch):
        """On an AB-PIM channel the compute leg is handed to the controller
        as a program, and with nothing queued ahead of it (the CRF already
        holds the microkernel) not one of its runs becomes a ``Request``.
        (A first launch queues the CRF writes ahead of it, ``bn`` its SRF
        writes: those programs are queued, as the emitter queued them.  The
        GEMV readback's program is unfenced: FR-FCFS reorders its queued
        runs across banks.)"""
        from repro.dram.controller import MemoryController, Request

        system = PimSystem(SystemConfig(num_pchs=2, num_rows=128))
        _run_kernel(name, system, seed=7)  # loads the CRF
        drain, post_init = MemoryController.drain, Request.__post_init__
        draining = []  # the program of each drain under way
        handed = []
        built = []  # per Request: whether a program's drain built it

        def watched_drain(self, program=(), blocks=()):
            draining.append(program)
            handed.append(len(program))
            try:
                return drain(self, program, blocks)
            finally:
                draining.pop()

        def watched_post_init(self):
            post_init(self)
            compute_leg = draining and any(run.fence for run in draining[-1])
            built.append(bool(compute_leg))

        monkeypatch.setattr(MemoryController, "drain", watched_drain)
        monkeypatch.setattr(Request, "__post_init__", watched_post_init)
        _run_kernel(name, system, seed=7)
        assert any(handed) and not any(built)


    @pytest.mark.parametrize(
        "shape, channels",
        [((128, 512), None), ((200, 96), None), ((128, 512), (1, 3))],
        ids=["128x512", "200x96", "128x512-lane-1,3-of-4"],
    )
    @pytest.mark.parametrize("ecc", [False, True])
    def test_the_readback_is_one_run_per_unit_and_tile(
        self, shape, channels, ecc, monkeypatch
    ):
        """``_read_partials`` hands each simulated channel's controller one
        program: ``slices x tiles x 8`` runs of ``count == 8``, one per
        unit's even bank — no single reads, and ``Request.expand`` never
        called — and the timed readback returns the partial sums the
        untimed one (one ``peek_block`` per tile) does, bit for bit."""
        from repro.dram.controller import MemoryController, Request
        from repro.pim.device import UNITS_PER_PCH

        m, n = shape
        system = PimSystem(SystemConfig(num_pchs=4, num_rows=256, ecc=ecc))
        kernel = GemvKernel(system, m, n, channels=channels)
        kernel.load_weights(rand(shape, 1))
        kernel(rand(n, 2))  # leaves every slice's partial sums in the banks
        drain = MemoryController.drain
        handed = []

        def recording_drain(self, program=(), blocks=()):
            handed.extend(program)
            return drain(self, program, blocks)

        def no_expansion(self):
            raise AssertionError(f"{self!r} was expanded")

        monkeypatch.setattr(MemoryController, "drain", recording_drain)
        monkeypatch.setattr(Request, "expand", no_expansion)
        timed = kernel._read_partials(len(kernel.channels))
        plan = kernel.plan
        assert [run.count for run in handed] == [8] * (
            plan.num_slices * plan.tiles * UNITS_PER_PCH
        )
        assert {run.bank for run in handed} == set(range(0, 2 * UNITS_PER_PCH, 2))
        handed.clear()
        untimed = kernel._read_partials(0)
        assert not handed
        assert timed.any() and timed.tobytes() == untimed.tobytes()


# -- one launch path: __call__ is the one-item case of batched ------------------


def _snapshot(system, report):
    return (
        report.cycles, report.ns, report.column_commands, report.activates,
        report.fences, report.pim_instructions, report.pim_flops,
        report.host_bytes, report.simulated_pchs, report.total_pchs,
        report.notes,
        [dict(mc.channel.cmd_counts) for mc in system.controllers],
    )


@pytest.mark.parametrize("op", ["gemv", "add", "mul", "relu", "bn"])
@pytest.mark.parametrize("simulate_pchs", [None, 1])
@pytest.mark.parametrize("ecc", [False, True])
def test_call_is_batched_of_one_item(op, simulate_pchs, ecc):
    """``kernel(x)`` and ``kernel.batched([x])`` on twin systems, first and
    second invocation: same result bytes, cycles, ns, every counter and
    every channel's ``cmd_counts`` — only ``report.kernel`` tells them
    apart (``gemv[MxN]`` vs ``gemv[MxN]xB1``)."""
    runs = []
    for batched in (False, True):
        system = PimSystem(SystemConfig(num_pchs=2, num_rows=128, ecc=ecc))
        if op == "gemv":
            kernel = GemvKernel(system, 150, 72)
            kernel.load_weights(rand((150, 72), 11))
            items = [(rand(72, 12 + i),) for i in range(2)]
        else:
            kernel = ElementwiseKernel(system, op, 1000)
            a, b = rand(1000, 21), rand(1000, 22)
            scalars = (1.5, -0.25) if op == "bn" else None
            items = [(a, b, scalars), (b, a, scalars)]
        seen = []
        for item in items:
            if not batched:
                if op == "gemv":
                    out, report = kernel(item[0], simulate_pchs=simulate_pchs)
                else:
                    out, report = kernel(
                        item[0], item[1], scalars=item[2],
                        simulate_pchs=simulate_pchs,
                    )
                name = report.kernel + "xB1"
            elif op == "gemv":
                outs, report = kernel.batched(
                    np.stack(item), simulate_pchs=simulate_pchs
                )
                out, name = outs[0], report.kernel
            else:
                outs, report = kernel.batched([item], simulate_pchs=simulate_pchs)
                out, name = outs[0], report.kernel
            seen.append((name, out.tobytes(), _snapshot(system, report)))
        runs.append(seen)
    assert runs[0] == runs[1]
