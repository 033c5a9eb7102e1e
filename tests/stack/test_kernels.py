"""Tests for PIM kernels: layouts, command streams, bit-exact numerics."""

import numpy as np
import pytest

from repro.dram.ecc import UncorrectableError
from repro.pim import fused
from repro.pim.assembler import assemble
from repro.pim.isa import OperandSpace
from repro.pim.stream import triggered_instructions, triggers
from repro.stack import kernels
from repro.stack.blas import add_reference, gemv_reference
from repro.stack.kernels import ElementwiseKernel, GemvKernel
from repro.stack.runtime import PimSystem, SystemConfig

from .staging_reference import peek_block_by_column, poke_block_by_column


@pytest.fixture
def system():
    return PimSystem(SystemConfig(num_pchs=2, num_rows=128))


def rand(shape, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


class TestGemvPlan:
    def test_plan_geometry(self, system):
        kernel = GemvKernel(system, m=200, n=96)
        plan = kernel.plan
        assert plan.tiles == 2  # ceil(200 / 128)
        assert plan.n_slice == 48  # ceil(96/2) -> padded to 8
        assert plan.chunks == 6
        assert plan.outputs_per_tile == 128

    def test_weight_location_walks_rows(self, system):
        kernel = GemvKernel(system, m=128, n=512)  # 32 chunks per pCH slice
        plan = kernel.plan
        row0, col0 = plan.weight_location(0, 0)
        row1, col1 = plan.weight_location(0, 4)
        assert row1 == row0 + 1 and col1 == col0 == 0
        assert plan.weight_location(0, 3)[1] == 24

    def test_out_rows_follow_weights(self, system):
        kernel = GemvKernel(system, m=200, n=96)
        plan = kernel.plan
        out_row, _ = plan.out_location(0)
        assert out_row >= plan.weight_base_row + plan.tiles * plan.rows_per_tile

    def test_oversized_gemv_rejected(self, system):
        with pytest.raises(Exception):
            GemvKernel(system, m=128 * 1000, n=4096)

    def test_kernels_get_disjoint_rows(self, system):
        a = GemvKernel(system, m=128, n=64)
        b = GemvKernel(system, m=128, n=64)
        assert b.plan.weight_base_row >= a.plan.out_base_row + 1


class TestGemvExecution:
    def test_bit_exact_vs_reference(self, system):
        w = rand((200, 96), 1)
        x = rand(96, 2)
        kernel = GemvKernel(system, 200, 96)
        kernel.load_weights(w)
        y, report = kernel(x)
        assert np.array_equal(y, gemv_reference(w, x, num_pchs=2))
        assert report.cycles > 0

    def test_fewer_slices_than_channels(self):
        """A layout of 2 slices on 4 channels leaves two channels with no
        slice, hence nothing to read back."""
        system = PimSystem(SystemConfig(num_pchs=4, num_rows=128))
        w, x = rand((128, 64), 5), rand(64, 6)
        kernel = GemvKernel(system, 128, 64, layout_pchs=2)
        kernel.load_weights(w)
        y, _ = kernel(x)
        assert np.array_equal(y, gemv_reference(w, x, num_pchs=2))

    def test_close_to_fp32(self, system):
        w = rand((128, 64), 3)
        x = rand(64, 4)
        kernel = GemvKernel(system, 128, 64)
        kernel.load_weights(w)
        y, _ = kernel(x)
        gold = w.astype(np.float32) @ x.astype(np.float32)
        assert np.abs(y - gold).max() < 1e-3

    def test_sampled_simulation_matches_full(self, system):
        w = rand((136, 72), 5)
        x = rand(72, 6)
        kernel = GemvKernel(system, 136, 72)
        kernel.load_weights(w)
        y_full, rep_full = kernel(x)
        y_sampled, rep_sampled = kernel(x, simulate_pchs=1)
        assert np.array_equal(y_full, y_sampled)
        assert rep_sampled.simulated_pchs == 1
        assert rep_sampled.scale_factor() == 2.0

    @pytest.mark.parametrize("ecc", [False, True])
    def test_sampled_channels_move_partials_eight_columns_at_a_time(self, ecc, monkeypatch):
        """The functional shortcut pokes, and the untimed readback peeks, the
        partial sums of one (slice, output row) — every tile sharing the
        row, 8 columns each — as one block, a dirty one re-read 8 columns
        at a time; bank bytes, results and the SEC-DED counters equal the
        column-at-a-time run."""
        partial_sums = []

        def run():
            system = PimSystem(SystemConfig(num_pchs=4, num_rows=128, ecc=ecc))
            w, x = rand((300, 96), 1), rand(96, 2)  # 3 tiles, one output row
            kernel = GemvKernel(system, 300, 96)
            kernel.load_weights(w)
            partial_sums.append(kernel.plan.out_base_row)
            y, _ = kernel(x, simulate_pchs=1)
            assert np.array_equal(y, gemv_reference(w, x, num_pchs=4))
            banks = [bank for pch in system.device.pchs for bank in pch.banks]
            return (
                y.tobytes(),
                [{r: bank._rows[r].tobytes() for r in bank.materialized_rows()} for bank in banks],
                [getattr(bank, "ecc_stats", None) for bank in banks],
            )

        bulk = run()
        calls = []

        def movers(record):
            def peek_block(banks, row, col0, n, group=0):  # clean banks: no dirty walk
                if record and row >= partial_sums[-1]:
                    calls.append(("peek", row, col0, n, group))
                return peek_block_by_column(banks, row, col0, n)

            def poke_block(banks, row, col0, data):
                if record and row >= partial_sums[-1]:
                    calls.append(("poke", row, col0, data.shape[1], 0))
                poke_block_by_column(banks, row, col0, data)

            return peek_block, poke_block

        # Every mover of the run: the kernel's legs and the fused executor's.
        for module in (kernels, fused):
            peek_block, poke_block = movers(record=module is kernels)
            monkeypatch.setattr(module, "peek_block", peek_block)
            monkeypatch.setattr(module, "poke_block", poke_block)
        assert run() == bulk
        # Three unsimulated slices, each one poke and one peek of 3 x 8 columns.
        row = partial_sums[-1]
        assert calls == [("poke", row, 0, 24, 0)] * 3 + [("peek", row, 0, 24, 8)] * 3

    def test_uncorrectable_word_in_a_merged_row_raises_as_per_tile_reads(self, monkeypatch):
        """A double-bit error in tile 2 of a 4-tile partial-sum row on an
        unsimulated channel: the merged block raises the exception, and
        leaves the SEC-DED counters, that one 8-column read per tile did."""
        real_peek = kernels.peek_block
        merged = []

        def per_tile_peek(banks, row, col0, n, group=0):
            return np.concatenate(
                [real_peek(banks, row, col0 + c, 8) for c in range(0, n, 8)], axis=1
            )

        def merged_peek(banks, row, col0, n, group=0):
            merged.append(n)
            return real_peek(banks, row, col0, n, group)

        def run(peek):
            system = PimSystem(SystemConfig(num_pchs=4, num_rows=128, ecc=True))
            kernel = GemvKernel(system, 512, 64)
            kernel.load_weights(rand((512, 64), 3))
            row, col = kernel.plan.out_location(2)
            assert kernel.plan.out_location(3)[0] == row  # one row, 4 tiles
            read = kernel._read_partials

            def flip_then_read(nsim_ch, slot=0):
                bank = system.device.pch(3).banks[2 * 5]  # unit 5's even bank
                for bit in (3, 40):
                    bank.inject_error(row, col + 4, bit)
                return read(nsim_ch, slot)

            with monkeypatch.context() as patch:
                patch.setattr(kernels, "peek_block", peek)
                patch.setattr(kernel, "_read_partials", flip_then_read)
                with pytest.raises(UncorrectableError) as raised:
                    kernel(rand(64, 4), simulate_pchs=1)
            banks = [bank for pch in system.device.pchs for bank in pch.banks]
            return str(raised.value), [bank.ecc_stats for bank in banks]

        assert run(merged_peek) == run(per_tile_peek)
        assert merged[-1] == 32

    def test_repeated_invocations(self, system):
        w = rand((128, 64), 7)
        kernel = GemvKernel(system, 128, 64)
        kernel.load_weights(w)
        for seed in (8, 9):
            x = rand(64, seed)
            y, _ = kernel(x)
            assert np.array_equal(y, gemv_reference(w, x, num_pchs=2))

    def test_requires_loaded_weights(self, system):
        kernel = GemvKernel(system, 128, 64)
        with pytest.raises(RuntimeError):
            kernel(rand(64, 0))

    def test_shape_validation(self, system):
        kernel = GemvKernel(system, 128, 64)
        with pytest.raises(ValueError):
            kernel.load_weights(rand((64, 128), 0))
        kernel.load_weights(rand((128, 64), 0))
        with pytest.raises(ValueError):
            kernel(rand(65, 0))

    def test_identity_matrix(self, system):
        n = 128
        kernel = GemvKernel(system, n, n)
        kernel.load_weights(np.eye(n, dtype=np.float16))
        x = rand(n, 11, scale=1.0)
        y, _ = kernel(x)
        assert np.allclose(y, x.astype(np.float32), atol=1e-6)

    def test_report_command_accounting(self, system):
        kernel = GemvKernel(system, 128, 64)
        kernel.load_weights(rand((128, 64), 12))
        _, report = kernel(rand(64, 13))
        plan = kernel.plan
        expected = plan.tiles * (plan.chunks * 16 + 8) * 2  # both pCHs
        assert report.column_commands == expected
        assert report.pim_flops == 2 * 128 * plan.n_slice * 2  # padded dims


class TestReportCountsTheProgram:
    """``ExecutionReport.fences`` is whatever the program holds: for a
    resident invocation (nothing left to program) the fences the simulated
    controllers were handed."""

    @staticmethod
    def fence_counts(system):
        return sum(mc.fence_count for mc in system.controllers)

    @pytest.mark.parametrize("simulate_pchs", [None, 1])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_gemv_fences(self, system, simulate_pchs, batch):
        kernel = GemvKernel(system, 200, 96)
        kernel.load_weights(rand((200, 96), 40))
        kernel(rand(96, 41), simulate_pchs=simulate_pchs)
        before = self.fence_counts(system)
        _, report = kernel.batched(rand((batch, 96), 42), simulate_pchs=simulate_pchs)
        assert report.fences == self.fence_counts(system) - before > 0

    @pytest.mark.parametrize("simulate_pchs", [None, 1])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("op", ["add", "mul", "relu"])
    def test_elementwise_fences(self, system, op, simulate_pchs, batch):
        kernel = ElementwiseKernel(system, op, 3000)
        item = (rand(3000, 43), rand(3000, 44))
        kernel.batched([item], simulate_pchs)
        before = self.fence_counts(system)
        _, report = kernel.batched([item] * batch, simulate_pchs)
        assert report.fences == self.fence_counts(system) - before > 0


class TestRunDirectionFollowsTheIsa:
    """Each column command of a program triggers the next instruction of
    the microkernel; the execution unit demands an RD of an instruction
    with a bank-sourced operand and a WR of one with a ``HOST`` source or a
    bank destination.  A microkernel edit that forgets the program fails
    here instead of as a ``PimProgramError`` mid-serve."""

    @staticmethod
    def check(source, program):
        instructions = triggered_instructions(assemble(source))
        for run in triggers(program):
            assert run.count == 8  # one ``JUMP -1, 7`` loop per run
            loop = [next(instructions) for _ in range(run.count)]
            instr = loop[0]
            assert all(other is instr for other in loop)
            sources = (instr.src0.space, instr.src1.space, instr.src2.space)
            needs_write = instr.dst.space.is_bank or OperandSpace.HOST in sources
            needs_read = any(space.is_bank for space in sources)
            assert needs_write != needs_read
            assert run.write == needs_write, (instr, run)
        assert next(instructions, None) is None  # the program ends at EXIT

    def test_gemv(self, system):
        plan = GemvKernel(system, 200, 200).plan
        assert plan.chunks > plan.chunks_per_row  # a row switch inside the tile
        source = GemvKernel.MICROKERNEL.format(reps=plan.chunks - 1)
        for tile in range(plan.tiles):
            self.check(source, plan.program(tile))

    @pytest.mark.parametrize("op", sorted(kernels.ELEMENTWISE_OPS))
    def test_elementwise(self, system, op):
        plan = ElementwiseKernel(system, op, 5000).plan
        source = kernels.ELEMENTWISE_OPS[op].microkernel.format(reps=plan.groups - 1)
        self.check(source, plan.program(op))


class TestElementwiseExecution:
    @pytest.mark.parametrize("length", [100, 2048, 5000])
    def test_add_exact(self, system, length):
        a = rand(length, 20, scale=2.0)
        b = rand(length, 21, scale=2.0)
        kernel = ElementwiseKernel(system, "add", length)
        out, report = kernel(a, b)
        assert np.array_equal(out, add_reference(a, b))
        assert report.fences > 0

    def test_mul_exact(self, system):
        a, b = rand(1000, 22), rand(1000, 23)
        out, _ = ElementwiseKernel(system, "mul", 1000)(a, b)
        assert np.array_equal(out, (a * b).astype(np.float16))

    def test_relu_exact(self, system):
        a = rand(1000, 24, scale=3.0)
        out, _ = ElementwiseKernel(system, "relu", 1000)(a)
        expected = np.where(a.view(np.uint16) >> 15 != 0, np.float16(0), a)
        assert np.array_equal(out, expected)

    def test_bn_exact(self, system):
        a = rand(1000, 25, scale=3.0)
        out, _ = ElementwiseKernel(system, "bn", 1000)(a, scalars=(1.5, -0.25))
        expected = ((a * np.float16(1.5)).astype(np.float16) + np.float16(-0.25)).astype(np.float16)
        assert np.array_equal(out, expected)

    def test_sampled_matches_full(self, system):
        a, b = rand(3000, 26), rand(3000, 27)
        full, _ = ElementwiseKernel(system, "add", 3000)(a, b)
        sampled, _ = ElementwiseKernel(system, "add", 3000)(a, b, simulate_pchs=1)
        assert np.array_equal(full, sampled)

    def test_missing_second_operand(self, system):
        with pytest.raises(ValueError):
            ElementwiseKernel(system, "add", 100)(rand(100, 0))

    def test_unknown_op(self, system):
        with pytest.raises(ValueError):
            ElementwiseKernel(system, "sub", 100)

    def test_add_uses_more_commands_than_bn(self, system):
        """ADD needs the FILL phase (24 vs 16 commands per group)."""
        a, b = rand(2048, 28), rand(2048, 29)
        _, add_rep = ElementwiseKernel(system, "add", 2048)(a, b)
        _, bn_rep = ElementwiseKernel(system, "bn", 2048)(a, scalars=(1.0, 0.0))
        assert add_rep.column_commands == bn_rep.column_commands * 3 // 2
