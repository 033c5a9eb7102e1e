"""Trace-ISA interop: PA codec, parser contract, execute/emit idempotence.

The hypothesis properties are the satellite acceptance checks: the
35-bit physical-address codec round-trips every field assignment, and
``execute(parse(emit(parse(t))))`` reproduces the device-state digest of
``execute(parse(t))`` on ``all_inst.trace``-style inputs.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PimReplayError
from repro.stack import Request
from repro.stack.kernels import column_commands, column_cost
from repro.tools.pimulator import (
    PA_BITS,
    PhysicalAddress,
    TraceOp,
    emit_trace,
    execute_trace,
    parse_trace,
    requests_to_trace,
    sample_trace,
)


class TestPhysicalAddress:
    def test_pa_is_35_bits(self):
        assert PA_BITS == 35

    def test_known_layout(self):
        # Rank is the MSB; offset the 5 LSBs.
        assert PhysicalAddress(rank=1).encode() == 1 << 34
        assert PhysicalAddress(offset=31).encode() == 31
        assert PhysicalAddress(column=1).encode() == 1 << 5
        assert PhysicalAddress(row=1).encode() == 1 << 10

    def test_field_overflow_rejected(self):
        with pytest.raises(PimReplayError):
            PhysicalAddress(rank=2).encode()
        with pytest.raises(PimReplayError):
            PhysicalAddress.decode(1 << PA_BITS)

    @given(
        rank=st.integers(0, 1),
        channel=st.integers(0, 63),
        bankgroup=st.integers(0, 3),
        bank=st.integers(0, 3),
        row=st.integers(0, (1 << 14) - 1),
        column=st.integers(0, 31),
        offset=st.integers(0, 31),
    )
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_round_trip(
        self, rank, channel, bankgroup, bank, row, column, offset
    ):
        pa = PhysicalAddress(
            rank=rank, channel=channel, bankgroup=bankgroup, bank=bank,
            row=row, column=column, offset=offset,
        )
        assert PhysicalAddress.decode(pa.encode()) == pa

    @given(value=st.integers(0, (1 << 35) - 1))
    @settings(max_examples=50, deadline=None)
    def test_decode_encode_round_trip(self, value):
        assert PhysicalAddress.decode(value).encode() == value


class TestParser:
    def test_sample_covers_every_line_form(self):
        ops = parse_trace(sample_trace())
        kinds = {op.kind for op in ops}
        assert kinds == {"SB", "AB", "GPR", "CFR", "MEM", "PIM", "AiM"}
        mnemonics = {op.mnemonic for op in ops if op.kind == "PIM"}
        assert {"MOV", "FILL", "ADD", "MUL", "MAC", "MAD",
                "NOP", "JUMP", "EXIT"} <= mnemonics

    def test_comments_and_blank_lines_skipped(self):
        ops = parse_trace("# header\n\n  # indented comment\nAB W  # trail\n")
        assert len(ops) == 1
        assert ops[0].kind == "AB"

    def test_quoted_cfr_id_accepted(self):
        ops = parse_trace('W CFR "0" 7\n')
        assert ops[0].kind == "CFR"
        assert ops[0].args == (0, 7)

    @pytest.mark.parametrize(
        "line",
        [
            "SB X 5",
            "SB R",
            "QQ 1",
            "W MEM 1 2",
            "W GPR",
            "PIM FROB GRF,0 BANK,0",
            "PIM ADD GRF,0 BANK,0",
            "PIM MOV GRF,0 BANK,0 SRF,0",
            "PIM ADD GRF;0 BANK,0 SRF,0",
            "PIM ADD XRF,0 BANK,0 SRF,0",
            "AiM WR_SBK 0 1 0",
            "AiM WR_GB 2 2",
            "AiM",
            "SB R 99999999999999",
        ],
    )
    def test_malformed_lines_rejected_with_line_number(self, line):
        with pytest.raises(PimReplayError, match="line 1"):
            parse_trace(line)

    def test_emit_is_canonical_fixed_point(self):
        ops = parse_trace(sample_trace())
        emitted = emit_trace(ops)
        assert emit_trace(parse_trace(emitted)) == emitted


class TestExecution:
    def test_execution_is_deterministic(self):
        ops = parse_trace(sample_trace())
        assert (
            execute_trace(ops).state_digest()
            == execute_trace(ops).state_digest()
        )

    def test_digest_reflects_device_state(self):
        base = parse_trace(sample_trace())
        extended = base + [TraceOp("GPR", rw="W", args=(5,))]
        assert (
            execute_trace(base).state_digest()
            != execute_trace(extended).state_digest()
        )

    def test_sample_executes_pim_instructions(self):
        execution = execute_trace(parse_trace(sample_trace()))
        assert execution.executed == 22
        assert execution.pim_instructions == 6  # control ops don't count
        assert execution.all_bank

    def test_emit_parse_execute_idempotent_on_sample(self):
        ops = parse_trace(sample_trace())
        first = execute_trace(ops).state_digest()
        second = execute_trace(parse_trace(emit_trace(ops))).state_digest()
        assert first == second

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_emit_parse_execute_idempotent_property(self, seed):
        """Property (satellite): any trace built from the sample's line
        forms round-trips — emit, re-parse, re-execute, same digest."""
        rng = np.random.default_rng(seed)
        ops = list(parse_trace(sample_trace()))
        rng.shuffle(ops)
        ops = ops[: max(1, int(rng.integers(1, len(ops) + 1)))]
        first = execute_trace(ops).state_digest()
        second = execute_trace(parse_trace(emit_trace(ops))).state_digest()
        assert first == second


class TestRequestEmission:
    def _requests(self):
        rng = np.random.default_rng(9)
        return [
            Request(
                "gemv",
                weights=(rng.standard_normal((16, 8)) * 0.25).astype(
                    np.float16
                ),
                a=(rng.standard_normal(8) * 0.25).astype(np.float16),
                trace_id="t0",
            ),
            Request(
                "add",
                a=(rng.standard_normal(32) * 0.25).astype(np.float16),
                b=(rng.standard_normal(32) * 0.25).astype(np.float16),
                trace_id="t1",
            ),
            Request(
                "relu",
                a=(rng.standard_normal(16) * 0.25).astype(np.float16),
                trace_id="t2",
            ),
        ]

    def test_requests_emit_executable_trace(self):
        ops = requests_to_trace(self._requests())
        assert any(
            op.kind == "PIM" and op.mnemonic == "MAC" for op in ops
        ), "a GEMV request must emit MAC instructions"
        execution = execute_trace(ops)
        assert execution.executed == len(ops)

    def test_request_emission_round_trips(self):
        ops = requests_to_trace(self._requests())
        first = execute_trace(ops).state_digest()
        text = emit_trace(ops)
        second = execute_trace(parse_trace(text)).state_digest()
        assert first == second

    def test_a_gemv_stream_reads_its_partial_sums_back(self):
        """After each GEMV stream's ``PIM`` lines, one ``SB R`` per column
        of its readback program — ``column_cost - column_commands`` per
        stream — on the stream's channel, from every unit's even bank."""
        request = self._requests()[0]
        shape = np.shape(request.weights)
        ops = requests_to_trace([request], slices=2)
        kinds = [op.kind for op in ops]
        assert [k for i, k in enumerate(kinds) if i == 0 or kinds[i - 1] != k] == [
            "CFR", "AB", "PIM", "SB", "AB", "PIM", "SB",
        ]
        reads = [op.pa for op in ops if op.kind == "SB"]
        per_stream = column_cost("gemv", shape, 2) - column_commands("gemv", shape, 2)
        assert all(op.rw == "R" for op in ops if op.kind == "SB")
        assert [pa.channel for pa in reads] == [0] * per_stream + [1] * per_stream
        assert {(pa.bankgroup, pa.bank) for pa in reads} == {
            divmod(2 * unit, 4) for unit in range(8)
        }


class TestSingleBankAddresses:
    def test_every_bankgroup_and_bank_is_a_bank_of_its_own(self):
        """An ``SB W`` to each of the 16 (bank group, bank) pairs lands in a
        different bank: the dialect has 4 banks per group."""
        reached = []
        for bankgroup, bank in itertools.product(range(4), repeat=2):
            pa = PhysicalAddress(bankgroup=bankgroup, bank=bank, row=3).encode()
            execution = execute_trace([TraceOp("SB", rw="W", args=(pa,))])
            (hit,) = [
                index for index, b in enumerate(execution._pch(0).banks)
                if b.materialized_rows()
            ]
            reached.append(hit)
        assert sorted(reached) == list(range(16))
