"""The Fig. 5 / Section IV-C ordering study.

Modern controllers reorder DRAM commands; a PIM microkernel whose
instructions are implicitly bound to column addresses breaks unless either
(a) the program uses address-aligned mode, which re-derives register
indices from the address bits, or (b) the stream is fenced/in-order.

These tests reproduce all three outcomes on the functional simulator with
an adversarial (seeded shuffle) scheduler.
"""

import numpy as np
import pytest

from repro.dram.controller import SchedulerPolicy
from repro.stack.blas import gemv_reference
from repro.stack.kernels import GemvKernel
from repro.stack.runtime import PimSystem, SystemConfig


def _run_gemv(policy, seed=None, microkernel=None, fences=True):
    system = PimSystem(SystemConfig(
        num_pchs=1, num_rows=128, policy=policy,
        scheduler_seed=seed, fence_penalty_cycles=0,
    ))
    rng = np.random.default_rng(42)
    m, n = 128, 64
    w = (rng.standard_normal((m, n)) * 0.25).astype(np.float16)
    x = (rng.standard_normal(n) * 0.25).astype(np.float16)
    kernel = GemvKernel(system, m, n)
    if microkernel is not None:
        kernel.MICROKERNEL = microkernel
    if not fences:
        _strip_fences(system)
    kernel.load_weights(w)
    y, _ = kernel(x)
    return y, gemv_reference(w, x, num_pchs=1)


def _strip_fences(system):
    for mc in system.controllers:
        mc.fence = lambda: None


# A functionally equivalent microkernel WITHOUT address-aligned mode: it
# walks the 8 registers with explicitly numbered instructions, so it only
# works if commands arrive exactly in program order.
NON_AAM_MICROKERNEL = "\n".join(
    [f"MOV GRF_A[{i}], HOST" for i in range(8)]
    + [f"MAC GRF_B[{i}], EVEN_BANK, GRF_A[{i}]" for i in range(8)]
    + ["JUMP -16, {reps}"]
    + [f"MOV EVEN_BANK[{i}], GRF_B[{i}]" for i in range(8)]
    + ["EXIT"]
)


class TestOrderingStudy:
    def test_aam_survives_frfcfs(self):
        y, ref = _run_gemv(SchedulerPolicy.FRFCFS)
        assert np.array_equal(y, ref)

    def test_aam_survives_adversarial_shuffle(self):
        """AAM tolerates arbitrary reordering inside the fence window."""
        for seed in range(5):
            y, ref = _run_gemv(SchedulerPolicy.SHUFFLE, seed=seed)
            assert np.array_equal(y, ref), f"seed {seed}"

    def test_non_aam_correct_in_order(self):
        """With a strictly in-order controller, explicit indices also work
        (the paper's 'processor preserves order in PIM mode' study)."""
        y, ref = _run_gemv(SchedulerPolicy.FCFS, microkernel=NON_AAM_MICROKERNEL)
        assert np.array_equal(y, ref)

    def test_non_aam_breaks_under_reordering(self):
        """Without AAM, a reordering scheduler mismatches column addresses
        and instructions: the Fig. 5(c) failure."""
        broken = 0
        for seed in range(5):
            y, ref = _run_gemv(
                SchedulerPolicy.SHUFFLE, seed=seed, microkernel=NON_AAM_MICROKERNEL
            )
            if not np.array_equal(y, ref):
                broken += 1
        assert broken > 0

    def test_aam_breaks_without_fences_under_shuffle(self):
        """AAM covers only an 8-register window: removing the fences lets
        commands cross window boundaries and corrupts the result (why the
        host must barrier every 8 commands, Section VII-B)."""
        from repro.pim.exec_unit import PimProgramError

        broken = 0
        for seed in range(5):
            try:
                y, ref = _run_gemv(SchedulerPolicy.SHUFFLE, seed=seed, fences=False)
            except PimProgramError:
                # Reordered WR/RD triggers hit instructions whose datapath
                # they cannot drive — also a functional failure.
                broken += 1
                continue
            if not np.array_equal(y, ref):
                broken += 1
        assert broken > 0

    def test_fcfs_without_fences_is_safe(self):
        """An in-order controller needs no fences at all — the basis of the
        paper's fence-free performance projection."""
        y, ref = _run_gemv(SchedulerPolicy.FCFS, fences=False)
        assert np.array_equal(y, ref)
