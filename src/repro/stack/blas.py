"""The PIM BLAS (Section V-A): the public linear-algebra API.

Users call these functions with ordinary numpy arrays and get numerically
faithful results computed *by the simulated PIM device*; every call's
execution report goes to the BLAS's profiler.  The BLAS hides everything
below it: layouts, microkernels, mode transitions, fences.  A caller that
needs the report of one call asks the executor instead
(``system.executor.gemv`` / ``elementwise`` return ``(result, report)``).

The bit-exact reference models (``gemv_reference`` etc.) live in
:mod:`repro.stack.arithmetic` and are re-exported here.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .arithmetic import (
    add_reference,
    bn_reference,
    gemv_reference,
    mul_reference,
    relu_reference,
)
from .kernels import ExecutionReport
from .lstm import lstm_step
from .profiler import Profiler
from .runtime import PimSystem

__all__ = [
    "PimBlas",
    "gemv_reference",
    "add_reference",
    "mul_reference",
    "relu_reference",
    "bn_reference",
]


class PimBlas:
    """PIM BLAS bound to one :class:`PimSystem`.

    Calls return results only; each :class:`ExecutionReport` is folded
    into ``profiler`` (a fresh :class:`Profiler` when none is given).
    Channel sampling follows ``system.config.simulate_pchs``.
    """

    def __init__(self, system: PimSystem, profiler: Optional[Profiler] = None):
        self.sys = system
        self.profiler = profiler if profiler is not None else Profiler()

    def _recorded(self, outcome: Tuple[np.ndarray, ExecutionReport]) -> np.ndarray:
        result, report = outcome
        self.profiler.record(report)
        return result

    # -- level-2 ------------------------------------------------------------------

    def gemv(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``y = W @ x`` with FP16 PIM MACs, FP32 host reduction."""
        return self._recorded(self.sys.executor.gemv(w, x))

    # -- level-1 ------------------------------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise FP16 addition (residual/skip connections)."""
        return self._recorded(self.sys.executor.elementwise("add", a, b))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise FP16 multiplication."""
        return self._recorded(self.sys.executor.elementwise("mul", a, b))

    def relu(self, a: np.ndarray) -> np.ndarray:
        """Elementwise ReLU during data movement (MOV with the R flag)."""
        return self._recorded(self.sys.executor.elementwise("relu", a))

    def bn(self, a: np.ndarray, gamma: float, beta: float) -> np.ndarray:
        """Inference batch-norm folded to ``gamma * x + beta`` (MAD)."""
        scalars = (float(gamma), float(beta))
        return self._recorded(self.sys.executor.elementwise("bn", a, scalars=scalars))

    # -- composite: LSTM cell ------------------------------------------------------

    def lstm_cell(
        self,
        w_ih: np.ndarray,
        w_hh: np.ndarray,
        bias: np.ndarray,
        x: np.ndarray,
        h: np.ndarray,
        c: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One LSTM step: the GEMVs run on PIM, activations on the host.

        The PIM LSTM custom op accelerates the two matrix-vector products
        (the memory-bound part); gate nonlinearities are host work, exactly
        as in the paper's LSTM custom op.  Returns ``(h_next, c_next)`` in
        FP16; the two GEMV reports go to the profiler.
        """
        return lstm_step(self.gemv, w_ih, w_hh, bias, x, h, c)
