"""The PIM BLAS (Section V-A): the public linear-algebra API.

Users call these functions with ordinary numpy arrays and get numerically
faithful results computed *by the simulated PIM device* plus an execution
report.  The BLAS hides everything below it: layouts, microkernels, mode
transitions, fences.

The bit-exact reference models (``gemv_reference`` etc.) live in
:mod:`repro.stack.arithmetic` and are re-exported here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .arithmetic import (
    add_reference,
    bn_reference,
    gemv_reference,
    mul_reference,
    relu_reference,
)
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

    ``reports`` selects how execution reports are delivered:

    * ``"attach"`` (default, historical) — every call returns
      ``(result, ExecutionReport)``;
    * ``"profile"`` — calls return just the result and the report is fed
      to ``profiler.record`` (any object with a ``record(report)`` method,
      typically :class:`repro.stack.profiler.Profiler`).
    """

    def __init__(
        self,
        system: PimSystem,
        simulate_pchs: Optional[int] = None,
        reports: str = "attach",
        profiler=None,
    ):
        if reports not in ("attach", "profile"):
            raise ValueError('reports must be "attach" or "profile"')
        if reports == "profile" and profiler is None:
            raise ValueError('reports="profile" needs a profiler sink')
        self.sys = system
        self.simulate_pchs = simulate_pchs
        self.reports = reports
        self.profiler = profiler

    def _emit(self, result, report):
        if self.reports == "profile":
            self.profiler.record(report)
            return result
        return result, report

    # -- level-2 ------------------------------------------------------------------

    def gemv(self, w: np.ndarray, x: np.ndarray):
        """``y = W @ x`` with FP16 PIM MACs, FP32 host reduction."""
        return self._emit(
            *self.sys.executor.gemv(w, x, simulate_pchs=self.simulate_pchs)
        )

    # -- level-1 ------------------------------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray):
        """Elementwise FP16 addition (residual/skip connections)."""
        return self._emit(
            *self.sys.executor.elementwise(
                "add", a, b, simulate_pchs=self.simulate_pchs
            )
        )

    def mul(self, a: np.ndarray, b: np.ndarray):
        """Elementwise FP16 multiplication."""
        return self._emit(
            *self.sys.executor.elementwise(
                "mul", a, b, simulate_pchs=self.simulate_pchs
            )
        )

    def relu(self, a: np.ndarray):
        """Elementwise ReLU during data movement (MOV with the R flag)."""
        return self._emit(
            *self.sys.executor.elementwise(
                "relu", a, simulate_pchs=self.simulate_pchs
            )
        )

    def bn(self, a: np.ndarray, gamma: float, beta: float):
        """Inference batch-norm folded to ``gamma * x + beta`` (MAD)."""
        return self._emit(
            *self.sys.executor.elementwise(
                "bn", a, scalars=(float(gamma), float(beta)),
                simulate_pchs=self.simulate_pchs,
            )
        )

    # -- composite: LSTM cell ------------------------------------------------------

    def lstm_cell(
        self,
        w_ih: np.ndarray,
        w_hh: np.ndarray,
        bias: np.ndarray,
        x: np.ndarray,
        h: np.ndarray,
        c: np.ndarray,
    ):
        """One LSTM step: the GEMVs run on PIM, activations on the host.

        The PIM LSTM custom op accelerates the two matrix-vector products
        (the memory-bound part); gate nonlinearities are host work, exactly
        as in the paper's LSTM custom op.
        Returns ``(h_next, c_next, [gemv reports])`` — or just
        ``(h_next, c_next)`` in ``reports="profile"`` mode.
        """
        hidden = h.shape[0]
        gates_x, rep_x = self.sys.executor.gemv(
            w_ih, x, simulate_pchs=self.simulate_pchs
        )
        gates_h, rep_h = self.sys.executor.gemv(
            w_hh, h, simulate_pchs=self.simulate_pchs
        )
        gates = gates_x + gates_h + np.asarray(bias, dtype=np.float32)
        i, f, g, o = (
            gates[:hidden],
            gates[hidden : 2 * hidden],
            gates[2 * hidden : 3 * hidden],
            gates[3 * hidden :],
        )
        i = _sigmoid(i)
        f = _sigmoid(f)
        g = np.tanh(g)
        o = _sigmoid(o)
        c_next = f * np.asarray(c, dtype=np.float32) + i * g
        h_next = o * np.tanh(c_next)
        h_next = h_next.astype(np.float16)
        c_next = c_next.astype(np.float16)
        if self.reports == "profile":
            self.profiler.record(rep_x)
            self.profiler.record(rep_h)
            return h_next, c_next
        return h_next, c_next, [rep_x, rep_h]


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-v))
