"""Collaborative host+PIM GEMV — the paper's future-work proposal.

Section VIII: an HBM3-generation PIM-HBM with fine-grained SB/AB-PIM
interleaving would let "both the host processor and PIM perform GEMV in a
collaborative way and eliminate the need for data layout rearrangement."

This module implements the proposal on the simulator:

* the output rows of ``W`` are split: the top fraction runs on PIM (laid
  out PIM-friendly), the rest stays in host layout and is computed by the
  host (modelled numerically with FP32 and, for timing, with the host
  roofline);
* because both sides work concurrently, the layer time is
  ``max(pim_time, host_time)`` — the optimal split equalises the two,
  derived in closed form from the calibrated bandwidth model.

``CollaborativeGemv.sweep_split`` regenerates the ablation curve that
motivates the feature (see ``benchmarks/bench_collaborative_gemv.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..perf.latency import PIM_HBM, PROC_HBM, LatencyModel, SystemPerf
from .kernels import ExecutionReport, GemvKernel
from .runtime import PimSystem

__all__ = ["CollaborativeGemv", "CollaborativeReport", "optimal_split"]


@dataclass(frozen=True)
class CollaborativeReport:
    """Outcome of one collaborative invocation."""

    pim_rows: int
    host_rows: int
    pim_ns: float
    host_ns: float

    @property
    def ns(self) -> float:
        return max(self.pim_ns, self.host_ns)

    @property
    def balance(self) -> float:
        """1.0 means the two sides finish together (perfect split)."""
        if self.ns == 0:
            return 1.0
        return min(self.pim_ns, self.host_ns) / self.ns


def optimal_split(
    m: int,
    n: int,
    batch: int = 1,
    pim: Optional[LatencyModel] = None,
    host: Optional[LatencyModel] = None,
    granularity: int = 128,
) -> int:
    """PIM-side output rows that minimise ``max(pim, host)`` time.

    At batch 1 PIM dominates and the optimum is usually all-PIM; around
    the Fig. 10 crossover (batch 2-4) the two sides are comparable and a
    genuine split wins — the regime the paper's proposal targets.  The
    optimum is found by sweeping tile-granular splits (host efficiency is
    nonlinear in its row count, so no clean closed form exists).
    """
    pim = pim or LatencyModel(PIM_HBM)
    host = host or LatencyModel(PROC_HBM)
    best_rows, best_ns = 0, float("inf")
    for rows in range(0, m + 1, granularity):
        pim_ns = pim.pim_gemv(rows, n, batch).ns if rows else 0.0
        host_ns = host.host_gemv(m - rows, n, batch).ns if rows < m else 0.0
        ns = max(pim_ns, host_ns)
        if ns < best_ns:
            best_rows, best_ns = rows, ns
    return best_rows


class CollaborativeGemv:
    """A GEMV split across the PIM device and the host processor."""

    def __init__(
        self,
        system: PimSystem,
        m: int,
        n: int,
        pim_rows: Optional[int] = None,
    ):
        self.sys = system
        self.m = m
        self.n = n
        if pim_rows is None:
            pim_rows = optimal_split(m, n)
        if not 0 <= pim_rows <= m:
            raise ValueError("pim_rows out of range")
        # Snap to tile granularity so the PIM slice fills whole tiles.
        self.pim_rows = min(m, -(-pim_rows // 128) * 128) if pim_rows else 0
        self.host_rows = m - self.pim_rows
        self._kernel = (
            GemvKernel(system, self.pim_rows, n) if self.pim_rows else None
        )
        self._w_host: Optional[np.ndarray] = None
        self._host_model = LatencyModel(PROC_HBM)
        self._pim_model = LatencyModel(PIM_HBM)

    def load_weights(self, w: np.ndarray) -> None:
        """Stage the PIM slice PIM-friendly; keep the host slice as-is."""
        w = np.asarray(w, dtype=np.float16)
        if w.shape != (self.m, self.n):
            raise ValueError(f"expected {(self.m, self.n)} weights")
        if self._kernel is not None:
            self._kernel.load_weights(w[: self.pim_rows])
        # The host slice keeps its original layout: no rearrangement —
        # the point of the proposal.
        self._w_host = w[self.pim_rows :].copy()

    def __call__(self, x: np.ndarray) -> Tuple[np.ndarray, CollaborativeReport]:
        x = np.asarray(x, dtype=np.float16)
        y = np.zeros(self.m, dtype=np.float32)
        pim_ns = 0.0
        if self._kernel is not None:
            y_pim, report = self._kernel(
                x, simulate_pchs=self.sys.config.simulate_pchs
            )
            y[: self.pim_rows] = y_pim
            pim_ns = report.ns
        host_ns = 0.0
        if self.host_rows:
            if self._w_host is None:
                raise RuntimeError("load_weights() first")
            y[self.pim_rows :] = (
                self._w_host.astype(np.float32) @ x.astype(np.float32)
            )
            host_ns = self._host_model.host_gemv(self.host_rows, self.n).ns
        return y, CollaborativeReport(self.pim_rows, self.host_rows, pim_ns, host_ns)

    # -- the motivating ablation ---------------------------------------------------

    @staticmethod
    def sweep_split(
        m: int, n: int, batch: int = 1, points: int = 9,
        pim: Optional[LatencyModel] = None,
        host: Optional[LatencyModel] = None,
    ) -> Dict[int, float]:
        """Modelled layer time (ns) as a function of PIM-side rows."""
        pim = pim or LatencyModel(PIM_HBM)
        host = host or LatencyModel(PROC_HBM)
        out: Dict[int, float] = {}
        for i in range(points):
            rows = int(round(m * i / (points - 1) / 128)) * 128
            rows = min(m, rows)
            pim_ns = pim.pim_gemv(rows, n, batch).ns if rows else 0.0
            host_ns = host.host_gemv(m - rows, n, batch).ns if rows < m else 0.0
            out[rows] = max(pim_ns, host_ns)
        return out
