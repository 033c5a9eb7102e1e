"""The fused LSTM operator (the paper's LSTM custom op, Section V-A).

The encoder-style LSTM layers of DS2/RNN-T/GNMT are what PIM accelerates
most; the runtime fuses a whole layer into one operator so the device is
configured once (one AB entry, one CRF program, weights resident) and each
step only streams its two GEMVs plus the host-side gate nonlinearities —
the "reduced number of kernel calls" that gives the GNMT *encoder* its
6.2x while the per-step decoder path lags (Section VII-B).

Functionally the gates are computed by the simulated PIM device in FP16;
sigmoid/tanh and the cell update run on the host in FP32 (PIM supports only
ReLU), exactly the split the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .kernels import ExecutionReport, GemvKernel
from .runtime import PimSystem

__all__ = [
    "LstmLayerOperator", "LstmStepReport",
    "cell_update", "lstm_reference", "lstm_step", "sigmoid",
]


def sigmoid(v: np.ndarray) -> np.ndarray:
    """The logistic gate nonlinearity (host work: PIM has only ReLU)."""
    return 1.0 / (1.0 + np.exp(-v))


def cell_update(
    gates: np.ndarray, c: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The host half of one LSTM step: ``(h_next, c_next)``.

    ``gates`` is the (4H,) pre-activation ``gates_x + gates_h + bias`` in
    the order i, f, g, o; the result keeps the dtype of ``gates`` and
    ``c`` (every caller passes FP32 and does its own rounding).
    """
    i, f, g, o = np.split(gates, 4)
    c = sigmoid(f) * c + sigmoid(i) * np.tanh(g)
    return sigmoid(o) * np.tanh(c), c


def lstm_step(
    gemv: Callable[[np.ndarray, np.ndarray], np.ndarray],
    w_ih: np.ndarray, w_hh: np.ndarray, bias: np.ndarray,
    x: np.ndarray, h: np.ndarray, c: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One LSTM step with FP16 state: the two GEMVs through ``gemv``
    (the PIM custom op's memory-bound part), the gates in FP32 on the
    host, then ``h`` and ``c`` rounded to FP16."""
    gates = gemv(w_ih, x) + gemv(w_hh, h) + np.asarray(bias, dtype=np.float32)
    h, c = cell_update(gates, np.asarray(c, dtype=np.float32))
    return h.astype(np.float16), c.astype(np.float16)


def lstm_reference(
    w_ih: np.ndarray, w_hh: np.ndarray, bias: np.ndarray, x_seq: np.ndarray
) -> np.ndarray:
    """FP32 host reference of one LSTM layer over ``x_seq`` (T, D)."""
    w_ih, w_hh, bias = (np.asarray(a, np.float32) for a in (w_ih, w_hh, bias))
    h = c = np.zeros(w_hh.shape[1], dtype=np.float32)
    out = []
    for x in np.asarray(x_seq, dtype=np.float32):
        h, c = cell_update(w_ih @ x + w_hh @ h + bias, c)
        out.append(h)
    return np.stack(out)


@dataclass
class LstmStepReport:
    """Timing of one LSTM step (two gate GEMVs)."""

    step: int
    cycles: int
    column_commands: int


class LstmLayerOperator:
    """A resident, fused LSTM layer on the PIM device.

    Weights ``w_ih`` (4H x D) and ``w_hh`` (4H x H) are staged once; each
    ``__call__`` runs the full sequence.  Returns the hidden-state sequence
    and a merged execution report.
    """

    def __init__(self, system: PimSystem, input_dim: int, hidden: int):
        self.sys = system
        self.input_dim = input_dim
        self.hidden = hidden
        self._gemv_x = GemvKernel(system, 4 * hidden, input_dim)
        self._gemv_h = GemvKernel(system, 4 * hidden, hidden)
        self._loaded = False

    def load_weights(
        self, w_ih: np.ndarray, w_hh: np.ndarray, bias: np.ndarray
    ) -> None:
        """Stage both weight matrices into the PIM region."""
        w_ih = np.asarray(w_ih, dtype=np.float16)
        w_hh = np.asarray(w_hh, dtype=np.float16)
        if w_ih.shape != (4 * self.hidden, self.input_dim):
            raise ValueError(f"w_ih must be {(4 * self.hidden, self.input_dim)}")
        if w_hh.shape != (4 * self.hidden, self.hidden):
            raise ValueError(f"w_hh must be {(4 * self.hidden, self.hidden)}")
        self._gemv_x.load_weights(w_ih)
        self._gemv_h.load_weights(w_hh)
        self.bias = np.asarray(bias, dtype=np.float32)
        if self.bias.shape != (4 * self.hidden,):
            raise ValueError("bias must be (4H,)")
        self._loaded = True

    def __call__(
        self,
        x_seq: np.ndarray,
        h0: Optional[np.ndarray] = None,
        c0: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, ExecutionReport, List[LstmStepReport]]:
        """Run the layer over ``x_seq`` of shape (T, input_dim)."""
        if not self._loaded:
            raise RuntimeError("load_weights() before invoking the layer")
        x_seq = np.asarray(x_seq, dtype=np.float16)
        if x_seq.ndim != 2 or x_seq.shape[1] != self.input_dim:
            raise ValueError(f"x_seq must be (T, {self.input_dim})")
        hidden = self.hidden
        h = (np.zeros(hidden, dtype=np.float16) if h0 is None
             else np.asarray(h0, dtype=np.float16))
        c = (np.zeros(hidden, dtype=np.float32) if c0 is None
             else np.asarray(c0, dtype=np.float32))

        simulate_pchs = self.sys.config.simulate_pchs
        merged = ExecutionReport(
            kernel=f"lstm[{self.input_dim}->{hidden}]x{x_seq.shape[0]}",
            total_pchs=self.sys.num_pchs,
            simulated_pchs=(
                self.sys.num_pchs if simulate_pchs is None
                else min(simulate_pchs, self.sys.num_pchs)
            ),
        )
        steps: List[LstmStepReport] = []
        outputs = []
        for t, x in enumerate(x_seq):
            gates_x, rep_x = self._gemv_x(x, simulate_pchs=simulate_pchs)
            gates_h, rep_h = self._gemv_h(h, simulate_pchs=simulate_pchs)
            h, c = cell_update(gates_x + gates_h + self.bias, c)
            h = h.astype(np.float16)
            outputs.append(h)
            cycles = rep_x.cycles + rep_h.cycles
            merged.cycles += cycles
            merged.ns += rep_x.ns + rep_h.ns
            merged.column_commands += rep_x.column_commands + rep_h.column_commands
            merged.fences += rep_x.fences + rep_h.fences
            merged.pim_instructions += rep_x.pim_instructions + rep_h.pim_instructions
            merged.pim_flops += rep_x.pim_flops + rep_h.pim_flops
            steps.append(LstmStepReport(
                t, cycles, rep_x.column_commands + rep_h.column_commands,
            ))
        # Fused layer = one launch: a single launch overhead, not 2T.
        merged.ns -= (2 * x_seq.shape[0] - 1) * self.sys.host.kernel_launch_ns
        return np.stack(outputs), merged, steps
