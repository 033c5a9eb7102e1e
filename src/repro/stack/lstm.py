"""The LSTM step (the paper's LSTM custom op, Section V-A).

The encoder-style LSTM layers of DS2/RNN-T/GNMT are what PIM accelerates
most.  One step is two GEMVs — the memory-bound part, run by the
simulated PIM device in FP16 — plus the gate nonlinearities and the cell
update on the host in FP32 (PIM supports only ReLU), exactly the split
the paper describes.  ``PimBlas.lstm_cell`` and the graph executor's
``pim_lstm`` run a layer step by step through :func:`lstm_step`; the
fused layer's one launch per layer (the GNMT *encoder*'s 6.2x, Section
VII-B) is the analytic model's ``Lstm.fused`` in
:mod:`repro.perf.latency`.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

__all__ = ["cell_update", "lstm_reference", "lstm_step", "sigmoid"]


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

