"""A DeepSpeech2-style LSTM network through the TF-like graph framework.

Demonstrates the paper's central software claim (Section V): the *same
unmodified graph* runs on the host backend and on the PIM backend — the
runtime preprocessor finds the LSTM/matvec ops and offloads them to the
PIM BLAS, while small ops stay on the host.

Run:  python examples/speech_lstm.py
"""

import numpy as np

from repro import GraphBuilder as G
from repro import GraphExecutor, PimSystem, SystemConfig


def build_speech_model(rng, input_dim=40, hidden=64, classes=12):
    """A miniature DS2: one LSTM layer + an FC classifier over time."""
    w_ih = (rng.standard_normal((4 * hidden, input_dim)) * 0.1).astype(np.float16)
    w_hh = (rng.standard_normal((4 * hidden, hidden)) * 0.1).astype(np.float16)
    bias = (rng.standard_normal(4 * hidden) * 0.1).astype(np.float32)
    w_fc = (rng.standard_normal((classes, hidden)) * 0.1).astype(np.float16)

    spectrogram = G.placeholder("spectrogram")
    hidden_seq = G.lstm(spectrogram, w_ih, w_hh, bias, name="lstm_encoder")
    # Classify the final frame (a stand-in for the CTC head).
    final = G.last(G.relu(hidden_seq, name="seq_relu"), name="final_frame")
    logits = G.matvec(w_fc, final, name="classifier")
    return spectrogram, logits


def main():
    rng = np.random.default_rng(3)
    _, logits = build_speech_model(rng)

    # Synthetic 2-second utterance: T frames of filterbank features.
    utterance = (rng.standard_normal((6, 40)) * 0.3).astype(np.float16)
    feed = {"spectrogram": utterance}

    # --- Host baseline (PROC-HBM) ---------------------------------------
    host_out, host_report = GraphExecutor([logits]).run(feed)
    print("Host backend:")
    print(f"  ops on host: {len(host_report.host_nodes)}, offloaded: 0")

    # --- PIM backend: same graph, zero source changes --------------------
    system = PimSystem(SystemConfig(num_pchs=2, num_rows=256, simulate_pchs=1))
    pim_out, pim_report = GraphExecutor(
        [logits], backend="pim", system=system, min_elements=128
    ).run(feed)
    print("\nPIM backend (unmodified graph):")
    print(f"  offloaded ops : {pim_report.offloaded_nodes}")
    print(f"  host ops      : {pim_report.host_nodes}")
    print(f"  PIM launches  : {pim_report.pim_launches}")
    print(f"  PIM cycles    : {pim_report.pim_cycles}")

    drift = np.abs(
        np.asarray(host_out[0], np.float32)
        - np.asarray(pim_out[0], np.float32)
    ).max()
    print(f"\nmax |host - pim| on logits: {drift:.2e} "
          "(FP16 device arithmetic vs host FP32)")

    # The modelled end-to-end numbers for the real DS2 (Fig. 10):
    from repro.apps.models import DS2
    from repro.perf.latency import LatencyModel, PIM_HBM, PROC_HBM

    host_ns = LatencyModel(PROC_HBM).app_time(DS2)["total"]
    pim_ns = LatencyModel(PIM_HBM).app_time(DS2)["total"]
    print(f"\nFull DS2 model (performance model): "
          f"{host_ns / 1e6:.0f} ms -> {pim_ns / 1e6:.0f} ms, "
          f"speedup {host_ns / pim_ns:.1f}x (paper: 3.5x)")


if __name__ == "__main__":
    main()
