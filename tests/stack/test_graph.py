"""Tests for the TF-style graph framework (native path + custom ops)."""

import numpy as np
import pytest

from repro.stack.graph import (
    PIM_CUSTOM_OPS,
    PIM_ELIGIBLE_OPS,
    GraphBuilder as G,
    GraphExecutor,
    Node,
)
from repro.stack.runtime import PimSystem, SystemConfig


@pytest.fixture(scope="module")
def system():
    return PimSystem(SystemConfig(num_pchs=2, num_rows=256, simulate_pchs=1))


def rand(shape, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


class TestGraphConstruction:
    def test_node_names_unique(self):
        a, b = Node("add"), Node("add")
        assert a.name != b.name

    def test_toposort_orders_dependencies(self):
        x = G.placeholder("x")
        y = G.relu(x)
        z = G.add(y, x)
        executor = GraphExecutor([z])
        order = [n.name for n in executor.order]
        assert order.index(x.name) < order.index(y.name) < order.index(z.name)

    def test_cycle_detection(self):
        a = Node("add")
        b = Node("add", [a])
        a.inputs.append(b)
        with pytest.raises(ValueError):
            GraphExecutor([b])

    def test_custom_op_validation(self):
        with pytest.raises(ValueError):
            G.custom("pim_frobnicate", G.placeholder("x"))

    def test_custom_op_mapping_is_complete(self):
        assert set(PIM_ELIGIBLE_OPS.values()) == PIM_CUSTOM_OPS


class TestHostExecution:
    def test_missing_feed(self):
        x = G.placeholder("x")
        with pytest.raises(KeyError):
            GraphExecutor([x]).run({})

    def test_mlp_forward(self):
        w1, w2 = rand((32, 16), 0), rand((8, 32), 1)
        x = G.placeholder("x")
        out = G.matvec(w2, G.relu(G.matvec(w1, x)))
        feed = {"x": rand(16, 2)}
        (y,), _ = GraphExecutor([out]).run(feed)
        h = np.maximum(w1.astype(np.float32) @ feed["x"].astype(np.float32), 0)
        gold = w2.astype(np.float32) @ h
        assert np.abs(y - gold).max() < 1e-3

    def test_bn_and_mul(self):
        x = G.placeholder("x")
        out = G.mul(G.batch_norm(x, 2.0, 1.0), x)
        feed = {"x": rand(64, 3)}
        (y,), _ = GraphExecutor([out]).run(feed)
        bn = (feed["x"] * np.float16(2.0)).astype(np.float16) + np.float16(1.0)
        assert np.array_equal(y, (bn.astype(np.float16) * feed["x"]).astype(np.float16))


class TestNativeOffloadPath:
    def test_unmodified_graph_offloads(self, system):
        """The same graph runs on both backends without source changes —
        the paper's native execution path."""
        w = rand((256, 128), 4)
        x = G.placeholder("x")
        out = G.matvec(w, x)
        feed = {"x": rand(128, 5)}
        (host_y,), host_rep = GraphExecutor([out]).run(feed)
        (pim_y,), pim_rep = GraphExecutor(
            [out], backend="pim", system=system
        ).run(feed)
        assert host_rep.pim_launches == 0
        assert pim_rep.pim_launches == 1
        assert pim_rep.offloaded_nodes == [out.name]
        assert np.abs(host_y - pim_y).max() < 2e-3

    def test_small_ops_stay_on_host(self, system):
        w = rand((8, 8), 6)
        x = G.placeholder("x")
        out = G.matvec(w, x)
        _, report = GraphExecutor(
            [out], backend="pim", system=system, min_elements=256
        ).run({"x": rand(8, 7)})
        assert report.pim_launches == 0
        assert out.name in report.host_nodes

    def test_elementwise_offload(self, system):
        x, y = G.placeholder("x"), G.placeholder("y")
        out = G.relu(G.add(x, y))
        feed = {"x": rand(2048, 8), "y": rand(2048, 9)}
        (host_out,), _ = GraphExecutor([out]).run(feed)
        (pim_out,), report = GraphExecutor(
            [out], backend="pim", system=system
        ).run(feed)
        assert report.pim_launches == 2
        assert np.array_equal(
            np.asarray(host_out, np.float16), np.asarray(pim_out, np.float16)
        )

    def test_pim_backend_requires_system(self):
        with pytest.raises(ValueError):
            GraphExecutor([G.placeholder("x")], backend="pim")

    def test_bad_backend(self):
        with pytest.raises(ValueError):
            GraphExecutor([G.placeholder("x")], backend="tpu")


class TestDirectPath:
    def test_custom_op_always_offloads(self, system):
        """PIM custom ops bypass the preprocessor threshold (Fig. 7)."""
        x, y = G.placeholder("x"), G.placeholder("y")
        out = G.custom("pim_add", x, y)
        feed = {"x": rand(32, 10), "y": rand(32, 11)}  # tiny
        _, report = GraphExecutor(
            [out], backend="pim", system=system
        ).run(feed)
        assert report.pim_launches == 1

    def test_custom_gemv(self, system):
        w = rand((128, 64), 12)
        x = G.placeholder("x")
        out = G.custom("pim_gemv", x, w=w)
        feed = {"x": rand(64, 13)}
        (y,), report = GraphExecutor(
            [out], backend="pim", system=system
        ).run(feed)
        gold = w.astype(np.float32) @ feed["x"].astype(np.float32)
        assert np.abs(y - gold).max() < 1e-3


class TestSequenceOps:
    def test_last_selects_final_step(self):
        import numpy as np

        xs = G.placeholder("xs")
        out = G.last(xs)
        feed = {"xs": rand((4, 8), 30)}
        (y,), _ = GraphExecutor([out]).run(feed)
        assert np.array_equal(np.asarray(y), np.asarray(feed["xs"][-1]))

    def test_pim_elementwise_preserves_sequence_shape(self, system):
        import numpy as np

        xs = G.placeholder("xs")
        out = G.relu(xs)
        feed = {"xs": rand((4, 512), 31)}
        (y,), report = GraphExecutor(
            [out], backend="pim", system=system
        ).run(feed)
        assert report.pim_launches == 1
        assert np.asarray(y).shape == (4, 512)


class TestLstm:
    def test_lstm_host_vs_pim(self, system):
        T, D, H = 3, 24, 32
        w_ih, w_hh = rand((4 * H, D), 14), rand((4 * H, H), 15)
        bias = rand(4 * H, 16).astype(np.float32)
        xs = G.placeholder("xs")
        out = G.lstm(xs, w_ih, w_hh, bias)
        feed = {"xs": rand((T, D), 17)}
        (host_h,), _ = GraphExecutor([out]).run(feed)
        (pim_h,), report = GraphExecutor(
            [out], backend="pim", system=system, min_elements=64
        ).run(feed)
        assert report.pim_launches == 2 * T  # two GEMVs per step
        assert np.abs(
            host_h.astype(np.float32) - pim_h.astype(np.float32)
        ).max() < 5e-3
