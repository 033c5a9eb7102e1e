"""A miniature TensorFlow-style graph framework with PIM support (Fig. 6).

The point the paper demonstrates is that *unmodified application source*
runs on PIM: the user builds a graph from generic ops, and the **PIM
preprocessor** rewrites eligible ops to PIM BLAS calls at runtime (the
orange "native execution path" of Fig. 6).  Power users can instead call
**PIM custom ops** explicitly (the "PIM-direct execution path" of Fig. 7).

Supported generic ops: ``matvec`` (dense matrix x vector), ``add``, ``mul``,
``relu``, ``batch_norm``, ``lstm`` and the host-only ``last``.  Custom ops:
``pim_gemv``, ``pim_add``, ``pim_mul``, ``pim_relu``, ``pim_bn``,
``pim_lstm`` — the six custom TF operations of Section V-A.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .kernels import ExecutionReport
from .lstm import lstm_reference, lstm_step
from .runtime import PimSystem

__all__ = [
    "Node",
    "GraphBuilder",
    "GraphExecutor",
    "RunReport",
    "PIM_ELIGIBLE_OPS",
    "PIM_CUSTOM_OPS",
]

_counter = itertools.count()

# Generic ops the preprocessor may offload, and their custom-op equivalents.
PIM_ELIGIBLE_OPS = {
    "matvec": "pim_gemv",
    "add": "pim_add",
    "mul": "pim_mul",
    "relu": "pim_relu",
    "batch_norm": "pim_bn",
    "lstm": "pim_lstm",
}
PIM_CUSTOM_OPS = set(PIM_ELIGIBLE_OPS.values())

# The elementwise custom ops: executor operator name and operand count.
_ELEMENTWISE = {
    "pim_add": ("add", 2),
    "pim_mul": ("mul", 2),
    "pim_relu": ("relu", 1),
    "pim_bn": ("bn", 1),
}

# Below this many elements, offload overhead dominates and the preprocessor
# leaves the op on the host.
PIM_MIN_ELEMENTS = 256


@dataclass
class Node:
    """One graph node: an op applied to input nodes with constant params."""

    op: str
    inputs: List["Node"] = field(default_factory=list)
    params: Dict[str, np.ndarray] = field(default_factory=dict)
    attrs: Dict[str, Any] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"{self.op}_{next(_counter)}"

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


class GraphBuilder:
    """Convenience constructors for graph nodes (the user-facing API)."""

    @staticmethod
    def placeholder(name: str) -> Node:
        return Node("placeholder", attrs={"key": name}, name=name)

    @staticmethod
    def matvec(w: np.ndarray, x: Node, name: str = "") -> Node:
        return Node("matvec", [x], params={"w": np.asarray(w, np.float16)}, name=name)

    @staticmethod
    def add(a: Node, b: Node, name: str = "") -> Node:
        return Node("add", [a, b], name=name)

    @staticmethod
    def mul(a: Node, b: Node, name: str = "") -> Node:
        return Node("mul", [a, b], name=name)

    @staticmethod
    def relu(x: Node, name: str = "") -> Node:
        return Node("relu", [x], name=name)

    @staticmethod
    def batch_norm(x: Node, gamma: float, beta: float, name: str = "") -> Node:
        return Node("batch_norm", [x], attrs={"gamma": gamma, "beta": beta}, name=name)

    @staticmethod
    def last(x: Node, name: str = "") -> Node:
        """Select the last time step of a sequence (host-only op)."""
        return Node("last", [x], name=name)

    @staticmethod
    def lstm(
        x_seq: Node,
        w_ih: np.ndarray,
        w_hh: np.ndarray,
        bias: np.ndarray,
        name: str = "",
    ) -> Node:
        return Node(
            "lstm",
            [x_seq],
            params={
                "w_ih": np.asarray(w_ih, np.float16),
                "w_hh": np.asarray(w_hh, np.float16),
                "bias": np.asarray(bias, np.float32),
            },
            name=name,
        )

    # -- explicit PIM custom ops (the PIM-direct path) ----------------------------

    @staticmethod
    def custom(op: str, *inputs: Node, **kwargs: Any) -> Node:
        if op not in PIM_CUSTOM_OPS:
            raise ValueError(f"{op!r} is not a PIM custom op")
        params = {k: v for k, v in kwargs.items() if isinstance(v, np.ndarray)}
        attrs = {k: v for k, v in kwargs.items() if not isinstance(v, np.ndarray)}
        return Node(op, list(inputs), params=params, attrs=attrs)


@dataclass
class RunReport:
    """Aggregate of one graph execution."""

    pim_reports: List[ExecutionReport] = field(default_factory=list)
    offloaded_nodes: List[str] = field(default_factory=list)
    host_nodes: List[str] = field(default_factory=list)

    @property
    def pim_cycles(self) -> int:
        return sum(r.cycles for r in self.pim_reports)

    @property
    def pim_launches(self) -> int:
        return len(self.pim_reports)


class GraphExecutor:
    """Runs a graph on the host, optionally offloading to PIM.

    ``backend='host'`` computes everything in numpy (FP16 elementwise /
    FP32 accumulation — the precision a real host kernel would use).
    ``backend='pim'`` applies the preprocessor: every eligible op above the
    size threshold is dispatched to the system's PIM executor, without any
    change to the graph the user built.
    """

    def __init__(
        self,
        outputs: Sequence[Node],
        backend: str = "host",
        system: Optional[PimSystem] = None,
        min_elements: int = PIM_MIN_ELEMENTS,
    ):
        if backend not in ("host", "pim"):
            raise ValueError("backend must be 'host' or 'pim'")
        if backend == "pim" and system is None:
            raise ValueError("the pim backend needs a PimSystem")
        self.outputs = list(outputs)
        self.backend = backend
        self.system = system
        self.min_elements = min_elements
        self.order = self._toposort(self.outputs)

    @staticmethod
    def _toposort(outputs: Sequence[Node]) -> List[Node]:
        seen: Dict[Node, bool] = {}
        order: List[Node] = []

        def visit(node: Node) -> None:
            state = seen.get(node)
            if state is True:
                return
            if state is False:
                raise ValueError("graph contains a cycle")
            seen[node] = False
            for parent in node.inputs:
                visit(parent)
            seen[node] = True
            order.append(node)

        for node in outputs:
            visit(node)
        return order

    # -- the preprocessor's offload decision ---------------------------------------

    def _offloads(self, node: Node, values: List[np.ndarray]) -> bool:
        if self.backend != "pim":
            return False
        op = node.op
        if op in PIM_CUSTOM_OPS:
            return True  # explicit custom op: always PIM
        if op not in PIM_ELIGIBLE_OPS:
            return False
        size = max((v.size for v in values), default=0)
        for param in node.params.values():
            size = max(size, param.size)
        return size >= self.min_elements

    # -- execution -------------------------------------------------------------------

    def run(
        self, feeds: Optional[Dict[str, np.ndarray]] = None
    ) -> Tuple[List[np.ndarray], RunReport]:
        """Execute the graph; returns output values and a run report."""
        feeds = feeds or {}
        report = RunReport()
        values: Dict[Node, np.ndarray] = {}
        for node in self.order:
            ins = [values[p] for p in node.inputs]
            if self._offloads(node, ins):
                values[node] = self._run_pim(node, ins, report)
                report.offloaded_nodes.append(node.name)
            else:
                values[node] = self._run_host(node, ins, feeds)
                if node.op != "placeholder":
                    report.host_nodes.append(node.name)
        return [values[n] for n in self.outputs], report

    def _run_host(
        self, node: Node, ins: List[np.ndarray], feeds: Dict[str, np.ndarray]
    ) -> np.ndarray:
        op = node.op
        if op == "placeholder":
            key = node.attrs["key"]
            if key not in feeds:
                raise KeyError(f"missing feed for placeholder {key!r}")
            return np.asarray(feeds[key], dtype=np.float16)
        if op in ("matvec", "pim_gemv"):
            w = node.params["w"]
            return (w.astype(np.float32) @ ins[0].astype(np.float32)).astype(np.float32)
        if op in ("add", "pim_add"):
            return (ins[0].astype(np.float16) + ins[1].astype(np.float16)).astype(np.float16)
        if op in ("mul", "pim_mul"):
            return (ins[0].astype(np.float16) * ins[1].astype(np.float16)).astype(np.float16)
        if op in ("relu", "pim_relu"):
            return np.maximum(ins[0], 0).astype(ins[0].dtype)
        if op in ("batch_norm", "pim_bn"):
            gamma = np.float16(node.attrs["gamma"])
            beta = np.float16(node.attrs["beta"])
            x = ins[0].astype(np.float16)
            return ((x * gamma).astype(np.float16) + beta).astype(np.float16)
        if op == "last":
            return np.asarray(ins[0])[-1]
        if op in ("lstm", "pim_lstm"):
            params = node.params
            return lstm_reference(
                params["w_ih"], params["w_hh"], params["bias"], ins[0]
            ).astype(np.float16)
        raise ValueError(f"unknown op {op!r}")

    def _run_pim(
        self, node: Node, ins: List[np.ndarray], report: RunReport
    ) -> np.ndarray:
        executor = self.system.executor

        def launched(outcome: Tuple[np.ndarray, ExecutionReport]) -> np.ndarray:
            out, rep = outcome
            report.pim_reports.append(rep)
            return out

        op = PIM_ELIGIBLE_OPS.get(node.op, node.op)
        if op == "pim_gemv":
            return launched(
                executor.gemv(node.params["w"], ins[0].astype(np.float16))
            )
        if op in _ELEMENTWISE:
            name, arity = _ELEMENTWISE[op]
            scalars = None
            if op == "pim_bn":
                scalars = (float(node.attrs["gamma"]), float(node.attrs["beta"]))
            out = launched(
                executor.elementwise(name, *ins[:arity], scalars=scalars)
            )
            return out.reshape(np.asarray(ins[0]).shape)
        if op == "pim_lstm":
            params = node.params
            h = c = np.zeros(params["w_hh"].shape[1], dtype=np.float16)
            outs = []
            for x in np.asarray(ins[0], dtype=np.float16):
                h, c = lstm_step(
                    lambda w, v: launched(executor.gemv(w, v)),
                    params["w_ih"], params["w_hh"], params["bias"], x, h, c,
                )
                outs.append(h)
            return np.stack(outs)
        raise ValueError(f"cannot offload {node.op!r}")
