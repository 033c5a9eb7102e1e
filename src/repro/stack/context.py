"""One-object entry point to the whole software stack.

:class:`PimContext` assembles ``PimSystem`` + ``PimBlas`` + ``Profiler``
as a single context-managed object configured by one
:class:`~repro.stack.runtime.SystemConfig`::

    from repro.stack import PimContext, ServerConfig, SystemConfig

    with PimContext(SystemConfig.fast_functional()) as ctx:
        y = ctx.blas.gemv(w, x)           # the report goes to ctx.profiler
        with ctx.server(ServerConfig(lanes=2)) as srv:  # same device
            ...
        print("\\n".join(ctx.report()))

The BLAS returns plain results and folds every execution report into the
context's profiler; ``ctx.system.executor.gemv`` / ``elementwise`` return
the ``(result, report)`` of one call.
"""

from __future__ import annotations

from typing import List, Optional

from .api import ServerConfig
from .blas import PimBlas
from .profiler import Profiler
from .runtime import PimSystem, SystemConfig
from .server import PimServer

__all__ = ["PimContext"]


class PimContext:
    """The assembled platform: system + driver + BLAS + profiler."""

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config or SystemConfig()
        self.system = PimSystem(self.config)
        # Observability passthrough (None unless config.trace is set).
        self.tracer = self.system.tracer
        self.metrics = self.system.metrics
        self.profiler = Profiler()
        self.blas = PimBlas(self.system, profiler=self.profiler)
        self._servers: List[PimServer] = []
        self._fabrics: List = []

    def __enter__(self) -> "PimContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release serving lanes and shut down any fabrics' workers."""
        for server in self._servers:
            server.close()
        self._servers = []
        for fabric in self._fabrics:
            fabric.close()
        self._fabrics = []

    # -- factories ----------------------------------------------------------------

    def server(self, config: Optional[ServerConfig] = None) -> PimServer:
        """A serving engine over this context's device and profiler.

        Configure with one :class:`~repro.stack.api.ServerConfig`
        (``ctx.server(ServerConfig(lanes=2, max_batch=4))``).  The
        server's per-request statistics and batch reports land in the
        context's profiler; its channel leases are released when the
        server (or the context) closes.
        """
        server = PimServer(self.system, config, profiler=self.profiler)
        self._servers.append(server)
        return server

    def fabric(self, workers: int = 2, config: Optional[ServerConfig] = None):
        """A sharded multi-process serving fabric over this config.

        The blessed entry point to scale-out serving: spawns ``workers``
        worker processes, each owning a full device replica configured
        exactly like this context's system, and routes
        :class:`~repro.stack.api.Request` submissions across them (see
        :class:`~repro.stack.fabric.PimFabric`).  Merged serving
        profiles land in this context's profiler, shard-tagged trace
        spans in its tracer, and counters in its metrics registry.  The
        workers are shut down when the fabric (or the context) closes.
        """
        from .fabric import PimFabric  # local: fabric->worker->context cycle

        fabric = PimFabric(
            self.config,
            workers=workers,
            server_config=config,
            profiler=self.profiler,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self._fabrics.append(fabric)
        return fabric

    # -- reporting ----------------------------------------------------------------

    def report(self, tccd_l: int = 4) -> List[str]:
        """Render the profiler's kernel table plus any serving session."""
        lines = ["kernel profile:"]
        lines.extend(self.profiler.profile.render(tccd_l=tccd_l))
        if self.profiler.serving is not None:
            lines.append("serving profile:")
            lines.extend(self.profiler.serving.render())
        if self.metrics is not None and self.metrics.names():
            lines.append("metrics:")
            lines.extend("  " + line for line in self.metrics.render())
        return lines
