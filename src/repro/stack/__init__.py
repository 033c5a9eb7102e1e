"""The PIM software stack: driver, runtime, BLAS, and graph framework."""

from ..errors import (
    PimChannelError,
    PimDataError,
    PimError,
    PimJournalError,
    PimOverloadError,
    PimProgramError,
    PimReplayError,
    PimWorkerError,
)
from .api import Request, ServerConfig, request_signature
from .blas import (
    PimBlas,
    add_reference,
    bn_reference,
    gemv_reference,
    mul_reference,
    relu_reference,
)
from .graph import (
    PIM_CUSTOM_OPS,
    PIM_ELIGIBLE_OPS,
    GraphBuilder,
    GraphExecutor,
    Node,
    RunReport,
)
from .driver import (
    ChannelSet,
    PimAllocationError,
    PimDeviceDriver,
    RowSetRange,
    ScrubResult,
)
from .memory import MicrokernelCache
from .kernels import (
    ELEMENTWISE_OPS,
    ElementwiseKernel,
    ExecutionReport,
    GemvKernel,
)
from .collaborative import CollaborativeGemv, CollaborativeReport, optimal_split
from .profiler import (
    BreakerTransition,
    KernelProfile,
    Profiler,
    RequestStats,
    ServingProfile,
    SessionProfile,
)
from .runtime import PimExecutor, PimSystem, SystemConfig
from .server import PimRequest, PimServer, RequestOutcome
from .context import PimContext
from .fabric import FabricHandle, PimFabric

__all__ = [
    "PimBlas",
    "add_reference",
    "bn_reference",
    "gemv_reference",
    "mul_reference",
    "relu_reference",
    "ChannelSet",
    "PimError",
    "PimDataError",
    "PimChannelError",
    "PimAllocationError",
    "PimOverloadError",
    "PimProgramError",
    "PimWorkerError",
    "PimJournalError",
    "PimReplayError",
    "PimDeviceDriver",
    "RowSetRange",
    "ScrubResult",
    "ELEMENTWISE_OPS",
    "ElementwiseKernel",
    "ExecutionReport",
    "GemvKernel",
    "CollaborativeGemv",
    "CollaborativeReport",
    "optimal_split",
    "BreakerTransition",
    "KernelProfile",
    "Profiler",
    "RequestStats",
    "ServingProfile",
    "SessionProfile",
    "PimExecutor",
    "PimSystem",
    "SystemConfig",
    "PimContext",
    "PimRequest",
    "PimServer",
    "RequestOutcome",
    "Request",
    "ServerConfig",
    "request_signature",
    "FabricHandle",
    "PimFabric",
    "MicrokernelCache",
    "PIM_CUSTOM_OPS",
    "PIM_ELIGIBLE_OPS",
    "GraphBuilder",
    "GraphExecutor",
    "Node",
    "RunReport",
]
