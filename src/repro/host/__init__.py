"""Host processor substrate: LLC, kernels, thread groups."""

from .cache import Cache, CacheConfig, CacheStats, simulate_gemv_batch
from .kernels import HostKernelResult, HostKernels
from .processor import HostConfig, HostSystem, ThreadGroup

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "simulate_gemv_batch",
    "HostKernelResult",
    "HostKernels",
    "HostConfig",
    "HostSystem",
    "ThreadGroup",
]
