"""Hardware performance counters and perfctr-style per-vCPU virtualisation."""

from .counters import (
    COUNTER_BITS,
    COUNTER_MASK,
    EVENTS,
    CoreCounters,
    HardwareCounter,
    PmcEvent,
    PmcSample,
    delta,
)
from .perfctr import PerfctrError, PerfctrVirtualizer, VcpuPmcAccount

__all__ = [
    "COUNTER_BITS",
    "COUNTER_MASK",
    "CoreCounters",
    "EVENTS",
    "HardwareCounter",
    "PerfctrError",
    "PerfctrVirtualizer",
    "PmcEvent",
    "PmcSample",
    "VcpuPmcAccount",
    "delta",
]
