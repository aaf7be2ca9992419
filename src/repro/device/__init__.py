"""Simulated storage devices: latency models, the append log every
persisted byte lives on, and the fault plan that is the only way a fault
reaches one."""

from .append_log import AppendLog
from .faults import FaultPlan, PowerLoss
from .latency import HDD, INTEL_750_SSD, NVM, PRESETS, ZERO, LatencyModel

__all__ = [
    "AppendLog",
    "FaultPlan",
    "PowerLoss",
    "LatencyModel",
    "INTEL_750_SSD",
    "HDD",
    "NVM",
    "ZERO",
    "PRESETS",
]
