"""Simulated storage devices: latency models, block device, append log,
LUKS, and the fault plan that is the only way a fault reaches them."""

from .append_log import AppendLog
from .block_device import SimulatedBlockDevice
from .faults import FaultPlan, PowerLoss
from .latency import HDD, INTEL_750_SSD, NVM, PRESETS, ZERO, LatencyModel
from .luks import SECTOR_SIZE, LuksVolume

__all__ = [
    "AppendLog",
    "FaultPlan",
    "PowerLoss",
    "SimulatedBlockDevice",
    "LatencyModel",
    "INTEL_750_SSD",
    "HDD",
    "NVM",
    "ZERO",
    "PRESETS",
    "LuksVolume",
    "SECTOR_SIZE",
]
