"""One fault plan over a stack's devices: the only way a fault reaches one.

A :class:`FaultPlan` attaches to every device of a stack -- each
:class:`~repro.device.append_log.AppendLog` and
:class:`~repro.device.block_device.SimulatedBlockDevice` -- by setting
its ``faults``.  Every state-changing device operation (the log's
``append``, ``flush``, ``fsync``, ``rename`` and ``remove``; the block
device's ``write`` and ``flush``) first calls
:meth:`FaultPlan.step`, so the plan sees one ordered sequence of
operations across all of its devices and can act before any of them:

* :meth:`fail` -- the next operation of that name raises
  :class:`~repro.common.errors.DeviceIOError` and changes nothing;
* :meth:`cut` -- power is lost on every attached device before the
  operation with that number, or before the next one of that name, which
  raises :class:`PowerLoss` instead of running;
* :meth:`tear` -- each log's open file has its tail flipped (a torn
  final write).

:meth:`power_loss` loses power on every attached device now.  A device
with no plan pays one ``None`` check per operation.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..common.errors import DeviceIOError
from .append_log import AppendLog
from .block_device import SimulatedBlockDevice

Device = Union[AppendLog, SimulatedBlockDevice]


class PowerLoss(DeviceIOError):
    """Power was cut before a device operation could run."""


class FaultPlan:
    """Faults over ``devices``, each of which it attaches to.

    ``steps`` names, in order, the device operations run since the plan
    was attached (a failed or cut operation does not run).
    """

    def __init__(self, *devices: Device) -> None:
        ops = set()
        for device in devices:
            if device.faults is not None:
                raise ValueError(f"{device!r} already has a fault plan")
            ops.update(device.FAULT_OPS)
        for device in devices:
            device.faults = self
        self._devices = devices
        self.steps: List[str] = []
        self._ops = ops
        self._fail: Optional[str] = None
        self._cut: Union[int, str, None] = None

    def _known(self, op: str) -> str:
        if op not in self._ops:
            raise ValueError(f"no attached device performs {op!r}")
        return op

    def fail(self, op: str) -> None:
        """Make the next ``op`` raise DeviceIOError without effect."""
        self._fail = self._known(op)

    def cut(self, at: Union[int, str]) -> None:
        """Lose power before operation number ``at`` from now (0: the
        next one), or before the next operation named ``at``."""
        if isinstance(at, str):
            self._cut = self._known(at)
        elif at < 0:
            raise ValueError("a cut point must be >= 0")
        else:
            self._cut = len(self.steps) + at

    def power_loss(self) -> None:
        """Every attached device keeps only what it made durable."""
        for device in self._devices:
            device._lose_power()

    def tear(self, nbytes: int) -> None:
        """Flip the last ``nbytes`` of each attached log's open file."""
        for device in self._devices:
            if isinstance(device, AppendLog):
                device._tear(nbytes)

    def step(self, device: Device, op: str) -> None:
        """Called by ``device`` before it runs ``op``."""
        cut = self._cut
        if cut is not None and (cut == op or cut == len(self.steps)):
            self._cut = None
            self.power_loss()
            raise PowerLoss(
                f"power lost before {type(device).__name__}.{op}")
        if self._fail == op:
            self._fail = None
            raise DeviceIOError(
                f"injected {type(device).__name__}.{op} failure")
        self.steps.append(op)
