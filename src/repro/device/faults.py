"""One fault plan over a stack's devices: the only way a fault reaches one.

A :class:`FaultPlan` attaches to every
:class:`~repro.device.append_log.AppendLog` of a stack by setting its
``faults``.  Every state-changing log operation (``append``, ``flush``,
``fsync``, ``rename``, ``truncate`` and ``remove``) first calls
:meth:`FaultPlan.step`, so the plan sees one ordered sequence of
operations across all of its logs and can act before any of them:

* :meth:`fail` -- the next operation of that name raises
  :class:`~repro.common.errors.DeviceIOError` and changes nothing;
* :meth:`cut` -- power is lost on every attached log before the
  operation with that number, which raises :class:`PowerLoss` instead of
  running;
* :meth:`tear` -- each log's open file has its tail flipped (a torn
  final write).

:meth:`power_loss` loses power on every attached log now.  A power loss
keeps what the barriers that landed made durable, and leaves each log
dark: every later operation raises :class:`PowerLoss` and changes
nothing, until :meth:`~repro.device.append_log.AppendLog.reopen`
relights that log.  A log with no plan pays one ``None`` check per
operation.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.errors import DeviceIOError
from .append_log import AppendLog


class PowerLoss(DeviceIOError):
    """Power was cut before a device operation could run."""


class FaultPlan:
    """Faults over ``logs``, each of which it attaches to.

    ``steps`` names, in order, the log operations run since the plan was
    attached (a failed or cut operation, or one on a dark log, does not
    run).
    """

    def __init__(self, *logs: AppendLog) -> None:
        for log in logs:
            if log.faults is not None:
                raise ValueError(f"{log!r} already has a fault plan")
        for log in logs:
            log.faults = self
        self._logs = logs
        self.steps: List[str] = []
        self._fail: Optional[str] = None
        self._cut: Optional[int] = None

    def fail(self, op: str) -> None:
        """Make the next ``op`` raise DeviceIOError without effect."""
        if op not in AppendLog.FAULT_OPS:
            raise ValueError(f"no log operation is named {op!r}")
        self._fail = op

    def cut(self, at: int) -> None:
        """Lose power before operation number ``at`` from now (0: the
        next one)."""
        if at < 0:
            raise ValueError("a cut point must be >= 0")
        self._cut = len(self.steps) + at

    def power_loss(self) -> None:
        """Every attached log keeps what the barriers that landed made
        durable, and is dark until it reopens."""
        for log in self._logs:
            log._lose_power()

    def tear(self, nbytes: int) -> None:
        """Flip the last ``nbytes`` of each attached log's open file."""
        for log in self._logs:
            log._tear(nbytes)

    def step(self, log: AppendLog, op: str) -> None:
        """Called by ``log`` before it runs ``op``."""
        if self._cut == len(self.steps):
            self._cut = None
            self.power_loss()
        if log._dark:
            raise PowerLoss(f"power lost before {log.name}.{op}")
        if self._fail == op:
            self._fail = None
            raise DeviceIOError(f"injected {log.name}.{op} failure")
        self.steps.append(op)
