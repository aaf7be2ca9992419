"""Shared infrastructure: clocks, errors, hashing, histograms, RESP codec."""

from .clock import Clock, SimClock
from .errors import ReproError
from .histogram import LatencyHistogram

__all__ = [
    "Clock",
    "SimClock",
    "ReproError",
    "LatencyHistogram",
]
