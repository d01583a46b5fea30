"""Deterministic discrete-event simulation kernel."""

from .engine import AllOf, Event, Process, SimError, Simulator, Timeout
from .resources import Channel, Resource

__all__ = [
    "AllOf",
    "Channel",
    "Event",
    "Process",
    "Resource",
    "SimError",
    "Simulator",
    "Timeout",
]
