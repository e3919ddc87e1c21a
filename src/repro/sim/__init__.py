"""Discrete-event simulation substrate.

This subpackage provides the equivalent of the gem5 event core and the Ruby
network model used by the paper: a tick-based event queue
(:mod:`repro.sim.event`), the :class:`~repro.sim.simulator.Simulator`
scheduler with deterministic seeding and deadlock watchdog, generic
coherence :class:`~repro.sim.message.Message` carriers, and point-to-point
:mod:`~repro.sim.network` links with ordered (FIFO) or unordered
(random-latency) delivery.
"""

from repro.sim.event import EventQueue
from repro.sim.message import Message
from repro.sim.network import FixedLatency, Network, RandomLatency
from repro.sim.component import Component, MessageBuffer
from repro.sim.simulator import DeadlockError, Simulator
from repro.sim.stats import Stats

__all__ = [
    "Component",
    "DeadlockError",
    "EventQueue",
    "FixedLatency",
    "Message",
    "MessageBuffer",
    "Network",
    "RandomLatency",
    "Simulator",
    "Stats",
]
