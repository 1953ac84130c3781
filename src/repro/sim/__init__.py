"""Deterministic discrete-event simulation kernel.

The kernel is deliberately small: an event engine with integer cycle
timestamps (:class:`~repro.sim.engine.Engine`), a base class for named
components (:class:`~repro.sim.component.Component`), bounded queues used to
connect pipeline stages (:mod:`repro.sim.queueing`), and a statistics tree
(:mod:`repro.sim.stats`).

All timing in the repository is expressed in DRAM clock cycles of the
DDR4-1600 devices from Table I of the paper (tCK = 1.25 ns), so one engine
tick equals one DRAM cycle.
"""

from repro.sim.component import Component
from repro.sim.engine import Engine, EventHandle, SimulationError
from repro.sim.queueing import BoundedQueue, QueueFullError
from repro.sim.stats import StatScope

__all__ = [
    "BoundedQueue",
    "Component",
    "Engine",
    "EventHandle",
    "QueueFullError",
    "SimulationError",
    "StatScope",
]
