"""Deterministic discrete-event engine.

Events live in one binary heap of ``(time, seq, event)`` triples owned by
the :class:`Engine`.  ``seq`` comes from a per-engine counter that only ever
increases, so events of the same cycle run in scheduling order — including
events pushed for the cycle that is being drained, which sort after
everything already queued for it.  That keeps every simulation in this
repository exactly reproducible: the same configuration and workload always
produce the same cycle counts and energy totals.

An event is either a bare callable or an :class:`EventHandle` (a cancellable
wrapper returned by :meth:`Engine.schedule_cancellable`).  Hot paths that
already hold a validated integer time ``>= engine.now`` — the fabric's
per-hop arrivals — may push ``(time, next(engine.seq), event)`` onto
``engine.queue`` directly with :func:`heapq.heappush`; every other caller
goes through :meth:`Engine.schedule` / :meth:`Engine.schedule_at`, which
validate the time first.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised for invalid use of the engine (e.g. scheduling in the past)."""


def _integral_time(time: Any, delay: Any) -> int:
    """Coerce a non-``int`` event time to ``int``, rejecting fractions.

    Event times are integer DRAM cycles; a fractional delay would silently
    land on a wrong cycle (the old engine truncated via ``int(delay)``).
    Integral floats and numpy integers are accepted and normalized.
    """
    try:
        coerced = int(time)
        exact = coerced == time
    except (TypeError, ValueError, OverflowError):
        coerced, exact = 0, False
    if not exact:
        raise SimulationError(
            f"non-integral delay {delay!r}: event times are integer DRAM "
            "cycles (round explicitly at the call site)"
        )
    return coerced


class EventHandle:
    """A cancellable scheduled event (see ``Engine.schedule_cancellable``).

    Slotted and minimal on purpose: the hot path queues bare callables, and
    only call sites that may need to retract or supersede an event
    (controller wakeups, packer flush timers) pay for a handle.
    Cancellation is O(1): the handle is flagged and the engine drops it,
    without running the callback, when its cycle comes up.
    """

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        """Retract the event; a no-op if it already ran or was cancelled."""
        self.cancelled = True


class Engine:
    """Event-driven simulator with integer cycle timestamps.

    Example
    -------
    >>> eng = Engine()
    >>> hits = []
    >>> eng.schedule(5, lambda: hits.append(eng.now))
    >>> eng.run()
    >>> hits
    [5]
    """

    #: Process-wide event counter across every engine instance; the perf
    #: harness (``python -m repro bench``) reads deltas of this to report
    #: events/sec for a whole experiment campaign.
    _global_events_executed: int = 0

    #: Process-wide queue occupancy totals (``events_enqueued`` /
    #: ``cycles_started``).  Each :meth:`run` folds its engine's counter
    #: deltas in here, so the perf harness can report batching behaviour
    #: (events per populated cycle) for a whole campaign without reaching
    #: into individual engines.
    _global_occupancy: dict = {}

    #: Recorder newly constructed engines adopt (see :mod:`repro.obs`).
    #: ``None`` keeps tracing disabled; instrument sites throughout the
    #: simulator guard with ``if engine.tracer:`` so a disabled run pays
    #: one attribute read per site.  Set via ``repro.obs.install`` /
    #: ``TraceSession`` rather than directly.
    default_tracer = None

    #: Monotonic engine counter; doubles as the trace ``pid`` so each
    #: single-shot system appears as its own process on a shared timeline.
    _next_trace_id: int = 0

    @classmethod
    def global_events_executed(cls) -> int:
        """Total events executed by all engines in this process."""
        return cls._global_events_executed

    @classmethod
    def reset_process_counters(cls) -> None:
        """Zero the process-wide event and occupancy counters.

        The perf harness calls this at the start of each measured run so
        events/sec never mixes in counts inherited from earlier work in
        the same process (or, under ``fork``-based multiprocessing, from
        the parent at fork time).
        """
        cls._global_events_executed = 0
        cls._global_occupancy = {}

    @classmethod
    def process_occupancy(cls) -> dict:
        """Event-queue occupancy totals since :meth:`reset_process_counters`.

        Maps the queue's name (``"heap"``, the only one) to
        ``events_enqueued`` / ``cycles_started`` / ``avg_batch`` aggregated
        over every completed :meth:`run` in this process; empty when no
        run completed.
        """
        totals = cls._global_occupancy
        if not totals:
            return {}
        cycles = totals["cycles_started"]
        return {"heap": {
            "events_enqueued": totals["events_enqueued"],
            "cycles_started": cycles,
            # repro: allow[int-cycle-arithmetic] -- derived reporting
            # ratio for the bench payload; never feeds back into timing.
            "avg_batch": totals["events_enqueued"] / cycles if cycles else 0.0,
        }}

    def __init__(self) -> None:
        #: Current simulation time in DRAM cycles.  A plain attribute on
        #: purpose: this is the single most-read value in the simulator
        #: and a property costs a descriptor call per read.  Only the run
        #: loop writes it.
        self.now: int = 0
        #: The event queue: a binary heap of ``(time, seq, event)``.  The
        #: list object is never rebound, so components may hold it.
        self.queue: List[tuple] = []
        #: Tie-breaker source for :attr:`queue` entries (FIFO per cycle).
        self.seq = itertools.count()
        self._events_executed: int = 0
        self._running: bool = False
        self._stopped: bool = False
        #: This engine's trace recorder (``None`` = tracing off).  Purely
        #: observational: recording never schedules events or mutates
        #: simulated state, so results are bit-identical either way.
        self.tracer = Engine.default_tracer
        #: Identity of this engine on a shared trace timeline.
        self.trace_id: int = Engine._next_trace_id
        Engine._next_trace_id += 1
        #: Events of this engine already counted as enqueued in
        #: :attr:`_global_occupancy` (see :meth:`run`).
        self._occ_enqueued_folded: int = 0

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events currently waiting in the queue (cancelled
        handles still count until their cycle comes up)."""
        return len(self.queue)

    def schedule(self, delay: int, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        ``delay`` must be a non-negative integral number of cycles; a
        fractional delay raises :class:`SimulationError` (it would
        otherwise silently land on the wrong cycle).  A delay of zero runs
        the callback later in the current cycle, after already-queued
        events for this cycle.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        time = self.now + delay
        if type(time) is not int:
            time = _integral_time(time, delay)
        heappush(self.queue, (time, next(self.seq), callback))

    def schedule_at(self, time: int, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at cycle {time}; current cycle is {self.now}"
            )
        if type(time) is not int:
            time = _integral_time(time, time - self.now)
        heappush(self.queue, (time, next(self.seq), callback))

    def schedule_cancellable(
        self, delay: int, callback: Callable[[], Any]
    ) -> EventHandle:
        """Like :meth:`schedule`, returning a cancellable handle.

        ``handle.cancel()`` retracts the event in O(1) without touching
        the queue; a cancelled event's callback is skipped when its cycle
        arrives (the empty dispatch slot still counts as an executed
        event, like the fire-and-bail wakeups it replaces).  Use this for
        timeout/wakeup events usually superseded before firing.
        """
        handle = EventHandle(callback)
        self.schedule(delay, handle)
        return handle

    def stop(self) -> None:
        """Stop the current :meth:`run` after the executing event returns."""
        self._stopped = True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Parameters
        ----------
        until:
            If given, stop once the next event's timestamp exceeds ``until``
            (the clock is then advanced to ``until``).
        max_events:
            Safety valve for runaway simulations; executes at most
            ``max_events`` events, then raises :class:`SimulationError`
            if work is still pending (a run that finishes in exactly
            ``max_events`` events returns normally).

        Returns the final simulation time.
        """
        if self._running:
            raise SimulationError("engine is not re-entrant")
        self._running = True
        self._stopped = False
        queue = self.queue
        executed = 0
        cycles = 0
        # The historical loop checked `executed >= max_events` after each
        # event, so a non-positive budget still runs one event; -1 never
        # matches.
        budget = -1 if max_events is None else max(max_events, 1)
        # The cycle being drained.  Reset per run, so a run resuming a
        # cycle a stopped run left half-drained counts it as started again.
        cycle = None
        try:
            while queue:
                entry = heappop(queue)
                if entry[0] != cycle:
                    cycle = entry[0]
                    if until is not None and cycle > until:
                        heappush(queue, entry)  # same (time, seq): same place
                        self.now = until
                        break
                    self.now = cycle
                    cycles += 1
                event = entry[2]
                executed += 1
                if event.__class__ is EventHandle:
                    # A cancelled handle is dropped here, but still counts as
                    # a dispatched event: it occupied a queue slot and a
                    # dispatch turn, exactly like the fire-and-bail wakeup
                    # events this mechanism replaced.
                    if not event.cancelled:
                        event.fn()
                else:
                    event()
                if self._stopped:
                    break
                if executed == budget:
                    if queue:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "simulation is probably not converging"
                        )
                    break
            if until is not None and not queue and self.now < until:
                self.now = until
        finally:
            self._running = False
            self._events_executed += executed
            Engine._global_events_executed += executed
            totals = Engine._global_occupancy
            if not totals:
                totals.update(events_enqueued=0, cycles_started=0)
            totals["cycles_started"] += cycles
            # Every queued event is either executed or still pending, so
            # executed + pending is the number ever enqueued.  A high-water
            # mark (rather than a run-start snapshot) also credits events
            # scheduled *before* run() and survives multiple run() calls
            # without double counting.
            enqueued = self._events_executed + len(queue)
            totals["events_enqueued"] += enqueued - self._occ_enqueued_folded
            self._occ_enqueued_folded = enqueued
            if self.tracer:
                # Purely observational: lets the profiler use the exact
                # final clock as its utilization denominator instead of
                # approximating runtime from the last event timestamp.
                self.tracer.note_runtime(self.trace_id, self.now)
        return self.now
