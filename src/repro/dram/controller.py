"""DIMM memory controller with FR-FCFS scheduling.

One controller fronts one DIMM.  Architecturally the controller logic lives
in different places per system — on the CXLG-DIMM's NDP module in BEACON-D,
in the CXL-Switch's Switch-Logic for unmodified DIMMs, on the buffer device
of MEDAL/NEST DDR-DIMMs — but the scheduling behaviour is identical; *where*
it lives only changes the communication path requests take to reach it,
which the topology layer models.

Scheduling policy: FR-FCFS (first-ready, first-come-first-served) — among
queued requests whose banks and chips can accept a command now, prefer row
hits, then age.  ``policy="fcfs"`` disables the row-hit bypass for the
ablation study.

This module is the simulator's hottest code path; it trades a little
elegance for speed (flat bank arrays, one plan tuple shared by the
scheduling decision and the issue).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.dram.bank import Bank
from repro.dram.dimm import Dimm
from repro.dram.request import MemoryRequest
from repro.sim.component import Component
from repro.sim.queueing import BoundedQueue

#: A timing plan: (start, pre_data, transfer, activate, banks, chip_span).
#: ``start`` is *now-independent*: the earliest cycle the bank/bus state
#: permits, ignoring the current time; the effective start of an issue is
#: ``max(now, start)``.
Plan = Tuple[int, int, int, bool, List[Bank], range]


class DimmController(Component):
    """Request scheduler + bank timing orchestrator for one DIMM."""

    #: Cap on how deep FR-FCFS searches the queue for a ready row hit; real
    #: controllers bound the associative search the same way.
    SCHED_WINDOW = 8

    def __init__(
        self,
        engine,
        name: str,
        parent,
        dimm: Dimm,
        queue_capacity: int = 64,
        policy: str = "frfcfs",
    ) -> None:
        super().__init__(engine, name, parent)
        if policy not in ("frfcfs", "fcfs"):
            raise ValueError(f"unknown policy {policy!r}")
        self.dimm = dimm
        self.policy = policy
        self.queue: BoundedQueue[MemoryRequest] = BoundedQueue(
            f"{name}.reqq", capacity=queue_capacity
        )
        #: Requests waiting for queue space (admitted FIFO as slots free up).
        self._waiters: Deque[MemoryRequest] = deque()
        self._wake_at: Optional[int] = None
        #: Live handle for the pending scheduling pass; superseding an
        #: already-scheduled later pass cancels it outright instead of
        #: letting a stale event fire and bail.
        self._wake_handle = None
        #: The issue path updates four counters per request; it writes the
        #: scope's dict directly rather than paying a ``stats.add`` call each.
        self._counters = self.stats.counters
        # Per-DIMM constants hoisted out of the planning loop (both the
        # timing and geometry dataclasses are frozen for the DIMM's life).
        self._timing = dimm.timing
        self._burst_bytes_per_chip = dimm.geometry.burst_bytes_per_chip

    # -- submission -------------------------------------------------------------

    def submit(self, request: MemoryRequest) -> bool:
        """Queue a request; returns False (backpressure) when full."""
        if request.coord is None:
            raise ValueError("request must be address-mapped before submission")
        self.dimm.validate_group(request.coord.chips_per_group)
        if not self.queue.try_push(request):
            self.stats.add("rejected", 1)
            return False
        if request.issued_at is None:
            request.issued_at = self.engine.now
        if request.mc_enqueued_at is None:
            request.mc_enqueued_at = self.engine.now
        self.stats.add("accepted", 1)
        self.dimm.refresh.notify_activity()
        self._wake(0)
        return True

    def submit_when_possible(self, request: MemoryRequest) -> None:
        """Queue a request, parking it until the controller has space.

        This is what the I/O buffers in front of the MCs do (Section IV-B):
        remote requests "wait at the MCs to be issued out" rather than being
        dropped, so callers never need to poll.
        """
        if request.coord is None:
            raise ValueError("request must be address-mapped before submission")
        self.dimm.validate_group(request.coord.chips_per_group)
        if request.issued_at is None:
            request.issued_at = self.engine.now
        if request.mc_enqueued_at is None:
            request.mc_enqueued_at = self.engine.now
        self.dimm.refresh.notify_activity()
        if not self.queue.full() and not self._waiters:
            self.queue.push(request)
            self.stats.add("accepted", 1)
            self._wake(0)
        else:
            self._waiters.append(request)
            self.stats.add("parked", 1)
            tracer = self.engine.tracer
            if tracer:
                tracer.instant(
                    "dram", "queue_full", self.path, self.engine.now,
                    pid=self.engine.trace_id,
                    args={"waiting": len(self._waiters)},
                )

    def _admit_waiters(self) -> None:
        while self._waiters and not self.queue.full():
            self.queue.push(self._waiters.popleft())
            self.stats.add("accepted", 1)

    @property
    def pending(self) -> int:
        return len(self.queue) + len(self._waiters)

    # -- scheduling ---------------------------------------------------------------

    def _wake(self, delay: int) -> None:
        """Schedule a scheduling pass, collapsing redundant wakeups.

        An already-pending pass at or before ``target`` covers this wakeup;
        a pending *later* pass is cancelled (O(1) via its handle) and
        replaced, so superseded wakeups never reach the event loop.
        """
        target = self.engine.now + delay
        if self._wake_at is not None:
            if self._wake_at <= target:
                return
            self._wake_handle.cancel()
        self._wake_at = target
        self._wake_handle = self.engine.schedule_cancellable(
            delay, self._schedule_pass
        )

    def _schedule_pass(self) -> None:
        self._wake_at = None
        self._wake_handle = None
        next_start: Optional[int] = None
        while self.queue:
            picked = self._pick_ready()
            if isinstance(picked, int):
                next_start = picked
                break
            request, plan = picked
            self.queue.remove(request)
            self._issue(request, plan)
            self._admit_waiters()
        if self.queue and next_start is not None:
            self._wake(max(1, next_start - self.engine.now))

    def _compute_plan(self, request: MemoryRequest) -> Plan:
        """Derive the now-independent timing plan for a request.

        The command phase may begin while the chip data bus still serves an
        earlier transfer — only the *data windows* serialize on the bus —
        which is what lets accesses to different banks pipeline.
        """
        coord = request.coord
        dimm = self.dimm
        timing = self._timing
        group_bytes = self._burst_bytes_per_chip * coord.chips_per_group
        transfer = -(-request.size // group_bytes) * timing.tbl
        first_chip = coord.first_chip
        chips = range(first_chip, first_chip + coord.chips_per_group)
        rank, bank_index, row = coord.rank, coord.bank, coord.row
        banks = dimm.bank_group(
            rank, first_chip, coord.chips_per_group, bank_index
        )
        pre_data, activate = banks[0].classify(row, timing, request.is_write)
        # All constraints below are pure maxima over bank/bus state, so the
        # earliest start relative to any ``now`` is just ``max(now, start)``.
        start = 0
        chip_free, index = dimm.chip_free_window(rank, first_chip)
        for bank in banks:
            s = bank.earliest_start(start, activate, timing)
            if s > start:
                start = s
            bus = chip_free[index] - pre_data
            if bus > start:
                start = bus
            index += 1
        return start, pre_data, transfer, activate, banks, chips

    def _pick_ready(self):
        """FR-FCFS pick: ``(request, plan)`` ready now, else the earliest
        future start time (int), for the next wakeup."""
        now = self.engine.now
        window = 0
        first_ready = None
        first_ready_plan = None
        min_start = None
        prefer_hits = self.policy == "frfcfs"
        for request in self.queue.items():
            if window >= self.SCHED_WINDOW:
                break
            window += 1
            plan = self._compute_plan(request)
            start = plan[0]
            if start <= now:
                if not prefer_hits:
                    return request, plan
                if not plan[3]:  # row hit (no activate needed)
                    return request, plan
                if first_ready is None:
                    first_ready, first_ready_plan = request, plan
            elif min_start is None or start < min_start:
                min_start = start
        if first_ready is not None:
            return first_ready, first_ready_plan
        return min_start if min_start is not None else self.engine.now + 1

    # -- issue ---------------------------------------------------------------------

    def _issue(self, request: MemoryRequest, plan: Plan) -> None:
        start, pre_data, transfer_cycles, activate, banks, chips = plan
        engine = self.engine
        now = engine.now
        if start < now:
            start = now  # plan start is now-independent
        coord = request.coord
        dimm = self.dimm
        timing = self._timing
        bursts = transfer_cycles // timing.tbl
        tracer = engine.tracer
        trace_dram = bool(tracer) and tracer.wants("dram")
        if trace_dram:
            # Row-buffer outcome must be read *before* commit mutates it.
            if not activate:
                row_state = "hit"
            elif banks[0].open_row is None:
                row_state = "miss"
            else:
                row_state = "conflict"
        # ``Bank.commit`` always completes at start + pre_data + transfer
        # regardless of bank state, so the finish cycle is computed once
        # rather than max-folded over the group.
        finish = start + pre_data + transfer_cycles
        row = coord.row
        is_write = request.is_write
        for bank in banks:
            bank.commit(start, row, pre_data, transfer_cycles,
                        activate, timing, is_write)
        if trace_dram:
            # The span covers the full service window [start, finish) —
            # completion is scheduled at ``finish`` — so the profiler's
            # queue/service/response phase boundaries meet exactly.
            op = "WR" if request.is_write else "RD"
            enq = request.mc_enqueued_at
            tracer.complete(
                "dram", f"ACT+{op}" if activate else op, self.path,
                start, finish - start,
                pid=self.engine.trace_id,
                args={
                    "row_state": row_state, "rank": coord.rank,
                    "bank": coord.bank, "row": coord.row,
                    "chips": coord.chips_per_group, "bursts": bursts,
                    "queue_depth": len(self.queue) + len(self._waiters),
                    "req": request.req_id, "task": request.task_id,
                    "wait": start - enq if enq is not None else 0,
                },
            )
        if activate:
            dimm.energy.on_activate(chips=coord.chips_per_group)
        # The chip data bus is occupied only during the transfer window.
        dimm.set_group_free_at(
            coord.rank, coord.first_chip, coord.chips_per_group, finish
        )
        dimm.chip_counters.record(
            coord.rank, coord.chip_group, coord.chips_per_group, bursts
        )
        dimm.energy.on_burst(coord.chips_per_group, bursts, request.is_write)
        # Inlined counter updates (four per issued request), keys created
        # lazily on the first issue exactly as ``stats.add`` would.
        counters = self._counters
        if "issued" not in counters:
            counters["issued"] = 0.0
            counters["bursts"] = 0.0
            counters["bytes_accessed"] = 0.0
            counters["useful_bytes"] = 0.0
        counters["issued"] += 1
        counters["bursts"] += bursts
        counters["bytes_accessed"] += (
            bursts * self._burst_bytes_per_chip * coord.chips_per_group
        )
        counters["useful_bytes"] += request.size
        self.stats.record("service_cycles", finish - now)
        # The completion cycle is known now: stamp it and schedule the
        # request's bound completion method instead of a per-request lambda.
        request.completed_at = finish
        engine.schedule_at(finish, request.fire_completion)
