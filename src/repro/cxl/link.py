"""Serializing fabric links.

A :class:`Link` is one direction of a point-to-point channel: transfers
serialize at the link bandwidth, then arrive after the propagation latency.
The same class models CXL buses, host DDR channels (for the baselines), and
the internal Switch-Bus; only the parameters differ.  Idealized
communication — the "infinite bandwidth and zero latency" configuration of
Fig. 3 — is a link with :data:`IDEAL_LINK_PARAMS`.

Energy is accrued per wire byte (pJ/B), following the off-chip interconnect
energy numbers of CACTI-IO / Keckler et al. that the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Dict, Optional

from repro.sim.component import Component


@dataclass(frozen=True)
class LinkParams:
    """Bandwidth/latency/energy of one link direction."""

    #: Serialization bandwidth in bytes per DRAM cycle (1.25 ns).  A CXL x8
    #: PCIe5 port moves 32 GB/s = 40 B/cycle; a DDR4-1600 channel 12.8 GB/s
    #: = 16 B/cycle.
    bytes_per_cycle: float
    #: Propagation + protocol latency in whole cycles (an integral float is
    #: normalized to ``int``).
    latency_cycles: int
    #: Transfer energy in picojoules per byte.
    pj_per_byte: float = 0.0
    #: Infinite-bandwidth flag (idealized communication).
    ideal: bool = False

    def __post_init__(self) -> None:
        if not self.ideal and self.bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        latency = self.latency_cycles
        try:
            whole = int(latency)
        except (TypeError, ValueError, OverflowError):
            whole = None
        if whole is None or whole != latency:
            # Checked once here so every transfer can push its arrival
            # onto the event queue without re-validating the time.
            raise ValueError(
                f"latency_cycles must be a whole number of cycles, got {latency!r}"
            )
        if whole < 0:
            raise ValueError("latency_cycles must be non-negative")
        object.__setattr__(self, "latency_cycles", whole)


#: Fig. 3's imaginary idealized communication: instant data delivery.
IDEAL_LINK_PARAMS = LinkParams(bytes_per_cycle=1.0, latency_cycles=0,
                               pj_per_byte=0.0, ideal=True)


class Link(Component):
    """One direction of a point-to-point channel.

    ``role`` labels what the link physically is — ``"cxl_link"`` (a CXL
    port), ``"switch_bus"``, ``"host_bus"``, ``"ddr_bus"``, or the generic
    default ``"link"`` — and rides along in every ``xfer`` trace span so
    the latency-attribution stitcher can split wire time by fabric layer
    without a side-channel topology map.
    """

    def __init__(self, engine, name: str, parent, params: LinkParams,
                 role: str = "link") -> None:
        super().__init__(engine, name, parent)
        self.params = params
        self.role = role
        #: Cycle after which a new transfer would start serializing.  A
        #: plain attribute: the packer polls it on every send decision.
        self.free_at = 0
        # transfer() runs ~1M times per figure; hoist everything it needs
        # out of the params dataclass and the stats scope.  The canonical
        # bandwidths are whole bytes/cycle, so serialization can use int
        # ceil-division; a genuinely fractional bandwidth keeps the float
        # path (followed by the historical int() truncation).
        bpc = params.bytes_per_cycle
        ibpc = int(bpc) if not params.ideal else 1
        self._bpc = ibpc if ibpc == bpc else bpc
        self._pj = params.pj_per_byte
        self._latency = params.latency_cycles
        self._ideal = params.ideal
        self._counters = self.stats.counters
        #: The engine's event queue and tie-breaker: arrival times are
        #: integral and never in the past (``LinkParams`` validated the
        #: latency), so transfers push straight onto the heap.
        self._queue = engine.queue
        self._seq = engine.seq

    def transfer(
        self,
        wire_bytes: int,
        on_delivered: Callable[[], None],
        tag: Optional[Dict[str, object]] = None,
    ) -> int:
        """Ship ``wire_bytes``; invoke ``on_delivered`` at arrival.

        Returns the delivery cycle.  Transfers serialize in submission
        order (the Bus Controllers arbitrate fairly, which FIFO order
        approximates).  ``tag`` adds caller context (request ids, message
        kind) to the emitted trace span; it is ignored when tracing is off.
        """
        if wire_bytes <= 0:
            raise ValueError("wire_bytes must be positive")
        # Counter updates inlined (four per transfer, ~1M transfers per
        # figure): same accounting as ``stats.add`` without the call.  Keys
        # are created lazily on the first transfer, exactly as before, so
        # an idle link still reports no counters (diagnostics keys on
        # ``wire_bytes`` presence to find active links).
        counters = self._counters
        if "messages" not in counters:
            counters["messages"] = 0.0
            counters["wire_bytes"] = 0.0
            counters["energy_pj"] = 0.0
        counters["messages"] += 1
        counters["wire_bytes"] += wire_bytes
        counters["energy_pj"] += wire_bytes * self._pj
        engine = self.engine
        now = engine.now
        if self._ideal:
            heappush(self._queue, (now, next(self._seq), on_delivered))
            return now
        start = self.free_at
        if start < now:
            start = now
        serialize = int(-(-wire_bytes // self._bpc))
        free_at = start + serialize
        self.free_at = free_at
        arrive = free_at + self._latency
        if "busy_cycles" not in counters:
            counters["busy_cycles"] = 0.0
        counters["busy_cycles"] += serialize
        tracer = engine.tracer
        if tracer and tracer.wants("cxl"):
            args: Dict[str, object] = {
                "bytes": wire_bytes,
                "wait": start - now,
                "arrive": arrive,
                "role": self.role,
                "lat": self._latency,
            }
            if tag:
                args.update(tag)
            tracer.complete(
                "cxl", "xfer", self.path, start, serialize,
                pid=self.engine.trace_id, args=args,
            )
        heappush(self._queue, (arrive, next(self._seq), on_delivered))
        return arrive

    def utilization(self, end_cycle: int) -> float:
        """Fraction of cycles spent serializing, up to ``end_cycle``."""
        if end_cycle <= 0:
            return 0.0
        # repro: allow[int-cycle-arithmetic] -- derived reporting metric: a
        # post-run float fraction for reports, never fed back into timing.
        return min(1.0, self.stats.get("busy_cycles") / end_cycle)
