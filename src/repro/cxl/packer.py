"""Data Packer: fine-grained payload aggregation into flits (Fig. 6).

Genome analysis moves lots of tiny payloads (32 B occ blocks, 4 B hash
locations, sub-byte Bloom counters) over a fabric whose native transfer
granularity is 64 B.  Without packing, every payload rounds up to whole
flits and most wire bytes are useless.  The Data Packer sits at each link
entry: it accumulates small payloads, emits a flit once full, and flushes
after a short timeout so trickling traffic is not stalled indefinitely.

:class:`PackedChannel` is the uniform send interface used by everything
above the link layer; construction chooses packing on or off, so the
``data_packing`` optimization flag of the experiments is literally "which
channel wrapper the topology builder instantiated".
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cxl.flit import FLIT_BYTES, Message
from repro.cxl.link import Link
from repro.sim.component import Component


def _wire_tag(batch: List[Message]) -> Dict[str, object]:
    """Trace-span tag for a link transfer carrying ``batch``.

    ``reqs`` lists the memory-request ids riding the wire (from each
    message's cargo, when it is a request) so the latency stitcher can
    attribute serialization time to individual requests; ``kind`` is the
    message kind when the batch is uniform.
    """
    tag: Dict[str, object] = {}
    reqs = [
        req_id
        for req_id in (
            getattr(message.cargo, "req_id", None) for message in batch
        )
        if req_id is not None
    ]
    if reqs:
        tag["reqs"] = reqs
    kinds = {message.kind.value for message in batch}
    if len(kinds) == 1:
        # repro: allow[no-set-iteration-order] -- guarded by len == 1: taking
        # the sole element of a singleton set is order-independent.
        tag["kind"] = next(iter(kinds))
    return tag


class _BatchDelivery:
    """Delivers one flushed batch of packed messages at link arrival.

    A slotted callable instead of a per-flush closure.
    """

    __slots__ = ("batch",)

    def __init__(self, batch: List[Message]) -> None:
        self.batch = batch

    def __call__(self) -> None:
        for message in self.batch:
            message()


class PackedChannel(Component):
    """Send interface over one link, with or without data packing."""

    def __init__(
        self,
        engine,
        name: str,
        parent,
        link: Link,
        packing: bool,
        flush_timeout: int = 8,
    ) -> None:
        super().__init__(engine, name, parent)
        if flush_timeout <= 0:
            raise ValueError("flush_timeout must be positive")
        self.link = link
        self.packing = packing
        self.flush_timeout = flush_timeout
        self._buffer: List[Message] = []
        self._buffer_bytes = 0
        self._flush_scheduled_at: Optional[int] = None
        #: Live handle for the pending timeout flush (cancellable, so a
        #: buffer-full flush retracts the timer instead of leaving a dead
        #: event in the queue).
        self._flush_handle = None
        self._counters = self.stats.counters

    def send(self, message: Message) -> None:
        """Queue ``message`` for transfer; it is called at delivery.

        ``message`` is a :class:`~repro.cxl.flit.Message` or any object
        with the same wire-cost fields that is its own arrival callback
        (the fabric's route flights).  The fabric's untraced hops ship
        the unbuffered cases inline; keep
        ``repro.cxl.topology._Flight.__call__`` in step with any change.
        """
        engine = self.engine
        now = engine.now
        message.created_at = now
        # Inlined counter updates (one per send/flush, ~1M sends per
        # figure); lazily created keys, same accounting as ``stats.add``.
        counters = self._counters
        if "payload_bytes" not in counters:
            counters["payload_bytes"] = 0.0
        counters["payload_bytes"] += message.payload_bytes
        packed_bytes = message.packed_wire_bytes
        if not self.packing or packed_bytes >= FLIT_BYTES:
            # Large payloads gain nothing from packing; ship them directly.
            if "direct_messages" not in counters:
                counters["direct_messages"] = 0.0
            counters["direct_messages"] += 1
            tag = _wire_tag([message]) if engine.tracer else None
            self.link.transfer(message.unpacked_wire_bytes, message, tag=tag)
            return
        self._buffer.append(message)
        self._buffer_bytes += packed_bytes
        if self._buffer_bytes >= FLIT_BYTES:
            self._flush()
        elif self.link.free_at <= now:
            # Link is idle: waiting for co-travellers would only add latency.
            self._flush()
        else:
            # Link is draining other traffic; buffer until it frees (capped
            # by the flush timeout) so packing costs no extra latency.
            self._arm_flush_timer()

    # -- packing internals ------------------------------------------------------

    def _arm_flush_timer(self) -> None:
        now = self.engine.now
        wait = self.link.free_at - now
        if wait < 1:
            wait = 1
        elif wait > self.flush_timeout:
            wait = self.flush_timeout
        deadline = now + wait
        if self._flush_scheduled_at is not None:
            if self._flush_scheduled_at <= deadline:
                return
            self._flush_handle.cancel()
        self._flush_scheduled_at = deadline
        self._flush_handle = self.engine.schedule_cancellable(
            wait, self._timeout_flush
        )

    def _timeout_flush(self) -> None:
        self._flush_scheduled_at = None
        self._flush_handle = None
        if self._buffer:
            self._flush()

    def _flush(self) -> None:
        batch = self._buffer
        batch_bytes = self._buffer_bytes
        self._buffer = []
        self._buffer_bytes = 0
        if self._flush_scheduled_at is not None:
            self._flush_scheduled_at = None
            self._flush_handle.cancel()
            self._flush_handle = None
        wire = -(-batch_bytes // FLIT_BYTES) * FLIT_BYTES
        counters = self._counters
        if "packed_flits" not in counters:
            counters["packed_flits"] = 0.0
            counters["packed_messages"] = 0.0
        counters["packed_flits"] += wire // FLIT_BYTES
        counters["packed_messages"] += len(batch)
        tracer = self.engine.tracer
        tag = None
        if tracer:
            tag = _wire_tag(batch)
            args: Dict[str, object] = {
                "messages": len(batch), "payload_bytes": batch_bytes,
                "wire_bytes": wire,
                # Per-request buffering time (cycles spent waiting for
                # co-travellers), aligned index-for-index with ``reqs``.
                # (``send`` stamps ``created_at`` on every buffered message.)
                "waits": [
                    self.now - m.created_at
                    for m in batch
                    if getattr(m.cargo, "req_id", None) is not None
                ],
            }
            args.update(tag)
            tracer.instant(
                "cxl", "flit_flush", self.path, self.now,
                pid=self.engine.trace_id, args=args,
            )
        if len(batch) == 1:
            # Idle-link sends flush immediately, so single-message batches
            # dominate: ship the message itself as the arrival event instead
            # of allocating a ``_BatchDelivery``.
            self.link.transfer(wire, batch[0], tag=tag)
            return
        self.link.transfer(wire, _BatchDelivery(batch), tag=tag)

    # -- reporting ----------------------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self._buffer)

    def packing_efficiency(self) -> float:
        """Useful payload bytes per wire byte shipped by this channel."""
        wire = self.link.stats.get("wire_bytes")
        if wire == 0:
            return 0.0
        return self.stats.get("payload_bytes") / wire
