"""Flits and messages on the CXL fabric."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

#: CXL's default data transfer granularity (Section IV-B: "the default data
#: transfer granularity in CXL is 64 Bytes").
FLIT_BYTES = 64

#: Header bytes per memory request on the wire (address + metadata).
REQUEST_HEADER_BYTES = 16
#: Header bytes prefixed to each packed payload so the unpacker can separate
#: and route it (Fig. 6's per-datum tag).
PACKED_HEADER_BYTES = 2
#: Header bytes per response message.
RESPONSE_HEADER_BYTES = 8


class MessageKind(enum.Enum):
    """What a fabric message carries."""

    MEM_REQUEST = "mem_request"     # a memory read/write command
    MEM_RESPONSE = "mem_response"   # data returning to a requester
    TASK = "task"                   # a task dispatch (read + metadata)
    CONTROL = "control"             # framework/coherence traffic


_message_ids = itertools.count()


def wire_costs(kind: MessageKind, payload_bytes: int) -> Tuple[int, int, int]:
    """``(header, packed, unpacked)`` wire bytes of one payload.

    ``header`` is the per-payload header when packed into a shared flit,
    ``packed`` the payload's contribution to a shared flit, and
    ``unpacked`` its cost without data packing (whole flits only).
    """
    if payload_bytes <= 0:
        raise ValueError("payload_bytes must be positive")
    if kind is MessageKind.MEM_REQUEST:
        header = REQUEST_HEADER_BYTES
    else:
        header = PACKED_HEADER_BYTES
    total = payload_bytes + header
    return header, total, -(-total // FLIT_BYTES) * FLIT_BYTES


@dataclass(slots=True)
class Message:
    """One logical payload travelling the fabric.

    ``payload_bytes`` is the *useful* content; how many wire bytes it costs
    depends on whether the channel packs fine-grained payloads together
    (see :class:`repro.cxl.packer.PackedChannel`).

    The wire-cost fields are fixed by ``kind``/``payload_bytes`` and read
    on every fabric hop, so they are computed once at construction rather
    than exposed as properties.

    A message is its own arrival event: the channel queues the message
    itself, and calling it (or :meth:`deliver`) runs ``on_delivered``.
    """

    kind: MessageKind
    payload_bytes: int
    destination: str
    on_delivered: Optional[Callable[["Message"], None]] = None
    #: Arbitrary cargo (usually the MemoryRequest this message moves).
    cargo: object = None
    msg_id: int = field(default_factory=lambda: next(_message_ids))
    created_at: Optional[int] = None
    #: Per-message header cost when packed into a shared flit.
    header_bytes: int = field(init=False)
    #: Wire cost contribution when sharing flits with other payloads.
    packed_wire_bytes: int = field(init=False)
    #: Wire cost without data packing: whole flits only.
    unpacked_wire_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        (self.header_bytes, self.packed_wire_bytes,
         self.unpacked_wire_bytes) = wire_costs(self.kind, self.payload_bytes)

    def deliver(self) -> None:
        if self.on_delivered is not None:
            self.on_delivered(self)

    __call__ = deliver
