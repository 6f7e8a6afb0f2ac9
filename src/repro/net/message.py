"""Typed message envelopes with honest size accounting.

``payload_size`` walks arbitrary payload structures (group elements,
scalars, bytes, lists, dicts, dataclass-like objects with a
``wire_size_bytes``) and totals their serialized size, so channel byte
counts reflect what a real implementation would transfer.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.pairing.interface import GroupElement, GTElement

_SCALAR_FALLBACK_BYTES = 20  # 160-bit scalars, the paper's |p|


def payload_size(payload, scalar_bytes: int = _SCALAR_FALLBACK_BYTES) -> int:
    """Serialized size in bytes of an arbitrary protocol payload."""
    if payload is None:
        return 0
    if isinstance(payload, GroupElement):
        return len(payload.to_bytes())
    if isinstance(payload, GTElement):
        # GT in an embedding-degree-2 group: two base-field elements.
        qbytes = (payload.group.q.bit_length() + 7) // 8
        return 2 * max(qbytes, scalar_bytes)
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, enum.Enum):
        return payload_size(payload.value, scalar_bytes)
    if isinstance(payload, int):
        return max(1, (payload.bit_length() + 7) // 8)
    if isinstance(payload, float):
        return 8  # IEEE 754 double on the wire
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode())
    if isinstance(payload, dict):
        return sum(
            payload_size(k, scalar_bytes) + payload_size(v, scalar_bytes)
            for k, v in payload.items()
        )
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(payload_size(item, scalar_bytes) for item in payload)
    wire = getattr(payload, "wire_size_bytes", None)
    if callable(wire):
        return wire()
    if hasattr(payload, "__dataclass_fields__"):
        return sum(
            payload_size(getattr(payload, name), scalar_bytes)
            for name in payload.__dataclass_fields__
        )
    raise TypeError(f"cannot size payload of type {type(payload)!r}")


_message_counter = itertools.count()


@dataclass(frozen=True)
class TraceContext:
    """Causal trace header carried on a message (the flight recorder).

    A ``trace_id`` names one end-to-end request tree; each message hop
    gets its own ``span_id`` whose ``parent_span_id`` points at the hop
    that caused it, and ``hop`` counts the depth.  The header travels as
    simulator metadata — it is excluded from ``payload_size`` byte
    accounting, exactly like a real deployment would carry trace ids in
    transport headers rather than the signed payload.
    """

    trace_id: int
    span_id: int
    parent_span_id: int | None = None
    hop: int = 0


@dataclass
class Message:
    """One protocol message: who, to whom, what, and how big."""

    sender: str
    recipient: str
    msg_type: str
    payload: object = None
    size_bytes: int = field(default=-1)
    msg_id: int = field(default_factory=lambda: next(_message_counter))
    reply_to: int | None = None
    trace: TraceContext | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.size_bytes < 0:
            self.size_bytes = payload_size(self.payload)
