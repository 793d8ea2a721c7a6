"""The message envelope exchanged over the simulated network.

Messages carry a ``kind`` (the protocol-level message type, e.g. ``"RC"`` or
``"W_ACK"``), an arbitrary ``payload`` dictionary, and bookkeeping fields the
request/response helpers use to correlate replies with requests.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from repro.types import ProcessId, VirtualTime

__all__ = ["Message"]

_message_ids = itertools.count(1)


class Message:
    """A single message in flight (or delivered).

    A slotted class with a hand-written constructor rather than a dataclass:
    one is built per send, and the run holds as many as are in flight or
    sitting in a live collector.

    Attributes:
        sender: id of the sending process.
        receiver: id of the destination process.
        kind: protocol-level type tag (``"RC"``, ``"T"``, ``"R"``, ...).
        payload: protocol-specific contents; values should be treated as
            immutable by receivers (the network does not deep-copy them).
        request_id: correlation id used by :class:`repro.net.process.Process`
            request/response helpers; ``None`` for one-way messages.
        is_reply: True when the message answers a request with the same
            ``request_id`` (set automatically by :meth:`reply`).
        sent_at / delivered_at: virtual timestamps filled in by the network.
        msg_id: globally unique id, useful for tracing.
        trace_flow: flow id the observer stamps on a traced send so delivery
            can close the flow; ``None`` otherwise.  Not part of equality.
    """

    __slots__ = (
        "sender",
        "receiver",
        "kind",
        "payload",
        "request_id",
        "is_reply",
        "sent_at",
        "delivered_at",
        "msg_id",
        "trace_flow",
    )

    def __init__(
        self,
        sender: ProcessId,
        receiver: ProcessId,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        request_id: Optional[int] = None,
        is_reply: bool = False,
        sent_at: VirtualTime = 0.0,
        delivered_at: VirtualTime = 0.0,
        msg_id: Optional[int] = None,
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.kind = kind
        self.payload: Dict[str, Any] = {} if payload is None else payload
        self.request_id = request_id
        self.is_reply = is_reply
        self.sent_at = sent_at
        self.delivered_at = delivered_at
        self.msg_id: int = next(_message_ids) if msg_id is None else msg_id
        self.trace_flow: Optional[int] = None

    def _fields(self) -> tuple:
        return (
            self.sender,
            self.receiver,
            self.kind,
            self.payload,
            self.request_id,
            self.is_reply,
            self.sent_at,
            self.delivered_at,
            self.msg_id,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()  # type: ignore[attr-defined]
        return NotImplemented

    # Mutable and compared by value, so not hashable.
    __hash__ = None  # type: ignore[assignment]

    def reply(self, kind: str, payload: Optional[Dict[str, Any]] = None) -> "Message":
        """Build a response to this message, preserving the correlation id."""
        return Message(
            sender=self.receiver,
            receiver=self.sender,
            kind=kind,
            payload=payload,
            request_id=self.request_id,
            is_reply=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Message #{self.msg_id} {self.kind} {self.sender}->{self.receiver}"
            f" req={self.request_id}>"
        )
