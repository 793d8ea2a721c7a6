"""The broadcast primitive the protocols use.

Algorithm 4 of the paper RB-broadcasts transfer messages using a *reliable
broadcast* primitive [25].  Under crash faults reliable broadcast guarantees:

* **Validity** — if a correct process broadcasts ``m``, it eventually
  delivers ``m``.
* **Agreement** — if any correct process delivers ``m``, every correct
  process eventually delivers ``m`` (even if the broadcaster crashed midway).
* **Integrity** — every message is delivered at most once, and only if it was
  broadcast.

The classical crash-fault implementation is *echo on first delivery*: the
broadcaster sends ``m`` to every peer; every process relays ``m`` to all
peers the first time it receives it, then delivers it locally.  That is what
:class:`ReliableBroadcast` implements.
"""

from __future__ import annotations

import inspect
import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.net.message import Message
from repro.net.process import Process
from repro.types import ProcessId

__all__ = ["ReliableBroadcast"]

#: Delivery callback; it may be a plain function or a coroutine function — in
#: the latter case the delivery is spawned as a task on the process loop.
DeliverCallback = Callable[[ProcessId, Dict[str, Any]], Any]


def _invoke_deliver(
    process: Process, callback: DeliverCallback, origin: ProcessId, payload: Dict[str, Any]
) -> None:
    result = callback(origin, payload)
    if inspect.iscoroutine(result):
        process.loop.create_task(result, name=f"{process.pid}.deliver")


class ReliableBroadcast:
    """Crash-fault reliable broadcast (echo/relay on first delivery)."""

    KIND = "RB"

    _broadcast_ids = itertools.count(1)

    def __init__(
        self,
        process: Process,
        peers: Iterable[ProcessId],
        on_deliver: DeliverCallback,
        kind: Optional[str] = None,
    ) -> None:
        self.process = process
        self.peers: List[ProcessId] = list(peers)
        self.on_deliver = on_deliver
        self.kind = kind or self.KIND
        self._delivered: Set[Tuple[ProcessId, int]] = set()
        process.register_handler(self.kind, self._on_message)

    def broadcast(self, payload: Dict[str, Any]) -> None:
        """RB-broadcast ``payload``; the origin delivers it immediately."""
        broadcast_id = next(self._broadcast_ids)
        envelope = {
            "rb_origin": self.process.pid,
            "rb_id": broadcast_id,
            "rb_payload": dict(payload),
        }
        self._handle(envelope)

    def _on_message(self, message: Message) -> None:
        self._handle(message.payload)

    def _handle(self, envelope: Dict[str, Any]) -> None:
        key = (envelope["rb_origin"], envelope["rb_id"])
        if key in self._delivered:
            return
        self._delivered.add(key)
        # Relay before delivering so that a crash inside the application
        # callback cannot prevent the echo from going out.
        for peer in self.peers:
            if peer != self.process.pid:
                self.process.send(peer, self.kind, dict(envelope))
        _invoke_deliver(
            self.process, self.on_deliver, envelope["rb_origin"], dict(envelope["rb_payload"])
        )
