"""Base class for simulated processes (servers and clients).

A :class:`Process` owns a handler table mapping message kinds to callbacks
(plain functions or coroutines) and provides the request/response plumbing the
protocols are built on:

* :meth:`Process.send` — fire-and-forget message.
* :meth:`Process.send_to_all` — fire-and-forget broadcast to a set of peers.
* :meth:`Process.request_all` — send the same request to many peers and
  obtain a :class:`ResponseCollector`, on which the caller can await "more
  than f replies", "replies from a weighted quorum", or any other predicate —
  exactly the ``wait until`` statements of the paper's pseudo-code.

Crash semantics: once :meth:`Process.crash` is called (usually through
:meth:`repro.net.network.Network.crash`), the process ignores every delivered
message and silently refuses to send; every process hears of the crash
through :meth:`Process.on_crash`.
"""

from __future__ import annotations

import inspect
import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.errors import CrashedProcessError
from repro.net.message import Message
from repro.net.network import Network
from repro.net.simloop import SimFuture, SimLoop
from repro.types import ProcessId

__all__ = ["Process", "ResponseCollector"]

_request_ids = itertools.count(1)


class ResponseCollector:
    """Accumulates replies to a multicast request.

    The collector exposes *wait conditions* returning :class:`SimFuture`
    objects; the protocols await them.  A condition is evaluated every time a
    new reply arrives, so a future returned by :meth:`wait_until` resolves the
    moment its predicate first holds.
    """

    def __init__(self, request_id: int, expected: int) -> None:
        self.request_id = request_id
        self.expected = expected
        self.responses: List[Message] = []
        self._waiters: List[tuple] = []  # (predicate, future)

    # -- feeding ------------------------------------------------------------
    def add(self, message: Message) -> None:
        """Record a newly arrived reply and re-evaluate pending wait conditions."""
        responses = self.responses
        responses.append(message)
        waiters = self._waiters
        if not waiters:
            return
        if len(waiters) > 1:
            self.poll()
            return
        # One waiter — a phase awaiting its quorum — is the case that runs
        # once per reply: no list is rebuilt until its wait is over.
        predicate, future = waiters[0]
        if not future.done():
            if not predicate(responses):
                return
            future.set_result(list(responses))
        self._waiters = []

    def poll(self) -> None:
        """Re-evaluate pending wait conditions against the replies so far.

        :meth:`add` runs it after each reply when several conditions wait;
        on its own it serves conditions that also read the world — "every
        process still alive has answered" — when the world changed and no
        reply did.
        """
        still_waiting = []
        for predicate, future in self._waiters:
            if future.done():
                continue
            if predicate(self.responses):
                future.set_result(list(self.responses))
            else:
                still_waiting.append((predicate, future))
        self._waiters = still_waiting

    # -- waiting ------------------------------------------------------------
    def wait_until(
        self, predicate: Callable[[List[Message]], bool], name: str = "condition"
    ) -> SimFuture:
        """Future resolving with the reply list once ``predicate(replies)`` holds."""
        future = SimFuture(name=f"collector.wait({name})")
        if predicate(self.responses):
            future.set_result(list(self.responses))
        else:
            self._waiters.append((predicate, future))
        return future

    def wait_for_count(self, count: int) -> SimFuture:
        """Future resolving once at least ``count`` replies have arrived."""
        return self.wait_until(lambda replies: len(replies) >= count, name=f">={count}")

    def wait_for_senders(
        self, predicate: Callable[[List[ProcessId]], bool], name: str = "senders"
    ) -> SimFuture:
        """Like :meth:`wait_until` but the predicate sees the sender ids only."""
        return self.wait_until(
            lambda replies: predicate([reply.sender for reply in replies]), name=name
        )

    def senders(self) -> List[ProcessId]:
        return [reply.sender for reply in self.responses]


class Process:
    """A simulated process attached to a :class:`~repro.net.network.Network`."""

    def __init__(self, pid: ProcessId, network: Network) -> None:
        self.pid = pid
        self.network = network
        self.loop: SimLoop = network.loop
        self.crashed = False
        self._handlers: Dict[str, Callable[[Message], Any]] = {}
        self._pending: Dict[int, ResponseCollector] = {}
        network.register(self)

    # -- handler registration ----------------------------------------------
    def register_handler(self, kind: str, handler: Callable[[Message], Any]) -> None:
        """Install ``handler`` for messages of type ``kind``.

        The handler may be a plain function or an ``async`` coroutine
        function; coroutines are spawned as tasks so a slow handler never
        blocks delivery of other messages.
        """
        self._handlers[kind] = handler

    # -- fault injection ------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop this process (it also tells the network)."""
        self.crashed = True
        if not self.network.is_crashed(self.pid):
            self.network.crash(self.pid)

    def on_crash(self, pid: ProcessId) -> None:
        """The network's notice that ``pid`` (possibly this process) crashed.

        A pending wait that counts the processes still alive may hold now,
        and the reply that would have re-evaluated it may never come.
        """
        for collector in tuple(self._pending.values()):
            collector.poll()

    def _ensure_alive(self) -> None:
        if self.crashed or self.network.is_crashed(self.pid):
            raise CrashedProcessError(f"process {self.pid} has crashed")

    # -- sending ---------------------------------------------------------------
    def send(
        self,
        receiver: ProcessId,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        request_id: Optional[int] = None,
        is_reply: bool = False,
    ) -> None:
        """Send a one-way message (no reply expected by the transport layer)."""
        # The network's crashed set itself, here and in reply()/deliver():
        # these run once per message, is_crashed() is one call too many.
        if self.crashed or self.pid in self.network._crashed:
            return
        # Positional arguments bind cheaper than keywords, once per message:
        # sender, receiver, kind, payload, request_id, is_reply.
        self.network.send(
            Message(self.pid, receiver, kind, payload, request_id, is_reply)
        )

    def reply(self, to: Message, kind: str, payload: Optional[Dict[str, Any]] = None) -> None:
        """Send a reply correlated with the request ``to``."""
        if self.crashed or self.pid in self.network._crashed:
            return
        self.network.send(
            Message(self.pid, to.sender, kind, payload, to.request_id, True)
        )

    def send_to_all(
        self,
        receivers: Iterable[ProcessId],
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Fire-and-forget the same message to every listed receiver."""
        for receiver in receivers:
            self.send(receiver, kind, payload)

    def request_all(
        self,
        receivers: Iterable[ProcessId],
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> ResponseCollector:
        """Send a correlated request to every receiver; collect the replies.

        Responders must answer with :meth:`reply` (or ``Message.reply``) so
        the correlation id round-trips.  The collector stays registered
        until every receiver has answered — replies arriving after the
        caller stopped waiting are still recorded, which matches the
        asynchronous model (there is no notion of "the request timed out")
        — and is forgotten with the last one (see :meth:`deliver`).  A
        request to a receiver that never answers (it crashed) stays
        registered for the life of the process.
        """
        self._ensure_alive()
        receivers = list(receivers)
        request_id = next(_request_ids)
        collector = ResponseCollector(request_id, expected=len(receivers))
        self._pending[request_id] = collector
        for receiver in receivers:
            self.send(receiver, kind, payload, request_id=request_id)
        return collector

    # -- receiving -----------------------------------------------------------
    def deliver(self, message: Message) -> None:
        """Entry point called by the network when a message arrives."""
        if self.crashed or self.pid in self.network._crashed:
            return
        if message.is_reply:
            collector = self._pending.get(message.request_id)
            if collector is not None:
                collector.add(message)
                # Links deliver exactly once and a handler replies once, so
                # nothing more can arrive: the process lets go, and the
                # collector lives as long as its requester holds it.
                if len(collector.responses) >= collector.expected:
                    del self._pending[message.request_id]
                return
        handler = self._handlers.get(message.kind)
        if handler is None:
            self.on_unhandled(message)
            return
        result = handler(message)
        # Most handlers are plain functions returning None: no call for them.
        if result is not None and inspect.iscoroutine(result):
            self.loop.create_task(result, name=f"{self.pid}.{message.kind}")

    def on_unhandled(self, message: Message) -> None:
        """Hook for messages without a registered handler (default: ignore)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} {self.pid} ({status})>"
