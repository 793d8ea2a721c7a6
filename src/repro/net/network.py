"""Reliable asynchronous point-to-point links with crash faults and partitions.

The :class:`Network` connects every registered :class:`~repro.net.process.Process`
with reliable links: a message sent between two correct processes is
eventually delivered, exactly once, after a delay chosen by the configured
:class:`~repro.net.latency.LatencyModel`.  That is precisely the paper's
system model (Section II).

Fault injection:

* :meth:`Network.crash` — crash-stop a process.  Crashed processes neither
  send nor receive; messages already in flight towards them are silently
  discarded on delivery (an acceptable refinement of crash-stop semantics).
  Every process is told (``on_crash``), so a wait that counts the processes
  still alive is re-evaluated when the crash happens.
* :meth:`Network.recover` — un-crash a process (the crash-recovery model:
  it rejoins with its state intact; traffic during the outage was lost).
* :meth:`Network.partition` / :meth:`Network.heal` — temporarily hold
  messages crossing a partition boundary.  Because the system is
  asynchronous, a partition is indistinguishable from very slow links; the
  held messages are released (in order) when the partition heals, so links
  remain reliable.

The network also keeps counters (messages sent, delivered, per-kind) that the
``protocol-costs`` scenario (E11) reads to report message complexity.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import UnknownProcessError
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Message
from repro.net.simloop import SimLoop
from repro.obs.observer import current_observer
from repro.types import ProcessId, VirtualTime

__all__ = ["Network"]


class Network:
    """The message fabric connecting simulated processes."""

    def __init__(
        self,
        loop: SimLoop,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self.loop = loop
        self.latency = latency or ConstantLatency(1.0)
        self._processes: Dict[ProcessId, "ProcessLike"] = {}
        self._crashed: Set[ProcessId] = set()
        self._partition_groups: List[Set[ProcessId]] = []
        # pid -> group index, rebuilt only by partition()/heal() so the
        # per-delivery partition check is two dict lookups, not a rebuild.
        self._group_of: Dict[ProcessId, int] = {}
        self._implicit_group = 0
        self._held: List[Message] = []
        # Statistics
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.sent_by_kind: Counter = Counter()
        #: Ambient observer captured at construction (None = observability
        #: off).  The protocols reach it through ``process.network.obs``.
        self.obs = current_observer()

    # -- membership ------------------------------------------------------------
    def register(self, process: "ProcessLike") -> None:
        """Attach a process to the network (its ``pid`` must be unique)."""
        if process.pid in self._processes:
            raise UnknownProcessError(
                f"process id {process.pid!r} registered twice"
            )
        self._processes[process.pid] = process

    def process_ids(self) -> Sequence[ProcessId]:
        return tuple(self._processes)

    def get_process(self, pid: ProcessId) -> "ProcessLike":
        try:
            return self._processes[pid]
        except KeyError as exc:
            raise UnknownProcessError(f"unknown process {pid!r}") from exc

    # -- fault injection ---------------------------------------------------------
    def crash(self, pid: ProcessId) -> None:
        """Crash-stop ``pid``: it stops sending and receiving forever."""
        self.get_process(pid)  # validates existence
        self._crashed.add(pid)
        if self.obs is not None:
            self.obs.process_crashed(pid, self.loop.now)
        for process in self._processes.values():
            process.on_crash(pid)

    def recover(self, pid: ProcessId) -> None:
        """Un-crash ``pid``: it rejoins with its pre-crash state intact.

        This models the crash-*recovery* variant where a process resumes from
        durable state: messages sent to it while down were dropped (not
        queued), so to its peers the outage is indistinguishable from a long
        partition, which the asynchronous protocols tolerate by design.
        A no-op for processes that never crashed.
        """
        self.get_process(pid)  # validates existence
        self._crashed.discard(pid)
        if self.obs is not None:
            self.obs.process_recovered(pid, self.loop.now)

    def is_crashed(self, pid: ProcessId) -> bool:
        return pid in self._crashed

    def partition(self, groups: Iterable[Iterable[ProcessId]]) -> None:
        """Split processes into groups; cross-group messages are held.

        Processes not listed in any group form an implicit extra group.
        """
        self._partition_groups = [set(group) for group in groups]
        self._rebuild_partition_map()
        if self.obs is not None:
            self.obs.partition_started(
                [sorted(group) for group in self._partition_groups], self.loop.now
            )

    def heal(self) -> None:
        """Remove the partition and release every held message immediately."""
        self._partition_groups = []
        self._rebuild_partition_map()
        held, self._held = self._held, []
        for message in held:
            self._schedule_delivery(message, 0.0)
        if self.obs is not None:
            self.obs.partition_healed(len(held), self.loop.now)

    def _rebuild_partition_map(self) -> None:
        group_of: Dict[ProcessId, int] = {}
        for index, group in enumerate(self._partition_groups):
            for pid in group:
                group_of[pid] = index
        self._group_of = group_of
        self._implicit_group = len(self._partition_groups)

    def _crosses_partition(self, sender: ProcessId, receiver: ProcessId) -> bool:
        if not self._partition_groups:
            return False
        group_of = self._group_of
        implicit = self._implicit_group
        return group_of.get(sender, implicit) != group_of.get(receiver, implicit)

    # -- sending -------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Send ``message``; delivery is scheduled after the model's delay."""
        if message.receiver not in self._processes:
            raise UnknownProcessError(f"unknown receiver {message.receiver!r}")
        if message.sender in self._crashed:
            # A crashed process performs no further actions.
            self.messages_dropped += 1
            if self.obs is not None:
                self.obs.message_dropped(message, self.loop.now, "sender-crashed")
            return
        # The clock field, read once — not the ``now`` property per use.
        now = message.sent_at = self.loop._now
        self.messages_sent += 1
        self.sent_by_kind[message.kind] += 1
        if self.obs is not None:
            self.obs.message_sent(message, now)
        delay = self.latency.delay(message.sender, message.receiver, now)
        self._schedule_delivery(message, delay)

    def _schedule_delivery(self, message: Message, extra_delay: VirtualTime) -> None:
        # Passing the message as an event argument avoids allocating one
        # lambda closure per message on the send hot path.
        self.loop.call_later(extra_delay, self._deliver, message)

    def _deliver(self, message: Message) -> None:
        if message.receiver in self._crashed:
            self.messages_dropped += 1
            if self.obs is not None:
                self.obs.message_dropped(message, self.loop.now, "receiver-crashed")
            return
        # The partition test is a call; without a partition it cannot hold.
        if self._partition_groups and self._crosses_partition(
            message.sender, message.receiver
        ):
            # Hold until the partition heals; links stay reliable.
            self._held.append(message)
            return
        now = message.delivered_at = self.loop._now
        self.messages_delivered += 1
        if self.obs is not None:
            self.obs.message_delivered(message, now)
        receiver = self._processes[message.receiver]
        receiver.deliver(message)

    # -- convenience -----------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Snapshot of the traffic counters (useful in benchmarks)."""
        return {
            "sent": self.messages_sent,
            "delivered": self.messages_delivered,
            "dropped": self.messages_dropped,
            "held": len(self._held),
        }

    def reset_stats(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.sent_by_kind.clear()


class ProcessLike:
    """Structural interface the network expects (see :class:`repro.net.process.Process`)."""

    pid: ProcessId

    def deliver(self, message: Message) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def on_crash(self, pid: ProcessId) -> None:  # pragma: no cover - interface
        raise NotImplementedError
