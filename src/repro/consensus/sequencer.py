"""Total-order broadcast via a sequencer.

Several baselines (the consensus-based reassignment protocol of related work
[10], the k-owner asset transfer of [12]) only need commands to be applied in
the *same order everywhere*.  The simplest consensus-equivalent primitive that
achieves this is a sequencer: clients submit commands to a distinguished
process, which stamps them with consecutive sequence numbers and reliably
broadcasts them; replicas apply commands in sequence-number order.

A sequencer is of course a single point of failure — which is precisely the
point: the paper proves that the unrestricted problems cannot avoid this kind
of "consensus-like power".  The scenarios (``asset-transfer``, ``limitation-vc``) use the sequencer in
failure-free runs (to compare latencies and semantics), and the tests use it
to demonstrate that crashing the sequencer blocks the consensus-based
baseline while the paper's consensus-free protocol keeps making progress.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Sequence

from repro.net.message import Message
from repro.net.network import Network
from repro.net.process import Process
from repro.net.simloop import SimFuture
from repro.types import ProcessId

__all__ = ["Sequencer", "TotalOrderClient"]

SUBMIT = "SEQ_SUBMIT"
ORDERED = "SEQ_ORDERED"
ORDERED_ACK = "SEQ_ORDERED_ACK"


class Sequencer(Process):
    """The ordering process: stamps submitted commands and broadcasts them."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        replicas: Sequence[ProcessId],
    ) -> None:
        super().__init__(pid, network)
        self.replicas = tuple(replicas)
        self._next_seq = itertools.count(1)
        self.ordered_log: List[Dict[str, Any]] = []
        self.register_handler(SUBMIT, self._on_submit)

    def _on_submit(self, message: Message) -> None:
        sequence = next(self._next_seq)
        entry = {
            "seq": sequence,
            "command": message.payload["command"],
            "submitter": message.sender,
            "submit_id": message.payload["submit_id"],
        }
        self.ordered_log.append(entry)
        for replica in self.replicas:
            self.send(replica, ORDERED, dict(entry))


class TotalOrderClient:
    """Per-replica endpoint: submit commands and apply the ordered stream.

    ``apply`` is called exactly once per command, in sequence order, on every
    replica that stays correct.  :meth:`submit` resolves once the *local*
    replica has applied the submitted command, returning ``apply``'s result.
    """

    def __init__(
        self,
        process: Process,
        sequencer: ProcessId,
        apply: Callable[[ProcessId, Any], Any],
    ) -> None:
        self.process = process
        self.sequencer = sequencer
        self.apply = apply
        self._applied_up_to = 0
        self._pending: Dict[int, Dict[str, Any]] = {}
        self._waiting: Dict[int, SimFuture] = {}
        self._submit_ids = itertools.count(1)
        process.register_handler(ORDERED, self._on_ordered)

    # -- submitting --------------------------------------------------------------
    def submit(self, command: Any) -> SimFuture:
        """Submit ``command``; the future resolves with the local apply result."""
        submit_id = next(self._submit_ids)
        future = SimFuture(name=f"{self.process.pid}.submit[{submit_id}]")
        self._waiting[submit_id] = future
        self.process.send(
            self.sequencer, SUBMIT, {"command": command, "submit_id": submit_id}
        )
        return future

    # -- applying ------------------------------------------------------------------
    def _on_ordered(self, message: Message) -> None:
        entry = message.payload
        self._pending[entry["seq"]] = entry
        while self._applied_up_to + 1 in self._pending:
            self._applied_up_to += 1
            ready = self._pending.pop(self._applied_up_to)
            result = self.apply(ready["submitter"], ready["command"])
            if ready["submitter"] == self.process.pid:
                waiter = self._waiting.pop(ready["submit_id"], None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(result)
