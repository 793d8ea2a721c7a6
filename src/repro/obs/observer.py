"""The :class:`Observer`: the single object instrumentation sites talk to.

Components (:class:`~repro.net.simloop.SimLoop`,
:class:`~repro.net.network.Network`, the quorum protocols, the sharded
facade) capture the *ambient* observer at construction time via
:func:`current_observer` and call its domain-level hooks while running.  When
no observer is installed — the default — the captured value is ``None`` and
every instrumentation site is a single ``is not None`` check, so disabled
runs stay on the uninstrumented fast paths.

Hooks are strictly **passive**: they update counters and append trace
records, never schedule events, send messages, or mutate component state.
That is what makes an instrumented run produce bit-identical results and
event interleavings to an uninstrumented one.

Installation is per-thread and explicit::

    observer = Observer()
    with observing(observer):
        cluster = build_cluster(...)   # components capture it here
        run(...)
    print(observer.metrics.as_dict())

Because capture happens at construction, installing an observer *after*
building a cluster observes nothing — :func:`observing` must wrap the build.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder

__all__ = ["Observer", "current_observer", "observing", "install_observer"]

#: Bucket bounds for quorum-size histograms (small integer counts).
_QUORUM_BOUNDS = tuple(float(n) for n in range(1, 10))


class Observer:
    """Bundles a metrics registry and a trace recorder behind domain hooks.

    ``metrics`` / ``trace`` are ``None`` when the corresponding half is
    disabled; hooks check before recording.  ``trace_messages`` gates the
    per-message flow records (the chattiest category) independently, so long
    runs can keep operation/fault spans without drowning in message edges.
    """

    __slots__ = ("metrics", "trace", "trace_messages")

    def __init__(
        self,
        metrics: bool = True,
        trace: bool = True,
        trace_messages: bool = True,
    ) -> None:
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if metrics else None
        )
        self.trace: Optional[TraceRecorder] = TraceRecorder() if trace else None
        self.trace_messages = trace_messages

    # -- kernel ----------------------------------------------------------------
    def kernel_run(self, ready_hits: int, heap_hits: int, max_depth: int) -> None:
        """Fold in one dispatch loop's counters at loop exit."""
        m = self.metrics
        if m is not None:
            m.counter("kernel.events").inc(ready_hits + heap_hits)
            m.counter("kernel.ready_dispatches").inc(ready_hits)
            m.counter("kernel.heap_dispatches").inc(heap_hits)
            m.gauge("kernel.max_queue_depth").set_max(max_depth)

    # -- network ---------------------------------------------------------------
    def message_sent(self, message: Any, now: float) -> None:
        m = self.metrics
        if m is not None:
            m.counter("net.sent").inc()
            m.counter(f"net.sent.{message.kind}").inc()
        t = self.trace
        if t is not None and self.trace_messages:
            flow = t.next_flow_id()
            # Stamped on the message so delivery/drop can close the flow;
            # deliberately NOT msg_id, which is process-global and therefore
            # differs across repeated runs in one interpreter.
            message.trace_flow = flow
            t.emit(
                ts=now,
                cat="net",
                name=message.kind,
                ph="s",
                actor=message.sender,
                args={"to": message.receiver},
                flow=flow,
            )

    def message_delivered(self, message: Any, now: float) -> None:
        m = self.metrics
        if m is not None:
            m.counter("net.delivered").inc()
        t = self.trace
        if t is not None and self.trace_messages:
            flow = message.trace_flow
            if flow is not None:
                t.emit(
                    ts=now,
                    cat="net",
                    name=message.kind,
                    ph="f",
                    actor=message.receiver,
                    args={"from": message.sender},
                    flow=flow,
                )

    def message_dropped(self, message: Any, now: float, reason: str) -> None:
        m = self.metrics
        if m is not None:
            m.counter("net.dropped").inc()
            m.counter(f"net.dropped.{reason}").inc()
        t = self.trace
        if t is not None:
            t.emit(
                ts=now,
                cat="net",
                name="drop",
                ph="i",
                actor=message.receiver,
                args={"kind": message.kind, "reason": reason},
            )

    # -- faults ----------------------------------------------------------------
    def process_crashed(self, pid: str, now: float) -> None:
        if self.metrics is not None:
            self.metrics.counter("fault.crashes").inc()
        if self.trace is not None:
            self.trace.emit(ts=now, cat="fault", name="crash", ph="i", actor=pid)

    def process_recovered(self, pid: str, now: float) -> None:
        if self.metrics is not None:
            self.metrics.counter("fault.recoveries").inc()
        if self.trace is not None:
            self.trace.emit(ts=now, cat="fault", name="recover", ph="i", actor=pid)

    def partition_started(
        self, groups: Sequence[Sequence[str]], now: float
    ) -> None:
        if self.metrics is not None:
            self.metrics.counter("fault.partitions").inc()
        if self.trace is not None:
            self.trace.emit(
                ts=now,
                cat="fault",
                name="partition",
                ph="i",
                args={"groups": [sorted(group) for group in groups]},
            )

    def partition_healed(self, released: int, now: float) -> None:
        if self.metrics is not None:
            self.metrics.counter("fault.heals").inc()
        if self.trace is not None:
            self.trace.emit(
                ts=now,
                cat="fault",
                name="heal",
                ph="i",
                args={"released": released},
            )

    # -- operations (dynamic-weighted storage and ABD) ---------------------------
    def operation_started(
        self, protocol: str, pid: str, kind: str, now: float
    ) -> None:
        if self.trace is not None:
            self.trace.emit(
                ts=now,
                cat="op",
                name=kind,
                ph="B",
                actor=pid,
                args={"protocol": protocol},
            )

    def operation_restarted(
        self, protocol: str, pid: str, kind: str, now: float
    ) -> None:
        if self.trace is not None:
            self.trace.emit(
                ts=now,
                cat="op",
                name="restart",
                ph="i",
                actor=pid,
                args={"op": kind, "protocol": protocol},
            )

    def operation_completed(
        self,
        protocol: str,
        pid: str,
        kind: str,
        now: float,
        restarts: int,
        contacted: int,
        latency: float,
    ) -> None:
        m = self.metrics
        if m is not None:
            m.counter(f"{protocol}.ops.{kind}").inc()
            if restarts:
                m.counter(f"{protocol}.restarts").inc(restarts)
            m.histogram(f"{protocol}.op_latency").observe(latency)
        if self.trace is not None:
            self.trace.emit(
                ts=now,
                cat="op",
                name=kind,
                ph="E",
                actor=pid,
                args={"contacted": contacted, "restarts": restarts},
            )

    def quorum_phase(
        self, protocol: str, pid: str, phase: str, quorum_size: int, now: float
    ) -> None:
        m = self.metrics
        if m is not None:
            m.counter(f"{protocol}.{phase}").inc()
            m.histogram(
                f"{protocol}.quorum_size", bounds=_QUORUM_BOUNDS
            ).observe(float(quorum_size))
        if self.trace is not None:
            self.trace.emit(
                ts=now,
                cat="quorum",
                name=phase,
                ph="i",
                actor=pid,
                args={"protocol": protocol, "size": quorum_size},
            )

    # -- weight transfers and change propagation ---------------------------------
    def transfer_started(
        self, source: str, target: str, delta: float, now: float
    ) -> None:
        if self.trace is not None:
            self.trace.emit(
                ts=now,
                cat="transfer",
                name="transfer",
                ph="B",
                actor=source,
                args={"delta": delta, "target": target},
            )

    def transfer_completed(
        self,
        source: str,
        target: str,
        delta: float,
        effective: bool,
        latency: float,
        now: float,
    ) -> None:
        m = self.metrics
        if m is not None:
            outcome = "effective" if effective else "null"
            m.counter(f"protocol.transfers.{outcome}").inc()
            m.histogram("protocol.transfer_latency").observe(latency)
        if self.trace is not None:
            self.trace.emit(
                ts=now,
                cat="transfer",
                name="transfer",
                ph="E",
                actor=source,
                args={"delta": delta, "effective": effective, "target": target},
            )

    def read_changes_round(self, pid: str) -> None:
        if self.metrics is not None:
            self.metrics.counter("protocol.read_changes").inc()

    def weight_gain_refresh(self, pid: str, depth: int, now: float) -> None:
        """One weight-gain view refresh, ``depth`` levels deep on this server.

        The per-server depth directly measures the known unbounded recursion
        in ``DynamicWeightedStorageServer.on_weight_gained`` (see its
        docstring): depths above 1 mean a refresh re-entered itself.
        """
        m = self.metrics
        if m is not None:
            m.counter("storage.weight_gain_refreshes").inc()
            m.gauge("storage.weight_gain_refresh_depth").set_max(depth)
        if self.trace is not None:
            self.trace.emit(
                ts=now,
                cat="storage",
                name="weight-gain-refresh",
                ph="i",
                actor=pid,
                args={"depth": depth},
            )

    # -- sharded facade ----------------------------------------------------------
    def shard_routed(self, pid: str, shard: int, kind: str) -> None:
        m = self.metrics
        if m is not None:
            m.counter("sharded.ops").inc()
            m.counter(f"sharded.ops.{kind}").inc()
            m.counter(f"sharded.shard.{shard}.ops").inc()

    # -- monitoring control loop --------------------------------------------------
    def control_round(self, prober: str, index: int, now: float) -> None:
        if self.metrics is not None:
            self.metrics.counter("monitoring.rounds").inc()
        if self.trace is not None:
            self.trace.emit(
                ts=now,
                cat="monitoring",
                name="control-round",
                ph="i",
                actor=prober,
                args={"round": index},
            )


# ---------------------------------------------------------------------------
# Ambient installation
# ---------------------------------------------------------------------------

# Per thread, so two jobs of one service observing at once record their own
# runs.  A new thread starts with none installed: a hop onto one carries the
# caller's over itself (``run_with_stable_stack``).
_ambient = threading.local()


def current_observer() -> Optional[Observer]:
    """This thread's ambient observer, or ``None`` (the default: off)."""
    return getattr(_ambient, "observer", None)


def install_observer(observer: Optional[Observer]) -> Optional[Observer]:
    """Install ``observer`` as this thread's ambient one; returns the
    previously installed one."""
    previous = current_observer()
    _ambient.observer = observer
    return previous


@contextmanager
def observing(observer: Optional[Observer]) -> Iterator[Optional[Observer]]:
    """Install ``observer`` on this thread for the duration of the block.

    Components built inside the block capture it; the previous observer is
    restored on exit even if the block raises.  Passing ``None`` disables
    observation inside the block (masking any outer observer) — the common
    case when a spec's observability section is simply switched off.
    """
    previous = install_observer(observer)
    try:
        yield observer
    finally:
        install_observer(previous)
