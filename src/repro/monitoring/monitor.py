"""Latency monitoring.

A :class:`LatencyMonitor` accumulates round-trip latency samples per server
and summarises them (mean / exponentially weighted moving average).  Samples
can come from two sources:

* **passive** — protocol clients report the per-server reply latencies they
  observe during normal operations;
* **active** — :meth:`LatencyMonitor.probe` sends a no-op ping to every
  server and records the reply times (the way AWARE-style monitoring [10]
  measures links).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.net.process import Process
from repro.types import ProcessId, VirtualTime

__all__ = ["LatencyMonitor", "install_probe_responder"]

PING = "MON_PING"
PONG = "MON_PONG"


def install_probe_responder(process: Process) -> None:
    """Make ``process`` answer monitoring pings (servers call this once)."""
    process.register_handler(PING, lambda message: process.reply(message, PONG, {}))


class LatencyMonitor:
    """Sliding-window latency statistics for a set of servers."""

    def __init__(
        self,
        servers: Sequence[ProcessId],
        window: int = 32,
        ewma_alpha: float = 0.3,
    ) -> None:
        if window < 1:
            raise ConfigurationError("window must be at least 1")
        if not 0 < ewma_alpha <= 1:
            raise ConfigurationError("ewma_alpha must be in (0, 1]")
        self.servers = tuple(servers)
        self.window = window
        self.ewma_alpha = ewma_alpha
        self._samples: Dict[ProcessId, Deque[VirtualTime]] = defaultdict(
            lambda: deque(maxlen=window)
        )
        self._ewma: Dict[ProcessId, Optional[VirtualTime]] = {
            server: None for server in self.servers
        }

    # -- feeding samples ---------------------------------------------------------
    def record(self, server: ProcessId, latency: VirtualTime) -> None:
        """Record one round-trip latency sample for ``server``."""
        if latency < 0:
            raise ConfigurationError("latency samples must be non-negative")
        self._samples[server].append(latency)
        previous = self._ewma.get(server)
        if previous is None:
            self._ewma[server] = latency
        else:
            self._ewma[server] = (
                self.ewma_alpha * latency + (1 - self.ewma_alpha) * previous
            )

    # -- active probing ---------------------------------------------------------------
    async def probe(
        self,
        prober: Process,
        timeout: Optional[VirtualTime] = None,
        instances: Optional[Mapping[ProcessId, ProcessId]] = None,
    ) -> Dict[ProcessId, VirtualTime]:
        """Ping every server from ``prober`` and record the reply latencies.

        ``instances`` maps each process to ping to the monitored server it
        is an instance of (default: every server answers for itself); a
        server's sample is the mean round trip of its instances that
        replied — for a single instance, that instance's round trip exactly.

        The probe waits only for the processes still alive — the count is
        re-evaluated on every reply and on every crash
        (:meth:`~repro.net.process.Process.on_crash`), so a crash landing
        mid-probe unblocks the wait at once (a crashed server's replies
        never come, while a slowed server's late replies *are* the signal,
        so neither a full wait nor a short timeout would do).  Crashed or
        partitioned servers simply contribute no sample.
        """
        if instances is None:
            instances = {server: server for server in self.servers}
        started = prober.loop.now
        network = prober.network
        collector = prober.request_all(instances, PING, {})
        waiter = collector.wait_until(
            lambda replies: len(replies) >= sum(
                1 for pid in instances if not network.is_crashed(pid)
            ),
            name="alive-replies",
        )
        if timeout is not None:
            waiter = prober.loop.timeout(waiter, timeout)
        try:
            await waiter
        except Exception:
            # Partial probes are fine; use whatever replies arrived.
            pass
        round_trips: Dict[ProcessId, List[VirtualTime]] = {}
        for reply in collector.responses:
            round_trips.setdefault(instances[reply.sender], []).append(
                reply.delivered_at - started
            )
        observed = {
            server: sum(values) / len(values)
            for server, values in round_trips.items()
        }
        for server, latency in observed.items():
            self.record(server, latency)
        return observed

    # -- summaries ------------------------------------------------------------------
    def mean(self, server: ProcessId) -> Optional[VirtualTime]:
        samples = self._samples.get(server)
        if not samples:
            return None
        return sum(samples) / len(samples)

    def ewma(self, server: ProcessId) -> Optional[VirtualTime]:
        return self._ewma.get(server)

    def summary(self, default: VirtualTime = 1.0) -> Dict[ProcessId, VirtualTime]:
        """EWMA latency per server, substituting ``default`` when unsampled."""
        result = {}
        for server in self.servers:
            value = self._ewma.get(server)
            result[server] = default if value is None else value
        return result

    def sample_count(self, server: ProcessId) -> int:
        return len(self._samples.get(server, ()))
