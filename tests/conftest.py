"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import pytest

from repro.core.spec import SystemConfig
from repro.core.storage import OperationRecord
from repro.experiments import registry
from repro.net.latency import ConstantLatency, LatencyModel, UniformLatency
from repro.net.network import Network
from repro.net.simloop import SimLoop
from repro.obs import TraceRecorder
from repro.types import Tag


@pytest.fixture
def loop() -> SimLoop:
    return SimLoop()


@pytest.fixture
def network(loop: SimLoop) -> Network:
    return Network(loop, ConstantLatency(1.0))


@pytest.fixture(autouse=True)
def scenario_registry_restored():
    """Put the process-global scenario registry back after every test.

    Tests register throwaway scenarios (some with ``replace=True``); without
    this a test that re-registers ``quickstart`` (other tags, other
    defaults) changes what every later test in the process sees, so modules
    only pass in some orders.
    """
    registry.scenario_names()  # the snapshot includes the built-in catalogue
    before = dict(registry._REGISTRY)
    yield
    registry._REGISTRY.clear()
    registry._REGISTRY.update(before)


@pytest.fixture
def leaked_children() -> Callable[[], List[Any]]:
    """``leaked_children()``: child processes started since the test began
    that are still alive (each is given 5 s to finish exiting first)."""
    before = {child.pid for child in multiprocessing.active_children()}

    def check() -> List[Any]:
        fresh = [child for child in multiprocessing.active_children()
                 if child.pid not in before]
        for child in fresh:
            child.join(timeout=5.0)
        return [child for child in fresh if child.is_alive()]

    return check


def make_net(latency: Optional[LatencyModel] = None) -> Tuple[SimLoop, Network]:
    """Convenience constructor used by tests that need several networks."""
    loop = SimLoop()
    return loop, Network(loop, latency or ConstantLatency(1.0))


def jittery_net(seed: int = 0, low: float = 0.5, high: float = 2.5) -> Tuple[SimLoop, Network]:
    loop = SimLoop()
    return loop, Network(loop, UniformLatency(low, high, seed=seed))


# ---------------------------------------------------------------------------
# Atomicity (linearizability) checking for tag-carrying register histories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HistoryEntry:
    """One completed operation with its real-time interval and tag."""

    kind: str
    value: Any
    tag: Tag
    started_at: float
    completed_at: float


def history_from_records(records: Sequence[OperationRecord]) -> List[HistoryEntry]:
    return [
        HistoryEntry(
            kind=record.kind,
            value=record.value,
            tag=record.tag,
            started_at=record.started_at,
            completed_at=record.completed_at,
        )
        for record in records
    ]


def check_atomic_history(entries: Sequence[HistoryEntry]) -> List[str]:
    """Return a list of atomicity violations (empty means the history is atomic).

    The storage protocols expose the tag each operation acted on, which makes
    the check direct (Definition 6 / Lamport's atomic register):

    * tags must be consistent with real time: if operation ``a`` completes
      before operation ``b`` starts, then ``tag(a) <= tag(b)``; and if ``a``
      is a *write* (which installs a new tag), ``tag(a) <= tag(b)`` must be
      strict for later writes (their tags are unique by construction).
    * two operations with the same tag must have observed the same value.
    """
    problems: List[str] = []
    by_tag = {}
    for entry in entries:
        if entry.tag in by_tag and by_tag[entry.tag] != entry.value:
            problems.append(
                f"tag {entry.tag} associated with two values: "
                f"{by_tag[entry.tag]!r} and {entry.value!r}"
            )
        by_tag.setdefault(entry.tag, entry.value)

    ordered = sorted(entries, key=lambda e: (e.completed_at, e.started_at))
    for i, first in enumerate(ordered):
        for second in ordered[i + 1 :]:
            if first.completed_at <= second.started_at and second.tag < first.tag:
                problems.append(
                    f"real-time order violated: {first.kind}({first.value!r}, tag={first.tag}) "
                    f"completed at {first.completed_at} before "
                    f"{second.kind}({second.value!r}, tag={second.tag}) started at "
                    f"{second.started_at}, but the later operation has a smaller tag"
                )
    # Unique written values: every write installs a distinct tag.
    write_tags = [e.tag for e in entries if e.kind == "write"]
    if len(write_tags) != len(set(write_tags)):
        problems.append("two writes share a tag")
    return problems


def uniform_config(n: int, f: Optional[int] = None) -> SystemConfig:
    return SystemConfig.uniform(n, f=f)


# ---------------------------------------------------------------------------
# A synthetic trace for the analyses
# ---------------------------------------------------------------------------


def synthetic_trace(clients: int, ops_each: int) -> List[dict]:
    """A deterministic, invariant-clean trace: quorum ops + transfers.

    Shaped like a real recorded run (operation spans around request/reply
    flows with quorum instants, occasional restarts and weight transfers)
    so the analyses exercise their real code paths, but built directly so
    no simulation runs.
    """
    recorder = TraceRecorder()
    servers = ("s1", "s2", "s3")
    t = 0.0

    def tick() -> float:
        nonlocal t
        t += 0.25
        return t

    for index in range(clients * ops_each):
        client = f"c{index % clients + 1}"
        kind = "read" if index % 2 else "write"
        recorder.emit(ts=tick(), cat="op", name=kind, ph="B", actor=client,
                      args={"protocol": "storage"})
        restarted = index % 7 == 0
        if restarted:
            flow = recorder.next_flow_id()
            recorder.emit(ts=tick(), cat="net", name="READ", ph="s",
                          actor=client, args={"to": servers[0]}, flow=flow)
            recorder.emit(ts=tick(), cat="net", name="READ", ph="f",
                          actor=servers[0], args={"from": client}, flow=flow)
            recorder.emit(ts=tick(), cat="op", name="restart", ph="i",
                          actor=client, args={"op": kind, "protocol": "storage"})
        requests = []
        for server in servers:
            flow = recorder.next_flow_id()
            requests.append((server, flow))
            recorder.emit(ts=t, cat="net", name="READ", ph="s", actor=client,
                          args={"to": server}, flow=flow)
        replies = []
        for server, flow in requests:
            recorder.emit(ts=tick(), cat="net", name="READ", ph="f",
                          actor=server, args={"from": client}, flow=flow)
            reply = recorder.next_flow_id()
            replies.append((server, reply))
            recorder.emit(ts=t, cat="net", name="READ-ACK", ph="s",
                          actor=server, args={"to": client}, flow=reply)
        for server, reply in replies:
            recorder.emit(ts=tick(), cat="net", name="READ-ACK", ph="f",
                          actor=client, args={"from": server}, flow=reply)
        recorder.emit(ts=t, cat="quorum", name="phase1", ph="i", actor=client,
                      args={"protocol": "storage", "size": len(servers)})
        recorder.emit(ts=t, cat="op", name=kind, ph="E", actor=client,
                      args={"contacted": len(servers),
                            "restarts": 1 if restarted else 0})
        if index % 10 == 0:
            source = servers[(index // 10) % len(servers)]
            target = servers[(index // 10 + 1) % len(servers)]
            recorder.emit(ts=t, cat="transfer", name="transfer", ph="B",
                          actor=source, args={"delta": 0.1, "target": target})
            recorder.emit(ts=tick(), cat="transfer", name="transfer", ph="E",
                          actor=source,
                          args={"delta": 0.1, "effective": True,
                                "target": target})
    return recorder.records
