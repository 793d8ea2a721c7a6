"""The send chain's call-depth pin, held by a test and not only by a hash.

Until the weight-gain refresh recursion is fixed (ROADMAP item 1), a
recursion-limited run aborts wherever the deepest call below ``_read_write``
first crosses the interpreter's limit, and that call is the send chain
``Process.send → Network.send → _schedule_delivery → call_later → call_at``.
A frame added to or removed from it, or another call as deep as ``call_at``
beside it, moves the abort and with it the messages such a run sends
(``docs/ARCHITECTURE.md``, "Performance").  The committed chaos campaign
catches that by its bytes; this test names the function.

A ``sys.setprofile`` hook sees every Python-level call without adding a
frame to the stack it inspects; C functions raise ``c_call`` events, which
are not counted.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import pytest

from repro.net.latency import GrayFailureLatency, SlowdownLatency, UniformLatency
from repro.net.network import Network
from repro.net.process import Process
from repro.net.simloop import SimLoop
from repro.obs.observer import Observer, observing

PINNED = (
    Process.send,
    Network.send,
    Network._schedule_delivery,
    SimLoop.call_later,
    SimLoop.call_at,
)
SERVERS = ("s1", "s2", "s3")


def _name(code):
    qualname = getattr(code, "co_qualname", code.co_name)
    return f"{qualname} ({os.path.basename(code.co_filename)}:{code.co_firstlineno})"


def calls_below_send(latency, observer=None):
    """Every Python call made below ``Process.send`` by one ``request_all``,
    as the chain of code objects from ``Process.send`` down to the callee."""
    with observing(observer):
        loop = SimLoop()
        network = Network(loop, latency)
    client = Process("c1", network)
    for pid in SERVERS:
        Process(pid, network)
    root = Process.send.__code__
    chains = Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        chain = []
        while frame is not None:
            chain.append(frame.f_code)
            if frame.f_code is root:
                chains[tuple(reversed(chain))] += 1
                return
            frame = frame.f_back

    sys.setprofile(profile)
    try:
        client.request_all(SERVERS, "PING", {})
    finally:
        sys.setprofile(None)
    return chains


def _uniform():
    return UniformLatency(0.5, 1.5, seed=3)


@pytest.mark.parametrize("latency, observer", [
    pytest.param(_uniform, None, id="uniform"),
    pytest.param(
        lambda: SlowdownLatency(_uniform(), slow=["s1"], factor=3.0),
        None, id="slowdown"),
    pytest.param(
        lambda: GrayFailureLatency(_uniform(), degraded=["s1"], factor=2.0, stall=0.5),
        None, id="gray-failure"),
    # A chaos campaign records with a trace-only observer: the hook and
    # TraceRecorder.emit sit beside the chain, one frame short of call_at.
    pytest.param(
        lambda: SlowdownLatency(_uniform(), slow=["s1"], factor=3.0),
        lambda: Observer(metrics=False), id="slowdown-traced"),
])
def test_the_pinned_chain_is_the_only_deepest_call(latency, observer):
    chains = calls_below_send(latency(), observer() if observer else None)
    pinned = tuple(function.__code__ for function in PINNED)
    to_call_at = sorted(
        " → ".join(_name(code) for code in chain)
        for chain in chains if chain[-1] is SimLoop.call_at.__code__
    )
    assert chains[pinned] == len(SERVERS), (
        f"the send chain is not the pinned five frames: {to_call_at}"
    )
    offenders = sorted(
        " → ".join(_name(code) for code in chain)
        for chain in chains if len(chain) >= len(pinned) and chain != pinned
    )
    assert not offenders, (
        f"reaches call_at's depth ({len(pinned)} frames from Process.send) "
        f"beside the pinned chain: {offenders}"
    )
