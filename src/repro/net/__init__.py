"""Asynchronous message-passing substrate.

This package provides every piece of the paper's system model (Section II)
that the protocols need to run:

* :mod:`repro.net.simloop` — a deterministic, virtual-time coroutine scheduler
  (the "event loop" of the simulated world).
* :mod:`repro.net.latency` — pluggable message-delay models, from constant
  delays to per-link WAN delays, plus one wrapper for slow and gray nodes.
* :mod:`repro.net.message` — the envelope carried by the network.
* :mod:`repro.net.network` — reliable asynchronous links between processes,
  with crash faults and partitions.
* :mod:`repro.net.process` — the base class for simulated processes (servers
  and clients) with request/response helpers.
* :mod:`repro.net.broadcast` — the reliable broadcast primitive.
* :mod:`repro.net.registers` — linearizable SWMR/MWMR register arrays used by
  the consensus reductions of Algorithms 1 and 2.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "simloop": ("SimFuture", "SimLoop", "SimTask", "Event", "Queue", "gather"),
    "latency": (
        "LatencyModel", "ConstantLatency", "UniformLatency", "LogNormalLatency",
        "PerLinkLatency", "SlowdownLatency",
    ),
    "message": ("Message",),
    "network": ("Network",),
    "process": ("Process", "ResponseCollector"),
    "broadcast": ("ReliableBroadcast",),
    "registers": ("SWMRRegisterArray", "SharedRegister"),
})
