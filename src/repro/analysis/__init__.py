"""Analytical tools: expected quorum latency.

These helpers compute, without running the simulator, the quantity the
paper's motivation relies on: how fast a client can assemble a (weighted)
quorum given per-server latencies.  Experiment E5 uses them, with the
monitoring policy's inverse-latency weights, to reproduce the "WMQS beats
MQS on heterogeneous WANs" claim.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "quorum_latency": ("expected_quorum_latency", "fastest_quorum"),
})
