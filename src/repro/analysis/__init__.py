"""Analytical tools: expected quorum latency and weight planning.

These helpers compute, without running the simulator, the quantities the
paper's motivation relies on: how fast a client can assemble a (weighted)
quorum given per-server latencies, and how small quorums can become for a
given weight assignment.  Experiment E5 uses them to reproduce the
"WMQS beats MQS on heterogeneous WANs" claim.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "quorum_latency": (
        "expected_quorum_latency", "quorum_latency_table", "fastest_quorum",
    ),
    "weights": ("inverse_latency_weights", "quorum_size_after_reassignment"),
})
