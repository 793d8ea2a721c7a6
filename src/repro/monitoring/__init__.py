"""Monitoring and weight-assignment policies.

The paper assumes weights are "assigned in accordance with ... access latency
or request processing capacity, as determined by a monitoring system [9],
[10]" and that servers invoke ``transfer`` "based on the information provided
by a monitoring system".  This package supplies that missing piece:

* :mod:`repro.monitoring.monitor` — collects per-server latency samples
  (either passively from client operation telemetry or by active probing).
* :mod:`repro.monitoring.policy` — turns latency summaries into *target
  weights*: proportional inverse-latency weights and a WHEAT-style binary
  ``wmin``/``wmax`` scheme, both clipped so Property 1 / RP-Integrity remain
  satisfiable.
* :mod:`repro.monitoring.controller` — drives the paper's ``transfer``
  operation towards the targets, respecting C1/C2 (each server only ever
  gives its *own* weight away, and only down to the RP-Integrity bound).
* :mod:`repro.monitoring.loop` — wires monitor + policy + controllers into
  one running feedback loop over one or more replica groups (the one loop
  the declarative ``MonitoringSpec`` section and the catalogue scenarios
  all run).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "monitor": ("LatencyMonitor", "install_probe_responder"),
    "policy": (
        "inverse_latency_weights", "proportional_inverse_latency_weights",
        "wheat_style_weights",
    ),
    "controller": ("WeightController",),
    "loop": ("MonitoringHarness", "install_monitoring"),
})
