"""Declarative scenario specifications (Spec v2) and the generic driver.

A :class:`ScenarioSpec` describes one simulated experiment without running
it.  Every part of the description is a *section* — a frozen dataclass
implementing the uniform :class:`~repro.experiments.sections.SpecSection`
protocol (``to_dict`` / ``from_dict`` / ``flatten`` / ``validate`` /
``build``) — and the spec itself is just the root section composing the
others:

* :class:`ClusterSpec` — flavour, size, fault threshold, sharding, weights;
* :class:`WorkloadSpec` — key popularity × arrivals × mix × phases (or a
  recorded trace), every leaf sweepable (``workload.keys.zipf_s``);
* :class:`LatencySpec` — the latency model, plus the slowdown wrapper;
* :class:`MonitoringSpec` — the probe → policy → controller feedback loop
  (interval, window, policy kind + threshold, controller gain, per-shard vs
  global scope), built by :func:`repro.monitoring.loop.install_monitoring`
  into the existing :class:`~repro.monitoring.monitor.LatencyMonitor` /
  policy / :class:`~repro.monitoring.controller.WeightController` objects;
* :class:`FaultSpec` — crash/recover schedules and partition/heal windows,
  built into a :class:`~repro.sim.failures.FailureSchedule`;
* :class:`TransferEvent` — scheduled weight transfers (the protocol knob
  the paper is about).

Because the protocol is uniform, a spec round-trips through JSON
(:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`, or
:func:`load_spec_file` for files — see ``examples/specs/``), flattens into
one dotted-path parameter dict for the sweep engine (``cluster.n``,
``monitoring.policy.threshold``, ``faults.crashes``, ``seed``), and
rebuilds with :meth:`ScenarioSpec.with_overrides`.

:func:`run_spec` is the generic driver: build the cluster, install
monitoring, generate the workload, arm faults and transfers, run, and
return a plain JSON-serialisable result dict.  Scenarios that do not fit
the cluster-plus-workload mold (analytic comparisons, protocol
walkthroughs) register plain functions instead — see
:mod:`repro.experiments.registry`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.spec import SystemConfig
from repro.errors import ConfigurationError
from repro.experiments.sections import SpecSection, unflatten
from repro.net.latency import (
    ConstantLatency,
    GrayFailureLatency,
    LatencyModel,
    LogNormalLatency,
    SlowdownLatency,
    UniformLatency,
)
from repro.sim.cluster import (
    Cluster,
    ShardedCluster,
    build_cluster,
    build_sharded_cluster,
)
from repro.sim.failures import FailureSchedule, windows_overlap
from repro.sim.metrics import LatencySummary
from repro.sim.runner import run_workload
from repro.sim.workload import Workload
from repro.monitoring.loop import MonitoringHarness, install_monitoring
from repro.monitoring.policy import (
    proportional_inverse_latency_weights,
    wheat_style_weights,
)
from repro.obs import Observer, observing, trace_digest, write_trace
from repro.storage.sharded import expand_process_names, shard_process_name
from repro.types import ProcessId, VirtualTime, Weight, server_set
from repro.workloads.arrivals import (
    ArrivalProcess,
    ClosedLoopArrivals,
    OnOffArrivals,
    PoissonArrivals,
)
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.keys import HotspotKeys, KeyDistribution, UniformKeys, ZipfianKeys
from repro.workloads.mix import OperationMix
from repro.workloads.phases import Phase
from repro.workloads.stats import workload_stats
from repro.workloads.trace import read_trace

__all__ = [
    "SpecSection",
    "unflatten",
    "LatencySpec",
    "ClusterSpec",
    "KeySpec",
    "ArrivalSpec",
    "MixSpec",
    "PhaseSpec",
    "WorkloadSpec",
    "PolicySpec",
    "MonitoringSpec",
    "ObservabilitySpec",
    "OutageSpec",
    "PartitionSpec",
    "FaultSpec",
    "FailureSpec",
    "TransferEvent",
    "ScenarioSpec",
    "run_spec",
    "load_spec_file",
    "read_spec_file",
]

CLUSTER_FLAVOURS = ("dynamic-weighted", "static-majority", "static-weighted")
MONITORING_SCOPES = ("per-shard", "global")


class _Kinds(Dict[str, Callable[..., Any]]):
    """A ``kind -> builder`` table; looking up an unknown kind raises the one
    shared error, so ``validate()`` and ``build()`` both just index it."""

    def __init__(
        self, what: str, builders: Mapping[str, Callable[..., Any]]
    ) -> None:
        super().__init__(builders)
        self.what = what

    def __missing__(self, kind: str) -> Callable[..., Any]:
        raise ConfigurationError(
            f"unknown {self.what} {kind!r}; expected one of {', '.join(self)}"
        )


_LATENCY_MODELS = _Kinds("latency kind", {
    "constant": lambda spec, seed: ConstantLatency(spec.value),
    "uniform": lambda spec, seed: UniformLatency(spec.low, spec.high, seed=seed),
    "lognormal": lambda spec, seed: LogNormalLatency(
        spec.median, spec.sigma, seed=seed
    ),
})


@dataclass(frozen=True)
class LatencySpec(SpecSection):
    """Which :class:`~repro.net.latency.LatencyModel` to build, and how.

    ``kind`` selects the model (``constant`` / ``uniform`` / ``lognormal``);
    the remaining fields parameterise it.  A non-empty ``slow`` tuple wraps
    the model in :class:`~repro.net.latency.SlowdownLatency`, degrading the
    listed processes by ``slow_factor`` from ``slow_start`` on.  On a
    sharded cluster a canonical name in ``slow`` (``s1``) degrades that
    server's instance in every shard; a qualified name (``s1#2``) degrades
    one shard's instance only.

    A non-empty ``degraded`` tuple additionally wraps the model in
    :class:`~repro.net.latency.GrayFailureLatency`: the listed processes
    suffer a *gray failure* — slow but alive — paying ``degraded_factor``
    times the base delay plus a flat ``degraded_stall`` per message during
    ``[degraded_start, degraded_end)``.  Every gray knob is a sweepable
    dotted path (``latency.degraded``, ``latency.degraded_factor``, ...),
    which is how chaos campaigns (:mod:`repro.chaos`) sample the gray
    region of the fault space.  Name resolution follows the same
    canonical/qualified rule as ``slow``.
    """

    kind: str = "constant"
    value: VirtualTime = 1.0
    low: VirtualTime = 0.5
    high: VirtualTime = 1.5
    median: VirtualTime = 1.0
    sigma: float = 0.3
    slow: Tuple[ProcessId, ...] = ()
    slow_factor: float = 8.0
    slow_start: VirtualTime = 0.0
    slow_end: Optional[VirtualTime] = None
    # Gray-failure knobs, appended after the slowdown block so positional
    # construction of older specs keeps meaning what it meant.
    degraded: Tuple[ProcessId, ...] = ()
    degraded_factor: float = 4.0
    degraded_stall: VirtualTime = 0.0
    degraded_start: VirtualTime = 0.0
    degraded_end: Optional[VirtualTime] = None

    def _validate(self) -> None:
        _LATENCY_MODELS[self.kind]  # raises for an unknown kind
        if self.degraded_factor < 1.0:
            raise ConfigurationError(
                "latency.degraded_factor must be >= 1 (gray nodes are slow, "
                f"not fast), got {self.degraded_factor}"
            )
        if self.degraded_stall < 0:
            raise ConfigurationError(
                "latency.degraded_stall must be non-negative, "
                f"got {self.degraded_stall}"
            )
        if self.degraded_start < 0:
            raise ConfigurationError(
                "latency.degraded_start must be non-negative, "
                f"got {self.degraded_start}"
            )
        if (self.degraded_end is not None
                and self.degraded_end <= self.degraded_start):
            raise ConfigurationError(
                f"latency.degraded_end={self.degraded_end} must be after "
                f"degraded_start={self.degraded_start}"
            )

    def build(self, seed: int = 0, shards: int = 1) -> LatencyModel:
        """Construct the configured latency model (seeded for jittery kinds).

        ``shards`` resolves the ``slow`` names into the sharded namespace
        (canonical names expand to every shard's instance) so slowdown
        scenarios keep degrading the right processes when swept over
        ``cluster.shards``.
        """
        model = _LATENCY_MODELS[self.kind](self, seed)
        if self.slow:
            model = SlowdownLatency(
                model,
                slow=expand_process_names(self.slow, shards),
                factor=self.slow_factor,
                start_at=self.slow_start,
                end_at=self.slow_end,
            )
        if self.degraded:
            model = GrayFailureLatency(
                model,
                degraded=expand_process_names(self.degraded, shards),
                factor=self.degraded_factor,
                stall=self.degraded_stall,
                start_at=self.degraded_start,
                end_at=self.degraded_end,
            )
        return model


@dataclass(frozen=True)
class ClusterSpec(SpecSection):
    """Cluster flavour, size, fault threshold, sharding and initial weights.

    ``n``, ``f`` and ``initial_weights`` describe one replica group; with
    ``shards > 1`` that group is the *per-shard template* and the deployment
    runs ``shards`` independent copies of it behind a key-hash router (so a
    sweep over ``cluster.shards`` scales the key space out without touching
    any other axis).  ``shards`` is sweepable like every other field.
    """

    flavour: str = "dynamic-weighted"
    n: int = 5
    f: Optional[int] = None
    client_count: int = 2
    initial_weights: Tuple[Tuple[ProcessId, float], ...] = ()
    shards: int = 1

    def _validate(self) -> None:
        self.system_config()  # raises the canonical errors without building

    def system_config(self) -> SystemConfig:
        """Build the (per-shard) :class:`SystemConfig` this spec describes."""
        if self.flavour not in CLUSTER_FLAVOURS:
            raise ConfigurationError(
                f"unknown cluster flavour {self.flavour!r}; "
                f"expected one of {CLUSTER_FLAVOURS}"
            )
        if self.shards < 1:
            raise ConfigurationError(
                f"cluster.shards must be at least 1, got {self.shards}"
            )
        if not self.initial_weights:
            return SystemConfig.uniform(self.n, f=self.f)
        weights = {pid: weight for pid, weight in self.initial_weights}
        if len(weights) != self.n:
            raise ConfigurationError(
                f"cluster.n={self.n} does not match the {len(weights)} explicit "
                "initial_weights; override both together"
            )
        if self.f is None:
            raise ConfigurationError("explicit initial_weights require an explicit f")
        return SystemConfig(
            servers=server_set(len(weights)),
            f=self.f,
            initial_weights=weights,
        )

    def build(
        self, config: SystemConfig, latency: LatencyModel
    ) -> Union[Cluster, ShardedCluster]:
        """Wire up the deployment: one register, or ``shards`` of them.

        ``shards == 1`` takes the classic single-register path, so existing
        scenarios and their checked-in baselines are bit-identical to the
        pre-sharding behaviour.
        """
        if self.shards > 1:
            return build_sharded_cluster(
                config,
                shards=self.shards,
                latency=latency,
                client_count=self.client_count,
                flavour=self.flavour,
            )
        return build_cluster(config, self.flavour, latency, self.client_count)


_KEY_DISTRIBUTIONS = _Kinds("key distribution kind", {
    "uniform": lambda spec: UniformKeys(spec.space),
    "zipfian": lambda spec: ZipfianKeys(spec.space, s=spec.zipf_s),
    "hotspot": lambda spec: HotspotKeys(
        spec.space,
        hot_fraction=spec.hot_fraction,
        hot_weight=spec.hot_weight,
        offset=spec.offset,
    ),
})


@dataclass(frozen=True)
class KeySpec(SpecSection):
    """Which key-popularity distribution to build, and how.

    ``kind`` selects ``uniform`` / ``zipfian`` / ``hotspot``; the remaining
    fields parameterise the chosen distribution and are ignored by the
    others (so sweeps can flip ``kind`` without invalidating sibling axes).
    """

    kind: str = "uniform"
    space: int = 16
    zipf_s: float = 1.1
    hot_fraction: float = 0.125
    hot_weight: float = 0.9
    offset: int = 0

    def _validate(self) -> None:
        _KEY_DISTRIBUTIONS[self.kind]  # raises for an unknown kind
        if self.space < 1:
            raise ConfigurationError(
                f"workload.keys.space must be at least 1, got {self.space}"
            )

    def build(self) -> KeyDistribution:
        """Construct the configured key-popularity distribution."""
        return _KEY_DISTRIBUTIONS[self.kind](self)


_ARRIVAL_PROCESSES = _Kinds("arrival kind", {
    "closed": lambda spec: ClosedLoopArrivals(spec.mean_think_time),
    "poisson": lambda spec: PoissonArrivals(spec.rate),
    "onoff": lambda spec: OnOffArrivals(
        burst_rate=spec.burst_rate,
        burst_length=spec.burst_length,
        idle_time=spec.idle_time,
    ),
})


@dataclass(frozen=True)
class ArrivalSpec(SpecSection):
    """Which arrival process to build, and how.

    ``kind`` selects ``closed`` (think-time loop) / ``poisson`` (open-loop)
    / ``onoff`` (bursty open-loop); the remaining fields parameterise the
    chosen process and are ignored by the others.
    """

    kind: str = "closed"
    mean_think_time: VirtualTime = 1.0
    rate: float = 1.0
    burst_rate: float = 4.0
    burst_length: VirtualTime = 5.0
    idle_time: VirtualTime = 10.0

    def _validate(self) -> None:
        _ARRIVAL_PROCESSES[self.kind]  # raises for an unknown kind

    def build(self) -> ArrivalProcess:
        """Construct the configured arrival process."""
        return _ARRIVAL_PROCESSES[self.kind](self)


@dataclass(frozen=True)
class MixSpec(SpecSection):
    """Read/write ratio and multi-key fan-out of one logical operation."""

    read_ratio: float = 0.5
    keys_per_op: int = 1

    def _validate(self) -> None:
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ConfigurationError(
                f"workload.mix.read_ratio must be within [0, 1], got {self.read_ratio}"
            )
        if self.keys_per_op < 1:
            raise ConfigurationError(
                f"workload.mix.keys_per_op must be at least 1, got {self.keys_per_op}"
            )

    def build(self) -> OperationMix:
        """Construct the configured operation mix."""
        return OperationMix(read_ratio=self.read_ratio, keys_per_op=self.keys_per_op)


_PHASE_AXES = ("keys", "arrivals", "mix")


@dataclass(frozen=True)
class PhaseSpec(SpecSection):
    """A mid-run workload flip: at ``at``, apply ``overrides`` to the base axes.

    ``overrides`` are dotted paths *within the workload section* and apply to
    the base workload (not cumulatively to earlier phases), e.g.
    ``(("keys.offset", 8), ("mix.read_ratio", 0.9))``.  Only the three axis
    subtrees (``keys`` / ``arrivals`` / ``mix``) may be overridden.
    """

    at: VirtualTime
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def _validate(self) -> None:
        if self.at < 0:
            raise ConfigurationError(
                f"phase start times must be non-negative, got {self.at}"
            )
        for entry in self.overrides:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise ConfigurationError(
                    f"invalid phase override {entry!r}: expected (path, value)"
                )
            parts = str(entry[0]).split(".")
            if parts[0] not in _PHASE_AXES or len(parts) < 2:
                raise ConfigurationError(
                    f"phase override {entry[0]!r} must target a field inside one of "
                    f"the workload axes {_PHASE_AXES} (e.g. 'keys.offset')"
                )


@dataclass(frozen=True)
class WorkloadSpec(SpecSection):
    """The pluggable workload section: axes, phases, or a trace to replay."""

    operations_per_client: int = 10
    keys: KeySpec = KeySpec()
    arrivals: ArrivalSpec = ArrivalSpec()
    mix: MixSpec = MixSpec()
    phases: Tuple[PhaseSpec, ...] = ()
    trace: Optional[str] = None

    def _validate(self) -> None:
        if self.operations_per_client < 1:
            raise ConfigurationError(
                "workload.operations_per_client must be at least 1, "
                f"got {self.operations_per_client}"
            )

    def _phase(self, spec: "PhaseSpec") -> Phase:
        overridden = self
        for key, value in spec.overrides:
            overridden = _replace_path(overridden, key, key.split("."), value)
        return Phase(
            start=spec.at,
            keys=overridden.keys.build(),
            arrivals=overridden.arrivals.build(),
            mix=overridden.mix.build(),
        )

    def build(self, clients: Tuple[ProcessId, ...], seed: int) -> Workload:
        """Generate the workload for ``clients`` (or replay the ``trace``)."""
        if self.trace is not None:
            return read_trace(self.trace)
        generator = WorkloadGenerator(
            keys=self.keys.build(),
            arrivals=self.arrivals.build(),
            mix=self.mix.build(),
            phases=tuple(self._phase(phase) for phase in self.phases),
        )
        return generator.generate(
            clients, operations_per_client=self.operations_per_client, seed=seed
        )


_POLICIES = _Kinds("policy kind", {
    "inverse-latency": lambda spec: functools.partial(
        proportional_inverse_latency_weights, margin=spec.margin
    ),
    "wheat": lambda spec: functools.partial(
        wheat_style_weights, extra_servers=spec.extra_servers, margin=spec.margin
    ),
})


@dataclass(frozen=True)
class PolicySpec(SpecSection):
    """Which weight-assignment policy closes the monitoring loop, and how.

    ``kind`` selects :func:`~repro.monitoring.policy.
    proportional_inverse_latency_weights` (``inverse-latency``) or
    :func:`~repro.monitoring.policy.wheat_style_weights` (``wheat``);
    ``threshold`` is the controller dead-band (deficits below it are never
    chased), ``margin`` the RP-Integrity clipping margin, and
    ``extra_servers`` the WHEAT deployment surplus (ignored by the inverse-
    latency policy).
    """

    kind: str = "inverse-latency"
    threshold: Weight = 0.05
    margin: float = 0.05
    extra_servers: int = 1

    def _validate(self) -> None:
        _POLICIES[self.kind]  # raises for an unknown kind
        if self.threshold <= 0:
            raise ConfigurationError(
                f"monitoring.policy.threshold must be positive, got {self.threshold}"
            )
        if self.margin < 0:
            raise ConfigurationError(
                f"monitoring.policy.margin must be non-negative, got {self.margin}"
            )

    def build(self):
        """The policy as a ``(latency_summary, config) -> targets`` callable."""
        return _POLICIES[self.kind](self)


@dataclass(frozen=True)
class MonitoringSpec(SpecSection):
    """The declarative probe → policy → controller feedback loop.

    When ``enabled``, :func:`run_spec` installs — before the workload starts
    — a prober that pings every server each ``interval``, a
    :class:`~repro.monitoring.monitor.LatencyMonitor` (sliding ``window``,
    EWMA ``ewma_alpha``) folding the replies, the :class:`PolicySpec` policy
    mapping the summary to target weights, and one
    :class:`~repro.monitoring.controller.WeightController` per server taking
    a step of at most ``gain`` towards them; the loop runs ``rounds`` times.

    There is one loop (:func:`~repro.monitoring.loop.install_monitoring`);
    on a sharded cluster ``scope`` only chooses which replica groups share a
    monitor: ``per-shard`` starts one loop per shard over that shard's own
    servers (own prober ``mon#k``, own monitor, own controllers — nothing
    shared), while ``global`` starts one loop over every shard, whose
    monitor is keyed by canonical machine (a machine's sample is the mean
    round trip of its instances) and whose one target map drives all
    shards' controllers.  Monitoring requires the ``dynamic-weighted``
    flavour (controllers speak the paper's ``transfer``).
    """

    enabled: bool = False
    interval: VirtualTime = 5.0
    rounds: int = 8
    window: int = 32
    ewma_alpha: float = 0.3
    policy: PolicySpec = PolicySpec()
    gain: Weight = 0.3
    scope: str = "per-shard"
    prober: ProcessId = "mon"

    def _validate(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError(
                f"monitoring.interval must be positive, got {self.interval}"
            )
        if self.rounds < 1:
            raise ConfigurationError(
                f"monitoring.rounds must be at least 1, got {self.rounds}"
            )
        if self.window < 1:
            raise ConfigurationError(
                f"monitoring.window must be at least 1, got {self.window}"
            )
        if not 0 < self.ewma_alpha <= 1:
            raise ConfigurationError(
                f"monitoring.ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if self.gain <= 0:
            raise ConfigurationError(
                f"monitoring.gain must be positive, got {self.gain}"
            )
        if self.scope not in MONITORING_SCOPES:
            raise ConfigurationError(
                f"unknown monitoring scope {self.scope!r}; "
                f"expected one of {MONITORING_SCOPES}"
            )
        if not self.prober:
            raise ConfigurationError("monitoring.prober must not be empty")

    def build(self, cluster: Union[Cluster, ShardedCluster]) -> MonitoringHarness:
        """Install the loop(s) on ``cluster`` — the adapter from a cluster to
        the replica groups each monitor covers — and return the harness
        holding the controllers."""
        shards = getattr(cluster, "shards", None)
        if shards is None:
            loops = [(self.prober, cluster.config, {0: cluster.servers})]
        elif self.scope == "global":
            every_shard = {group.index: group.servers for group in shards}
            loops = [(self.prober, cluster.config, every_shard)]
        else:
            loops = [
                (f"{self.prober}#{group.index}", group.config,
                 {group.index: group.servers})
                for group in shards
            ]
        policy = self.policy.build()
        return MonitoringHarness.merged([
            install_monitoring(
                cluster.loop,
                cluster.network,
                config,
                groups,
                prober=prober,
                rounds=self.rounds,
                interval=self.interval,
                tolerance=self.policy.threshold,
                max_step=self.gain,
                window=self.window,
                ewma_alpha=self.ewma_alpha,
                policy=policy,
            )
            for prober, config, groups in loops
        ])


@dataclass(frozen=True)
class ObservabilitySpec(SpecSection):
    """The declarative switch for the :mod:`repro.obs` layer.

    Off by default — and when off, :func:`run_spec` installs no observer, the
    components capture ``None``, and the result dict is byte-identical to
    pre-observability baselines.  When ``enabled``:

    * ``metrics`` adds a ``metrics`` block (the sorted
      :meth:`~repro.obs.metrics.MetricsRegistry.as_dict` snapshot) to the
      result;
    * ``trace`` adds a ``trace`` block (record count + deterministic digest)
      and, if ``trace_path`` is set, writes the canonical JSONL there —
      inside the worker process, so per-run files compose with the
      multiprocessing sweep executor;
    * ``trace_messages`` gates the per-message flow records independently
      (the chattiest trace category).

    Every field is sweepable (``observability.enabled``,
    ``observability.trace_path``), which is how ``python -m repro sweep
    --trace-dir`` turns tracing on per run.  A chaos campaign switches the
    section off for its runs: it observes them itself, from outside.
    """

    enabled: bool = False
    metrics: bool = True
    trace: bool = True
    trace_messages: bool = True
    trace_path: Optional[str] = None

    def _validate(self) -> None:
        if self.enabled and not (self.metrics or self.trace):
            raise ConfigurationError(
                "observability.enabled without metrics or trace records nothing; "
                "disable it instead"
            )
        if self.trace_path is not None and not self.trace_path:
            raise ConfigurationError("observability.trace_path must not be empty")
        if self.trace_path is not None and not (self.enabled and self.trace):
            raise ConfigurationError(
                "observability.trace_path requires observability.enabled and "
                "observability.trace"
            )

    def build(self) -> Optional[Observer]:
        """The observer :func:`run_spec` installs, or ``None`` when disabled."""
        if not self.enabled:
            return None
        return Observer(
            metrics=self.metrics,
            trace=self.trace,
            trace_messages=self.trace_messages,
        )


@dataclass(frozen=True)
class OutageSpec(SpecSection):
    """A crash with its matching recovery: ``process`` is down during
    ``[at, until)``; ``until=None`` never recovers."""

    process: ProcessId
    at: VirtualTime
    until: Optional[VirtualTime] = None


@dataclass(frozen=True)
class PartitionSpec(SpecSection):
    """A partition window: split into ``groups`` at ``at``, heal at ``heal_at``.

    Processes (servers *and* clients) not listed in any group form an
    implicit extra group; on a sharded cluster canonical names expand to
    every shard's instance.  ``heal_at=None`` never heals.
    """

    at: VirtualTime
    groups: Tuple[Tuple[ProcessId, ...], ...] = ()
    heal_at: Optional[VirtualTime] = None

    def _validate(self) -> None:
        if self.at < 0:
            raise ConfigurationError(
                f"partition times must be non-negative, got {self.at}"
            )
        if self.heal_at is not None and self.heal_at <= self.at:
            raise ConfigurationError(
                f"partition heal_at={self.heal_at} must be after at={self.at}"
            )
        if not self.groups or any(not group for group in self.groups):
            raise ConfigurationError(
                "a partition window needs at least one non-empty group"
            )

    def overlaps(self, other: "PartitionSpec") -> bool:
        """Whether two windows are live at the same time (heal() is global)."""
        return windows_overlap(self.at, self.heal_at, other.at, other.heal_at)


@dataclass(frozen=True)
class FaultSpec(SpecSection):
    """The fault-injection section: crash/recover schedules, partition windows.

    ``crashes`` and ``recoveries`` are ``(process, virtual_time)`` pairs;
    ``outages`` are self-contained :class:`OutageSpec` windows — a crash
    with its matching recovery in one value, which is what lets a chaos
    campaign sample a fault window as a single sweep axis; ``partitions``
    are :class:`PartitionSpec` windows.
    On a sharded cluster a canonical process name (``s4``) targets that
    server's instance in every shard (the machine hosting them); a
    qualified name (``s4#2``) targets one shard's instance only — the same
    *per-group targeting* rule latency slowdowns use, so fault scenarios
    sweep over ``cluster.shards`` unchanged.  (``failures`` is accepted as
    a legacy alias for this section in spec files and dotted override
    paths.)

    Validation is strict and names the offending dotted path: malformed
    entries, negative times, a recovery scheduled at or before its crash
    (replayed in :meth:`~repro.sim.failures.FailureSchedule.arm` order:
    recoveries resolve before crashes at equal times), and overlapping
    partition windows all raise :class:`~repro.errors.ConfigurationError`
    from :meth:`validate`; :meth:`check_processes` additionally rejects
    faults targeting processes the built cluster does not have — both run
    before the simulation starts, so a bad schedule can never fail (or
    silently no-op) mid-run.
    """

    crashes: Tuple[Tuple[ProcessId, VirtualTime], ...] = ()
    recoveries: Tuple[Tuple[ProcessId, VirtualTime], ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()
    # Appended after partitions so positional construction of older specs
    # keeps meaning what it meant.
    outages: Tuple[OutageSpec, ...] = ()

    def _validate(self) -> None:
        for label, entries in (("crashes", self.crashes),
                               ("recoveries", self.recoveries)):
            for index, entry in enumerate(entries):
                if not (isinstance(entry, tuple) and len(entry) == 2):
                    raise ConfigurationError(
                        f"invalid faults.{label}[{index}] entry {entry!r}: "
                        "expected (process, at)",
                        path=f"faults.{label}[{index}]",
                    )
                if entry[1] < 0:
                    raise ConfigurationError(
                        f"faults.{label}[{index}] times must be non-negative, "
                        f"got {entry[1]}",
                        path=f"faults.{label}[{index}]",
                    )
        for index, outage in enumerate(self.outages):
            if outage.at < 0:
                raise ConfigurationError(
                    f"faults.outages[{index}] times must be non-negative, "
                    f"got {outage.at}",
                    path=f"faults.outages[{index}]",
                )
            if outage.until is not None and outage.until <= outage.at:
                raise ConfigurationError(
                    f"faults.outages[{index}] recovers at until={outage.until}, "
                    f"at or before its crash at={outage.at}",
                    path=f"faults.outages[{index}]",
                )
        self._check_recovery_order()
        for index, window in enumerate(self.partitions):
            for other_index, other in enumerate(
                self.partitions[index + 1:], index + 1
            ):
                if window.overlaps(other):
                    raise ConfigurationError(
                        f"partition windows faults.partitions[{index}] and "
                        f"faults.partitions[{other_index}] overlap: "
                        f"[{window.at}, {window.heal_at}) and "
                        f"[{other.at}, {other.heal_at})",
                        path=f"faults.partitions[{other_index}]",
                    )

    def _check_recovery_order(self) -> None:
        """Reject recoveries that resolve while their process is not down.

        The timeline (explicit crashes/recoveries plus expanded outages) is
        replayed exactly the way :meth:`~repro.sim.failures.FailureSchedule.
        arm` schedules it — recoveries before crashes at equal times — so a
        recovery applied while its process is up is a schedule that would
        silently no-op mid-run; it raises here instead, naming the entry.
        Names are compared as given (canonical vs qualified names live in
        different namespaces until build time).
        """
        timeline = []
        for index, (process, at) in enumerate(self.crashes):
            timeline.append((at, 1, process, f"faults.crashes[{index}]"))
        for index, (process, at) in enumerate(self.recoveries):
            timeline.append((at, 0, process, f"faults.recoveries[{index}]"))
        for index, outage in enumerate(self.outages):
            path = f"faults.outages[{index}]"
            timeline.append((outage.at, 1, outage.process, path))
            if outage.until is not None:
                timeline.append((outage.until, 0, outage.process, path))
        down = set()
        for at, is_crash, process, path in sorted(
            timeline, key=lambda entry: (entry[0], entry[1], entry[2])
        ):
            if is_crash:
                down.add(process)  # double crash is idempotent, not an error
            elif process in down:
                down.discard(process)
            else:
                raise ConfigurationError(
                    f"{path} recovers {process!r} at t={at}, but it is not "
                    "down then (recoveries resolve before crashes at equal "
                    "times; schedule the crash strictly earlier)",
                    path=path,
                )

    def check_processes(
        self, known: Tuple[ProcessId, ...], shards: int = 1
    ) -> None:
        """Reject fault targets the cluster does not have, naming the path.

        ``known`` is the built network's process id set (servers, clients,
        probers); targets expand through the same canonical/qualified rule
        :meth:`build` uses, so this check accepts exactly the schedules that
        would resolve at run time — a typo'd node fails here, up front,
        instead of raising :class:`~repro.errors.UnknownProcessError` at its
        scheduled virtual time.
        """
        known_set = set(known)

        def check(path: str, process: ProcessId) -> None:
            for pid in expand_process_names((process,), shards):
                if pid not in known_set:
                    raise ConfigurationError(
                        f"{path} targets unknown process {pid!r} "
                        f"(known: {', '.join(sorted(known_set))})",
                        path=path,
                    )

        for index, (process, _) in enumerate(self.crashes):
            check(f"faults.crashes[{index}]", process)
        for index, (process, _) in enumerate(self.recoveries):
            check(f"faults.recoveries[{index}]", process)
        for index, outage in enumerate(self.outages):
            check(f"faults.outages[{index}]", outage.process)
        for index, window in enumerate(self.partitions):
            for group_index, group in enumerate(window.groups):
                for process in group:
                    check(
                        f"faults.partitions[{index}].groups[{group_index}]",
                        process,
                    )

    def build(self, shards: int = 1) -> Optional[FailureSchedule]:
        """Construct the fault schedule, or ``None`` when no faults are set."""
        if not (self.crashes or self.recoveries or self.partitions
                or self.outages):
            return None
        schedule = FailureSchedule()
        for process, at in self.crashes:
            for pid in expand_process_names((process,), shards):
                schedule.crash(pid, at)
        for process, at in self.recoveries:
            for pid in expand_process_names((process,), shards):
                schedule.recover(pid, at)
        for outage in self.outages:
            for pid in expand_process_names((outage.process,), shards):
                schedule.outage(pid, outage.at, until=outage.until)
        for window in self.partitions:
            schedule.partition_window(
                [expand_process_names(group, shards) for group in window.groups],
                at=window.at,
                heal_at=window.heal_at,
            )
        return schedule


# Deprecation shim: the pre-v2 name of the fault section.  ``FailureSpec(
# crashes=...)`` keeps constructing, and ``failures.*`` override paths /
# spec-file keys alias onto ``faults.*`` (see ScenarioSpec._aliases).
FailureSpec = FaultSpec


@dataclass(frozen=True)
class TransferEvent(SpecSection):
    """A scheduled weight transfer: at ``at``, ``source`` sends ``delta`` to ``target``.

    ``shard`` selects which replica group executes the transfer in a sharded
    deployment (weights are per-shard state); it is ignored — and must stay
    0 — when the cluster runs a single register.
    """

    at: VirtualTime
    source: ProcessId
    target: ProcessId
    delta: float
    shard: int = 0

    def _validate(self) -> None:
        if self.shard < 0:
            raise ConfigurationError(
                f"transfer shard indices are 0-based, got {self.shard}"
            )


@dataclass(frozen=True)
class ScenarioSpec(SpecSection):
    """A fully declarative experiment description (the root spec section)."""

    name: str
    description: str = ""
    cluster: ClusterSpec = ClusterSpec()
    workload: WorkloadSpec = WorkloadSpec()
    latency: LatencySpec = LatencySpec()
    monitoring: MonitoringSpec = MonitoringSpec()
    faults: FaultSpec = FaultSpec()
    transfers: Tuple[TransferEvent, ...] = ()
    seed: int = 0
    max_time: Optional[VirtualTime] = None
    # Appended after max_time so positional construction of older specs
    # keeps meaning what it meant.
    observability: ObservabilitySpec = ObservabilitySpec()

    _non_sweepable = ("name", "description")
    _aliases = {"failures": "faults"}

    def _validate(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must not be empty")

    def with_overrides(self, params: Optional[Mapping[str, Any]] = None) -> "ScenarioSpec":
        """Rebuild the spec with dotted-path overrides applied.

        ``{"cluster.n": 9, "seed": 3}`` replaces nested fields; unknown paths
        raise :class:`~repro.errors.ConfigurationError`.  Overrides are
        applied in sorted key order, so the result is deterministic.
        """
        spec = self
        for key in sorted(params or {}):
            spec = _replace_path(spec, key, key.split("."), (params or {})[key])
        return spec


def _replace_path(obj: Any, full_key: str, parts: List[str], value: Any) -> Any:
    if not dataclasses.is_dataclass(obj):
        raise ConfigurationError(
            f"parameter path {full_key!r} descends into a non-spec value",
            path=full_key,
        )
    field_names = {field.name for field in dataclasses.fields(obj)}
    head = parts[0]
    if isinstance(obj, SpecSection):
        head = type(obj)._aliases.get(head, head)
    if head not in field_names:
        raise ConfigurationError(
            f"unknown parameter {full_key!r}: {type(obj).__name__} has no field {head!r} "
            f"(fields: {', '.join(sorted(field_names))})",
            path=full_key,
        )
    if len(parts) > 1:
        value = _replace_path(getattr(obj, head), full_key, parts[1:], value)
    try:
        return dataclasses.replace(obj, **{head: value})
    except ConfigurationError as error:
        # The section located the bad item among its own fields; the
        # request knows where that section sits.
        above = full_key[: len(full_key) - len(".".join(parts))]
        error.path = f"{above}{error.path or head}"
        raise


def read_spec_file(path: str) -> Dict[str, Any]:
    """The JSON object a spec file holds, unparsed (an inline ``spec``)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise ConfigurationError(f"cannot read spec file {path!r}: {error}") from error
    except json.JSONDecodeError as error:
        raise ConfigurationError(
            f"spec file {path!r} is not valid JSON: {error}"
        ) from error
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"spec file {path!r} must contain a JSON object, "
            f"got {type(data).__name__}"
        )
    return data


def load_spec_file(path: str) -> ScenarioSpec:
    """Load a :class:`ScenarioSpec` from a JSON spec file and validate it.

    The file holds exactly the :meth:`ScenarioSpec.to_dict` shape (see
    ``examples/specs/``); unknown keys are rejected, lists become tuples,
    nested sections may use the positional shorthand (``"transfers":
    [[5.0, "s1", "s2", 0.25]]``).
    """
    return ScenarioSpec.from_dict(read_spec_file(path)).validate()


def _summary_dict(summary: Optional[LatencySummary]) -> Optional[Dict[str, float]]:
    return None if summary is None else summary.as_dict()


def run_spec(spec: ScenarioSpec) -> Dict[str, Any]:
    """Execute a declarative scenario and return a JSON-serialisable result.

    The result always carries the latency summaries, message counts, transfer
    outcomes and achieved workload statistics; monitoring-enabled runs add a
    ``monitoring`` block (control rounds, transfers attempted); sharded runs
    (``cluster.shards > 1``) additionally report ``shards`` (per-shard
    load/latency breakdown), ``imbalance`` (hottest-shard share, max/mean
    ratio, load variance) and — for the dynamic-weighted flavour —
    ``shard_weights`` (each shard's independently evolving weight map).
    Observability-enabled runs (``observability.enabled``) add ``metrics``
    and/or ``trace`` blocks; with it disabled (the default) the result is
    byte-identical to pre-observability baselines.
    """
    spec.validate()
    observer = spec.observability.build()
    if observer is None:
        return _run_spec_inner(spec)
    # The observer must be ambient *before* the cluster is built: SimLoop,
    # Network and ShardedStore capture it at construction time.
    with observing(observer):
        result = _run_spec_inner(spec)
    if observer.metrics is not None:
        result["metrics"] = observer.metrics.as_dict()
    if observer.trace is not None:
        records = observer.trace.records
        # A trace that goes to disk is encoded once: write_trace returns the
        # digest of the bytes it wrote.
        path = spec.observability.trace_path
        result["trace"] = {
            "records": len(records),
            "digest": write_trace(records, path) if path else trace_digest(records),
        }
    return result


def _run_spec_inner(spec: ScenarioSpec) -> Dict[str, Any]:
    if spec.transfers and spec.cluster.flavour != "dynamic-weighted":
        raise ConfigurationError(
            "scheduled transfers require the dynamic-weighted flavour, "
            f"got {spec.cluster.flavour!r}"
        )
    if spec.monitoring.enabled and spec.cluster.flavour != "dynamic-weighted":
        raise ConfigurationError(
            "monitoring-driven reassignment requires the dynamic-weighted "
            f"flavour, got {spec.cluster.flavour!r}"
        )
    sharded = spec.cluster.shards > 1
    for event in spec.transfers:
        if not 0 <= event.shard < spec.cluster.shards:
            raise ConfigurationError(
                f"transfer at t={event.at} targets shard {event.shard}, but the "
                f"cluster has {spec.cluster.shards} shard(s)"
            )
    config = spec.cluster.system_config()
    cluster = spec.cluster.build(
        config, spec.latency.build(seed=spec.seed, shards=spec.cluster.shards)
    )
    # Monitoring installs before the workload generates or any transfer task
    # spawns, matching the imperative scenarios' wiring order event-for-event.
    harness: Optional[MonitoringHarness] = None
    if spec.monitoring.enabled:
        harness = spec.monitoring.build(cluster)
    # Fault targets are checked against the fully built membership (servers,
    # clients, probers) so a typo'd node fails before the run, not at its
    # scheduled virtual time.
    spec.faults.check_processes(
        tuple(cluster.network.process_ids()), shards=spec.cluster.shards
    )
    workload = spec.workload.build(tuple(cluster.clients), seed=spec.seed)

    transfer_outcomes: List[Dict[str, Any]] = []

    async def fire(event: TransferEvent) -> None:
        if event.at > 0:
            await cluster.loop.sleep(event.at)
        if sharded:
            server = cluster.server(event.shard, event.source)
        else:
            server = cluster.servers[event.source]
        # Spec-level transfers name canonical servers (s1); inside a sharded
        # deployment the reassignment protocol addresses shard-qualified peers.
        target = (
            shard_process_name(event.target, event.shard) if sharded else event.target
        )
        outcome = await server.transfer(target, event.delta)
        entry = {
            "at": event.at,
            "source": event.source,
            "target": event.target,
            "delta": event.delta,
            "effective": outcome.effective,
            "latency": outcome.latency,
        }
        if sharded:
            entry["shard"] = event.shard
        transfer_outcomes.append(entry)

    for event in spec.transfers:
        cluster.loop.create_task(fire(event), name=f"transfer@{event.at}")

    report = run_workload(
        cluster,
        workload,
        failures=spec.faults.build(shards=spec.cluster.shards),
        max_time=spec.max_time,
    )
    cluster.loop.run()  # let trailing transfers / broadcast echoes settle

    result: Dict[str, Any] = {
        "scenario": spec.name,
        "flavour": report.flavour,
        "seed": spec.seed,
        "duration": report.duration,
        "operations": report.operations,
        "restarts": report.restarts,
        "messages": report.messages_sent,
        "read_latency": _summary_dict(report.read_latency),
        "write_latency": _summary_dict(report.write_latency),
        "transfers": transfer_outcomes,
        "workload": workload_stats(workload),
    }
    if harness is not None:
        result["monitoring"] = harness.as_dict(sharded=sharded)
    if sharded:
        result["shards"] = [summary.as_dict() for summary in report.shards or ()]
        if report.imbalance is not None:
            result["imbalance"] = report.imbalance.as_dict()
        if spec.cluster.flavour == "dynamic-weighted":
            result["shard_weights"] = {
                str(index): weights
                for index, weights in sorted(cluster.shard_weights().items())
            }
    elif spec.cluster.flavour == "dynamic-weighted":
        surviving = [
            pid for pid in config.servers if not cluster.network.is_crashed(pid)
        ]
        if surviving:
            result["weights"] = {
                pid: weight
                for pid, weight in sorted(
                    cluster.servers[surviving[0]].local_weights().items()
                )
            }
    return result
