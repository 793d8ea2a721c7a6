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
* :class:`LatencySpec` — the latency model (per-link delays included),
  plus a slowdown window and a gray-failure window;
* :class:`MonitoringSpec` — the probe → policy → controller feedback loop
  (interval, window, policy kind + threshold, controller gain, per-shard vs
  global scope), built by :func:`repro.monitoring.loop.install_monitoring`
  into the existing :class:`~repro.monitoring.monitor.LatencyMonitor` /
  policy / :class:`~repro.monitoring.controller.WeightController` objects;
* :class:`FaultSpec` — crash/recover schedules and partition/heal windows,
  validated and armed on the run's loop as one sorted timeline;
* :class:`TransferEvent` — scheduled weight transfers (the protocol knob
  the paper is about).

Because the protocol is uniform, a spec round-trips through JSON
(:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`, or
:func:`load_spec_file` for files — see ``examples/specs/``), flattens into
one dotted-path parameter dict for the sweep engine (``cluster.n``,
``monitoring.policy.threshold``, ``faults.crashes``, ``seed``), and
rebuilds with :meth:`ScenarioSpec.with_overrides`.

:func:`run_spec` is the generic driver: :meth:`ScenarioSpec.build` builds
a :class:`SpecRun`, whose ``run()`` arms and runs the world and whose
``result()`` is a plain JSON-serialisable dict; it is the only code that
runs a workload.  A catalogue scenario that adds a row to a storage run
(``hotspot-shift-monitoring``, ``sharded-hotspot-reassignment``,
``dynamic-storage-adaptation``) builds a spec and passes ``run_spec`` a
``measure``.  Scenarios that do not fit the mold register plain functions
(:mod:`repro.experiments.registry`): analytic comparisons and protocol
walkthroughs, and ``storage-vs-reconfig``, whose reconfigurable store is no
cluster flavour (:data:`repro.sim.cluster.FLAVOURS` lists those) and whose
result is liveness.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Collection, Dict, List, Mapping, Optional, Tuple

from repro.core.spec import SystemConfig
from repro.errors import ConfigurationError
from repro.experiments.sections import (
    LEFT_OPEN_UNIT, NON_EMPTY, NON_NEGATIVE, POSITIVE, UNIT, SpecSection,
    at_least, unflatten,
)
from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    PerLinkLatency,
    SlowdownLatency,
    UniformLatency,
)
from repro.net.simloop import SimTask
from repro.sim.cluster import FLAVOURS, Cluster, build_cluster
from repro.sim.runner import RunReport, run_workload
from repro.sim.workload import Workload
from repro.monitoring.loop import MonitoringHarness, install_monitoring
from repro.monitoring.policy import (
    proportional_inverse_latency_weights,
    wheat_style_weights,
)
from repro.obs import Observer, TraceEvent, observing, trace_digest, write_trace
from repro.storage.sharded import expand_process_names
from repro.types import ProcessId, VirtualTime, float_weights, server_set
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
    "SpecRun",
    "run_spec",
    "load_spec_file",
]

MONITORING_SCOPES = ("per-shard", "global")


#: The ``per-link`` kind's multiplicative jitter (a message's delay times a
#: seeded factor in ``[1, 1 + PER_LINK_JITTER]``): the case study's value.
PER_LINK_JITTER = 0.02

# Each kind-selected section keeps one ``kind -> builder`` table: its
# ``_bounds`` admits the table's names, and ``build()`` indexes it.
_LATENCY_MODELS: Dict[str, Callable[..., LatencyModel]] = {
    "constant": lambda spec, seed, shards: ConstantLatency(spec.value),
    "uniform": lambda spec, seed, shards: UniformLatency(
        spec.low, spec.high, seed=seed
    ),
    "lognormal": lambda spec, seed, shards: LogNormalLatency(
        spec.median, spec.sigma, seed=seed
    ),
    "per-link": lambda spec, seed, shards: PerLinkLatency(
        {}, default=spec.value, jitter=PER_LINK_JITTER, seed=seed, endpoints={
            pid: delay
            for name, delay in spec.delays
            for pid in expand_process_names((name,), shards)
        },
    ),
}


@dataclass(frozen=True)
class LatencySpec(SpecSection):
    """Which :class:`~repro.net.latency.LatencyModel` to build, and how.

    ``kind`` selects the model (``constant`` / ``uniform`` / ``lognormal`` /
    ``per-link``); the remaining fields parameterise it.  ``per-link`` gives
    each server listed in ``delays`` a one-way delay: a link takes the larger
    delay of its listed endpoints, a link with no listed endpoint (or a
    process's link to itself) takes ``value``, and every message pays a
    seeded factor in ``[1, 1 + PER_LINK_JITTER]``.

    A non-empty ``slow`` tuple wraps the model in
    :class:`~repro.net.latency.SlowdownLatency`, degrading the listed
    processes by ``slow_factor`` during ``[slow_start, slow_end)``.  A
    non-empty ``degraded`` tuple wraps it once more, outside the first: the
    listed processes suffer a *gray failure* — slow but alive — paying
    ``degraded_factor`` times the base delay plus a flat ``degraded_stall``
    per message during ``[degraded_start, degraded_end)``.  Every gray knob
    is a sweepable dotted path (``latency.degraded``, ...), which is how
    chaos campaigns (:mod:`repro.chaos`) sample the gray region of the fault
    space.  On a sharded cluster a canonical name in ``slow``, ``degraded``
    or ``delays`` (``s1``) names that server's instance in every shard; a
    qualified name (``s1#2``) names one shard's instance only.
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
    # The per-link delays, appended after the gray-failure block for the
    # same reason.
    delays: Tuple[Tuple[ProcessId, VirtualTime], ...] = ()

    # Slow and gray nodes are slower, never faster: factors are >= 1.
    _bounds = {
        "kind": _LATENCY_MODELS, "value": NON_NEGATIVE, "low": NON_NEGATIVE,
        "high": NON_NEGATIVE, "median": POSITIVE, "sigma": NON_NEGATIVE,
        "slow_factor": at_least(1), "slow_start": NON_NEGATIVE,
        "slow_end": NON_NEGATIVE, "degraded_factor": at_least(1),
        "degraded_stall": NON_NEGATIVE, "degraded_start": NON_NEGATIVE,
        "degraded_end": NON_NEGATIVE, "delays": NON_NEGATIVE,
    }

    def _validate(self, path: str) -> None:
        if self.high < self.low:
            raise ConfigurationError(
                f"{path}high={self.high} is below {path}low={self.low}",
                path=f"{path}high",
            )
        for window, start, end in (
            ("slow", self.slow_start, self.slow_end),
            ("degraded", self.degraded_start, self.degraded_end),
        ):
            if end is not None and end <= start:
                raise ConfigurationError(
                    f"{path}{window}_end={end} must be after "
                    f"{window}_start={start}",
                    path=f"{path}{window}_end",
                )

    def build(self, seed: int = 0, shards: int = 1) -> LatencyModel:
        """Construct the configured latency model (seeded for jittery kinds).

        ``shards`` resolves the ``delays``, ``slow`` and ``degraded`` names
        into the sharded namespace (canonical names expand to every shard's
        instance) so slowdown scenarios keep degrading the right processes
        when swept over ``cluster.shards``.
        """
        model = _LATENCY_MODELS[self.kind](self, seed, shards)
        # One wrapper per non-empty window, slow inside and degraded outside:
        # each is a frame below Network.send, and until ROADMAP item 1 lands
        # that depth decides where a recursion-limited run aborts.
        for names, factor, stall, start, end in (
            (self.slow, self.slow_factor, 0.0, self.slow_start, self.slow_end),
            (self.degraded, self.degraded_factor, self.degraded_stall,
             self.degraded_start, self.degraded_end),
        ):
            if names:
                model = SlowdownLatency(
                    model, expand_process_names(names, shards), factor, start, end,
                    stall,
                )
        return model


@dataclass(frozen=True)
class ClusterSpec(SpecSection):
    """Cluster flavour, size, fault threshold, sharding and initial weights.

    ``flavour`` names an entry of :data:`repro.sim.cluster.FLAVOURS`, the
    one table of storage flavours.  ``n``, ``f`` and ``initial_weights``
    describe one replica group; with ``shards > 1`` that group is the
    *per-shard template* and the deployment runs ``shards`` independent
    copies of it behind a key-hash router (so a sweep over ``cluster.shards``
    scales the key space out without touching any other axis).  ``shards``
    is sweepable like every other field.
    """

    flavour: str = "dynamic-weighted"
    n: int = 5
    f: Optional[int] = None
    client_count: int = 2
    initial_weights: Tuple[Tuple[ProcessId, float], ...] = ()
    shards: int = 1

    _bounds = {
        "flavour": tuple(FLAVOURS), "n": at_least(1), "f": NON_NEGATIVE,
        "client_count": at_least(1), "initial_weights": NON_NEGATIVE,
        "shards": at_least(1),
    }

    def _validate(self, path: str) -> None:
        self.system_config()  # raises the canonical errors without building

    def system_config(self) -> SystemConfig:
        """Build the (per-shard) :class:`SystemConfig` this spec describes."""
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

    def build(self, config: SystemConfig, latency: LatencyModel) -> Cluster:
        """Wire up the deployment: ``shards`` replica groups and their
        clients; one shard is the single register under canonical names."""
        return build_cluster(
            config, self.flavour, latency, self.client_count, self.shards
        )


_KEY_DISTRIBUTIONS: Dict[str, Callable[..., Any]] = {
    "uniform": lambda spec: UniformKeys(spec.space),
    "zipfian": lambda spec: ZipfianKeys(spec.space, s=spec.zipf_s),
    "hotspot": lambda spec: HotspotKeys(
        spec.space,
        hot_fraction=spec.hot_fraction,
        hot_weight=spec.hot_weight,
        offset=spec.offset,
    ),
}


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

    _bounds = {
        "kind": _KEY_DISTRIBUTIONS, "space": at_least(1), "zipf_s": POSITIVE,
        "hot_fraction": LEFT_OPEN_UNIT, "hot_weight": UNIT,
    }

    def build(self) -> KeyDistribution:
        """Construct the configured key-popularity distribution."""
        return _KEY_DISTRIBUTIONS[self.kind](self)


_ARRIVAL_PROCESSES: Dict[str, Callable[..., Any]] = {
    "closed": lambda spec: ClosedLoopArrivals(spec.mean_think_time),
    "poisson": lambda spec: PoissonArrivals(spec.rate),
    "onoff": lambda spec: OnOffArrivals(
        burst_rate=spec.burst_rate,
        burst_length=spec.burst_length,
        idle_time=spec.idle_time,
    ),
}


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

    _bounds = {
        "kind": _ARRIVAL_PROCESSES, "mean_think_time": NON_NEGATIVE,
        "rate": POSITIVE, "burst_rate": POSITIVE, "burst_length": POSITIVE,
        "idle_time": NON_NEGATIVE,
    }

    def build(self) -> ArrivalProcess:
        """Construct the configured arrival process."""
        return _ARRIVAL_PROCESSES[self.kind](self)


@dataclass(frozen=True)
class MixSpec(SpecSection):
    """Read/write ratio and multi-key fan-out of one logical operation."""

    read_ratio: float = 0.5
    keys_per_op: int = 1

    _bounds = {"read_ratio": UNIT, "keys_per_op": at_least(1)}

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

    _bounds = {"at": NON_NEGATIVE}

    def _validate(self, path: str) -> None:
        for entry in self.overrides:
            parts = entry[0].split(".")
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

    _bounds = {"operations_per_client": at_least(1), "trace": NON_EMPTY}

    def _validate(self, path: str) -> None:
        # A phase's axes, its overrides applied, are admitted like the base's.
        for index, phase in enumerate(self.phases):
            try:
                for axis in _PHASE_AXES:
                    getattr(self._overridden(phase), axis).validate(f"{axis}.")
            except ConfigurationError as error:
                error.path = f"{path}phases[{index}].{error.path}"
                raise

    def _overridden(self, phase: "PhaseSpec") -> "WorkloadSpec":
        overridden = self
        for key, value in phase.overrides:
            overridden = _replace_path(overridden, key, key.split("."), value)
        return overridden

    def _phase(self, spec: "PhaseSpec") -> Phase:
        overridden = self._overridden(spec)
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


_POLICIES: Dict[str, Callable[..., Any]] = {
    "inverse-latency": lambda spec: functools.partial(
        proportional_inverse_latency_weights, margin=spec.margin
    ),
    "wheat": lambda spec: functools.partial(
        wheat_style_weights, margin=spec.margin
    ),
}


@dataclass(frozen=True)
class PolicySpec(SpecSection):
    """Which weight-assignment policy closes the monitoring loop, and how.

    ``kind`` selects :func:`~repro.monitoring.policy.
    proportional_inverse_latency_weights` (``inverse-latency``) or
    :func:`~repro.monitoring.policy.wheat_style_weights` (``wheat``);
    ``threshold`` is the controller dead-band (deficits below it are never
    chased) and ``margin`` the RP-Integrity clipping margin.
    """

    kind: str = "inverse-latency"
    threshold: float = 0.05
    margin: float = 0.05

    _bounds = {"kind": _POLICIES, "threshold": POSITIVE, "margin": NON_NEGATIVE}

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
    gain: float = 0.3
    scope: str = "per-shard"
    prober: ProcessId = "mon"

    _bounds = {
        "interval": POSITIVE, "rounds": at_least(1), "window": at_least(1),
        "ewma_alpha": LEFT_OPEN_UNIT, "gain": POSITIVE,
        "scope": MONITORING_SCOPES, "prober": NON_EMPTY,
    }

    def build(self, cluster: Cluster) -> MonitoringHarness:
        """Install the loop(s) on ``cluster`` — the adapter from a cluster to
        the replica groups each monitor covers — and return the harness
        holding the controllers.  At one shard both scopes are the one loop
        under the canonical prober name."""
        shards = cluster.shards
        if self.scope == "global" or len(shards) == 1:
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

    _bounds = {"trace_path": NON_EMPTY}

    def _validate(self, path: str) -> None:
        if self.enabled and not (self.metrics or self.trace):
            raise ConfigurationError(
                "observability.enabled without metrics or trace records nothing; "
                "disable it instead"
            )
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


#: Fault kinds in the order the timeline resolves them at equal times:
#: recoveries before crashes (a same-instant pair leaves the process down),
#: heals before partitions (a window healing as the next one starts cannot
#: tear the new partition down).
RECOVER, CRASH = 0, 1
HEAL, PARTITION = 0, 1

#: ``(at, RECOVER | CRASH, process, dotted path)``.
Fate = Tuple[VirtualTime, int, ProcessId, str]
#: ``(at, HEAL | PARTITION, groups)``; a heal's groups are empty.
Boundary = Tuple[VirtualTime, int, Tuple[Tuple[ProcessId, ...], ...]]


@dataclass(frozen=True)
class OutageSpec(SpecSection):
    """A crash with its matching recovery: ``process`` is down during
    ``[at, until)``; ``until=None`` never recovers."""

    process: ProcessId
    at: VirtualTime
    until: Optional[VirtualTime] = None

    _bounds = {"process": NON_EMPTY, "at": NON_NEGATIVE, "until": NON_NEGATIVE}

    def _validate(self, path: str) -> None:
        if self.until is not None and self.until <= self.at:
            raise ConfigurationError(
                f"outage recovers at until={self.until}, at or before its "
                f"crash at={self.at}",
                path=f"{path}until",
            )


@dataclass(frozen=True)
class PartitionSpec(SpecSection):
    """A partition window: split into ``groups`` at ``at``, heal at ``heal_at``.

    Processes (servers *and* clients) not listed in any group form an
    implicit extra group; on a sharded cluster canonical names expand to
    every shard's instance.  ``heal_at=None`` never heals.  A process sits
    in at most one group of a window.
    """

    at: VirtualTime
    groups: Tuple[Tuple[ProcessId, ...], ...] = ()
    heal_at: Optional[VirtualTime] = None

    _bounds = {"at": NON_NEGATIVE, "heal_at": NON_NEGATIVE}

    def _validate(self, path: str) -> None:
        if self.heal_at is not None and self.heal_at <= self.at:
            raise ConfigurationError(
                f"partition heal_at={self.heal_at} must be after at={self.at}",
                path=f"{path}heal_at",
            )
        if not self.groups or any(not group for group in self.groups):
            raise ConfigurationError(
                "a partition window needs at least one non-empty group"
            )

    def overlaps(self, other: "PartitionSpec") -> bool:
        """Whether two ``[at, heal_at)`` windows are live at the same time.

        :meth:`~repro.net.network.Network.heal` removes *the* partition, so
        two live windows would heal each other.  ``heal_at`` is exclusive: a
        window opening at the previous one's heal instant does not overlap.
        """
        end = float("inf") if self.heal_at is None else self.heal_at
        other_end = float("inf") if other.heal_at is None else other.heal_at
        return self.at < other_end and other.at < end


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

    The section *is* the schedule: :meth:`_timeline` walks it once into
    sorted crash/recover fates and partition boundaries, and validation and
    :meth:`arm` both read that one walk.

    Validation is strict and names the offending dotted path: malformed
    entries, negative times, a recovery scheduled at or before its crash
    (replayed in :meth:`arm` order: recoveries resolve before crashes at
    equal times), a process in two groups of one window and overlapping
    partition windows all raise :class:`~repro.errors.ConfigurationError`
    from :meth:`validate`; :meth:`arm` additionally rejects faults
    targeting processes the built cluster does not have — both run before
    the simulation starts, so a bad schedule can never fail (or silently
    no-op) mid-run.
    """

    crashes: Tuple[Tuple[ProcessId, VirtualTime], ...] = ()
    recoveries: Tuple[Tuple[ProcessId, VirtualTime], ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()
    # Appended after partitions so positional construction of older specs
    # keeps meaning what it meant.
    outages: Tuple[OutageSpec, ...] = ()

    _bounds = {"crashes": NON_NEGATIVE, "recoveries": NON_NEGATIVE}

    def _validate(self, path: str) -> None:
        # Names are compared as given: canonical and qualified names live in
        # different namespaces until the cluster's shard count is known.
        fates, _ = self._timeline()
        down = set()
        for at, kind, process, path in fates:
            if kind == CRASH:
                down.add(process)  # double crash is idempotent, not an error
            elif process in down:
                down.discard(process)
            else:
                # A recovery of an up process would silently no-op mid-run.
                raise ConfigurationError(
                    f"{path} recovers {process!r} at t={at}, but it is not "
                    "down then (recoveries resolve before crashes at equal "
                    "times; schedule the crash strictly earlier)",
                    path=path,
                )
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

    def _timeline(
        self, shards: int = 1, known: Optional[Collection[ProcessId]] = None
    ) -> Tuple[List[Fate], List[Boundary]]:
        """The one walk over the section: its fates and partition boundaries.

        Every name expands per shard (:func:`~repro.storage.sharded.
        expand_process_names`; unchanged at ``shards == 1``), and every
        expanded target must be in ``known`` when it is given.  Fates list
        explicit entries before outages' and are stable-sorted on ``(at,
        kind)``, boundaries likewise: this sort is the one place recoveries
        resolve before crashes, and heals before partitions, at equal times.
        """

        def expand(path: str, names: Tuple[ProcessId, ...]) -> Tuple[ProcessId, ...]:
            pids = expand_process_names(names, shards)
            for pid in pids:
                if known is not None and pid not in known:
                    raise ConfigurationError(
                        f"{path} targets unknown process {pid!r} "
                        f"(known: {', '.join(sorted(known))})",
                        path=path,
                    )
            return pids

        fates: List[Fate] = []
        for label, kind, entries in (("crashes", CRASH, self.crashes),
                                     ("recoveries", RECOVER, self.recoveries)):
            for index, (process, at) in enumerate(entries):
                path = f"faults.{label}[{index}]"
                fates += [(at, kind, pid, path) for pid in expand(path, (process,))]
        for index, outage in enumerate(self.outages):
            path = f"faults.outages[{index}]"
            for pid in expand(path, (outage.process,)):
                fates.append((outage.at, CRASH, pid, path))
                if outage.until is not None:
                    fates.append((outage.until, RECOVER, pid, path))
        boundaries: List[Boundary] = []
        for index, window in enumerate(self.partitions):
            group_of: Dict[ProcessId, int] = {}
            groups = []
            for group_index, group in enumerate(window.groups):
                path = f"faults.partitions[{index}].groups[{group_index}]"
                pids = expand(path, group)
                for pid in pids:
                    if group_of.setdefault(pid, group_index) != group_index:
                        raise ConfigurationError(
                            f"{path} lists {pid!r}, already in "
                            f"groups[{group_of[pid]}] of the same window "
                            "(a process sits in at most one group)",
                            path=path,
                        )
                groups.append(pids)
            boundaries.append((window.at, PARTITION, tuple(groups)))
            if window.heal_at is not None:
                boundaries.append((window.heal_at, HEAL, ()))
        by_time_then_kind = operator.itemgetter(0, 1)
        fates.sort(key=by_time_then_kind)
        boundaries.sort(key=by_time_then_kind)
        return fates, boundaries

    def arm(self, cluster: Cluster) -> None:
        """Check every target against ``cluster``'s network (names expand
        over its shards), then schedule every fault on its loop in timeline
        order: a typo'd node fails before the run, and equal-time faults
        resolve in scheduling order, exactly as validation replays them."""
        loop, network = cluster.loop, cluster.network
        fates, boundaries = self._timeline(len(cluster.shards), network.process_ids())
        for at, kind, pid, _ in fates:
            loop.call_at(at, network.crash if kind == CRASH else network.recover, pid)
        for at, kind, groups in boundaries:
            if kind == PARTITION:
                loop.call_at(at, network.partition, groups)
            else:
                loop.call_at(at, network.heal)


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

    # Algorithm 4's transfer(target, delta) moves a positive amount.
    _bounds = {"at": NON_NEGATIVE, "delta": POSITIVE, "shard": NON_NEGATIVE}


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

    _bounds = {"name": NON_EMPTY, "max_time": POSITIVE}
    _non_sweepable = ("name", "description")
    _aliases = {"failures": "faults"}

    def _validate(self, path: str) -> None:
        flavour = self.cluster.flavour
        for needs, what, where in (
            (self.transfers, "scheduled transfers", "transfers"),
            (self.monitoring.enabled, "monitoring-driven reassignment",
             "monitoring.enabled"),
        ):
            if needs and flavour != "dynamic-weighted":
                raise ConfigurationError(
                    f"{what} require the dynamic-weighted flavour, got "
                    f"{flavour!r}", path=where)
        servers = server_set(self.cluster.n) if self.transfers else ()
        for index, event in enumerate(self.transfers):
            if event.shard >= self.cluster.shards:
                raise ConfigurationError(
                    f"transfer at t={event.at} targets shard {event.shard}, but "
                    f"the cluster has {self.cluster.shards} shard(s)",
                    path=f"transfers[{index}].shard",
                )
            if not (event.source in servers and event.target in servers
                    and event.source != event.target):
                raise ConfigurationError(
                    f"transfer at t={event.at} moves weight from "
                    f"{event.source!r} to {event.target!r}: it needs two "
                    f"different servers of {', '.join(servers)}",
                    path=f"transfers[{index}]",
                )

    def build(self) -> "SpecRun":
        """The world this spec describes, built and ready to run."""
        latency = self.latency.build(seed=self.seed, shards=self.cluster.shards)
        return SpecRun(self, self.cluster.build(self.cluster.system_config(), latency))

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


def load_spec_file(path: str) -> ScenarioSpec:
    """Load a :class:`ScenarioSpec` from a JSON spec file and validate it.

    The file holds exactly the :meth:`ScenarioSpec.to_dict` shape (see
    ``examples/specs/``); unknown keys are rejected, lists become tuples,
    nested sections may use the positional shorthand (``"transfers":
    [[5.0, "s1", "s2", 0.25]]``).
    """
    from repro.experiments.cli import read_spec_file

    return ScenarioSpec.from_dict(read_spec_file(path)).validate()


#: What a catalogue scenario measures of the world and workload it ran.
Measure = Callable[[Cluster, Workload], Dict[str, Any]]


@dataclass
class SpecRun:
    """A spec's built world: :meth:`run` arms and runs it, :meth:`result`
    reports it.  ``tasks`` pairs each scheduled transfer with its task."""

    spec: ScenarioSpec
    cluster: Cluster
    harness: Optional[MonitoringHarness] = None
    workload: Optional[Workload] = None
    report: Optional[RunReport] = None
    tasks: List[Tuple[TransferEvent, SimTask]] = dataclasses.field(default_factory=list)
    transfers: List[Dict[str, Any]] = dataclasses.field(default_factory=list)

    def run(self) -> None:
        """Monitoring installs before the workload generates or any transfer
        task spawns, matching the imperative scenarios' wiring order
        event-for-event; faults arm last, then the workload runs."""
        spec, cluster = self.spec, self.cluster
        if spec.monitoring.enabled:
            self.harness = spec.monitoring.build(cluster)
        self.workload = spec.workload.build(tuple(cluster.clients), seed=spec.seed)
        loop = cluster.loop
        for event in spec.transfers:
            task = loop.create_task(self.transfer(event), name=f"transfer@{event.at}")
            self.tasks.append((event, task))
        spec.faults.arm(cluster)
        self.report = run_workload(cluster, self.workload, max_time=spec.max_time)
        loop.run()  # let trailing transfers / broadcast echoes settle
        for event, task in self.tasks:
            if not task.done():
                self.transfers.append(self._entry(event))

    async def transfer(self, event: TransferEvent) -> None:
        """Run one scheduled transfer and record its entry, error included."""
        if event.at > 0:
            await self.cluster.loop.sleep(event.at)
        # Spec-level transfers name canonical servers (s1); the protocol
        # addresses the target by its name in the shard's group (s1#k).
        server = self.cluster.server(event.shard, event.source)
        target = self.cluster.server(event.shard, event.target).pid
        entry = self._entry(event)
        try:
            outcome = await server.transfer(target, event.delta)
        except Exception as error:  # noqa: BLE001 - reported, never lost
            entry["error"] = f"{type(error).__name__}: {error}"
        else:
            entry["effective"], entry["latency"] = outcome.effective, outcome.latency
        self.transfers.append(entry)

    def _entry(self, event: TransferEvent) -> Dict[str, Any]:
        entry = {"at": event.at, "source": event.source, "target": event.target,
                 "delta": event.delta, "effective": None, "latency": None}
        if len(self.cluster.shards) > 1:
            entry["shard"] = event.shard
        return entry

    def result(self, measure: Optional[Measure] = None) -> Dict[str, Any]:
        """The result dict; ``measure(cluster, workload)`` reads the drained world."""
        spec, cluster, report = self.spec, self.cluster, self.report
        reads, writes = report.read_latency, report.write_latency
        result: Dict[str, Any] = {
            "scenario": spec.name,
            "flavour": report.flavour,
            "seed": spec.seed,
            "duration": report.duration,
            "operations": report.operations,
            "restarts": report.restarts,
            "messages": report.messages_sent,
            "read_latency": None if reads is None else reads.as_dict(),
            "write_latency": None if writes is None else writes.as_dict(),
            "transfers": self.transfers,
            "workload": workload_stats(self.workload),
        }
        if self.harness is not None:
            result["monitoring"] = self.harness.as_dict(report.shards is not None)
        dynamic = cluster.flavour == "dynamic-weighted"
        if report.shards is not None:
            result["shards"] = [summary.as_dict() for summary in report.shards]
            if report.imbalance is not None:
                result["imbalance"] = report.imbalance.as_dict()
            if dynamic:
                result["shard_weights"] = {
                    str(index): float_weights(weights)
                    for index, weights in sorted(cluster.shard_weights().items())
                }
        elif dynamic:
            crashed = cluster.network.is_crashed
            surviving = [pid for pid in cluster.config.servers if not crashed(pid)]
            if surviving:
                result["weights"] = float_weights(
                    cluster.servers[surviving[0]].local_weights()
                )
        if measure is not None:
            result.update(measure(cluster, self.workload))
        return result


def run_spec(spec: ScenarioSpec, measure: Optional[Measure] = None) -> Dict[str, Any]:
    """Execute a declarative scenario and return a JSON-serialisable result.

    The result always carries the latency summaries, message counts, transfer
    outcomes and achieved workload statistics; monitoring-enabled runs add a
    ``monitoring`` block (control rounds, transfers attempted); sharded runs
    (``cluster.shards > 1``) additionally report ``shards`` (per-shard
    load/latency breakdown), ``imbalance`` (hottest-shard share, max/mean
    ratio, load variance) and — for the dynamic-weighted flavour —
    ``shard_weights`` (each shard's independently evolving weight map).
    Every scheduled transfer has one ``transfers`` entry: one whose
    ``transfer`` call raised carries ``"effective": null``, ``"latency":
    null`` and its ``"error"``, and one still running after the settle
    carries the two nulls alone.
    Observability-enabled runs (``observability.enabled``) add ``metrics``
    and/or ``trace`` blocks; with it disabled (the default) the result is
    byte-identical to pre-observability baselines.
    ``measure(cluster, workload)``, if given, runs after the drain, before
    the world closes; its dict is merged into the result.
    """
    spec.validate()
    observer = spec.observability.build()
    if observer is None:
        run = spec.build()
    else:  # SimLoop, Network and ShardedStore capture it when they are built
        with observing(observer):
            run = spec.build()
    # Closing the world once the result is made lets reference counting, not
    # the cyclic collector, free every process and operation record.
    with run.cluster:
        run.run()
        result = run.result(measure)
    if observer is None:
        return result
    if observer.metrics is not None:
        result["metrics"] = observer.metrics.as_dict()
    if observer.trace is not None:
        events = observer.trace.events
        # One record at a time; write_trace returns the digest of its bytes.
        records = map(TraceEvent.as_record, events)
        path = spec.observability.trace_path
        result["trace"] = {
            "records": len(events),
            "digest": write_trace(records, path) if path else trace_digest(records),
        }
    return result
