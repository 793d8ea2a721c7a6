"""Fault-schedule edge cases, end to end.

Satellite of the chaos-campaign PR: the schedules a fault-space search is
most likely to sample — a crash at the very first instant, a redundant
double crash, a recovery landing inside an open partition window — must
run deterministically and leave invariant-clean traces, and the schedules
the engine refuses (overlapping partition windows) must be refused at
build time, not mid-run.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import SystemConfig
from repro.errors import ConfigurationError
from repro.experiments.spec import (
    ClusterSpec,
    FaultSpec,
    ObservabilitySpec,
    PartitionSpec,
    ScenarioSpec,
    WorkloadSpec,
    run_spec,
)
from repro.obs import read_trace
from repro.obs.analysis import check_trace_invariants
from repro.sim.cluster import build_dynamic_cluster

#: n=5 static-majority: any 3 servers form a quorum, so one faulted server
#: (f=1) never blocks progress and the runs below always terminate.
MIN_QUORUM = 3


def make_spec(name: str, faults: FaultSpec) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        cluster=ClusterSpec(flavour="static-majority", n=5, f=1,
                            client_count=2),
        workload=WorkloadSpec(operations_per_client=6),
        faults=faults,
        seed=7,
    )


def run_traced(spec: ScenarioSpec, tmp_path, label: str):
    trace_path = str(tmp_path / f"{label}.jsonl")
    import dataclasses

    traced = dataclasses.replace(
        spec,
        observability=ObservabilitySpec(enabled=True, trace_path=trace_path),
    )
    result = run_spec(traced)
    return result, read_trace(trace_path)


class TestEdgeCaseSchedules:
    """The awkward-but-legal schedules run clean and deterministically."""

    @pytest.mark.parametrize("label,faults", [
        ("crash-at-zero", FaultSpec(crashes=(("s3", 0.0),))),
        ("double-crash", FaultSpec(crashes=(("s2", 1.0), ("s2", 3.0)))),
        ("recover-in-partition", FaultSpec(
            crashes=(("s2", 2.0),),
            recoveries=(("s2", 8.0),),
            partitions=(PartitionSpec(at=4.0, groups=(("s5",),),
                                      heal_at=12.0),),
        )),
        ("outage-window", FaultSpec(outages=(("s4", 2.0, 10.0),))),
    ])
    def test_runs_deterministically_with_clean_trace(
        self, tmp_path, label, faults
    ):
        spec = make_spec(label, faults)

        first, first_trace = run_traced(spec, tmp_path, f"{label}-a")
        second, second_trace = run_traced(spec, tmp_path, f"{label}-b")
        assert first == second
        assert first_trace == second_trace

        report = check_trace_invariants(first_trace, min_quorum=MIN_QUORUM)
        assert report.ok, [f.message for f in report.errors]
        assert first["operations"] == 12

    def test_crash_at_zero_excludes_the_server_from_the_start(self, tmp_path):
        spec = make_spec("crash-at-zero", FaultSpec(crashes=(("s3", 0.0),)))
        _, trace = run_traced(spec, tmp_path, "zero")
        # A server down from t=0 never joins a quorum.
        for record in trace:
            if record.get("kind") == "quorum":
                assert "s3" not in (record.get("fields") or {}).get(
                    "members", ()
                )

    def test_double_crash_equals_single_crash(self):
        # The redundant crash is injection bookkeeping (it shows up in the
        # trace and the fault counters); the workload cannot tell the two
        # schedules apart.
        once = make_spec("once", FaultSpec(crashes=(("s2", 1.0),)))
        twice = make_spec("once",  # same name: results embed the spec name
                          FaultSpec(crashes=(("s2", 1.0), ("s2", 3.0))))
        assert run_spec(once) == run_spec(twice)


class TestRejectedSchedules:
    """Impossible schedules fail before the simulation starts."""

    def test_overlapping_partition_windows_rejected(self):
        spec = make_spec("overlap", FaultSpec(partitions=(
            PartitionSpec(at=2.0, groups=(("s4",),), heal_at=8.0),
            PartitionSpec(at=6.0, groups=(("s5",),), heal_at=10.0),
        )))
        with pytest.raises(ConfigurationError, match="overlap"):
            run_spec(spec)

    def test_back_to_back_partition_windows_are_not_overlapping(
        self, tmp_path
    ):
        # heal_at is exclusive: a window starting exactly at the previous
        # heal instant is sequential, not concurrent.
        spec = make_spec("sequential", FaultSpec(partitions=(
            PartitionSpec(at=2.0, groups=(("s4",),), heal_at=6.0),
            PartitionSpec(at=6.0, groups=(("s5",),), heal_at=10.0),
        )))
        result, trace = run_traced(spec, tmp_path, "sequential")
        assert result["operations"] == 12
        report = check_trace_invariants(trace, min_quorum=MIN_QUORUM)
        assert report.ok, [f.message for f in report.errors]

    def test_recovery_before_partition_crash_rejected(self):
        spec = make_spec("bad", FaultSpec(
            crashes=(("s2", 8.0),), recoveries=(("s2", 2.0),)
        ))
        with pytest.raises(ConfigurationError, match="not down then"):
            run_spec(spec)


#: Times on a 0.5 grid in [0, 4], targets among a 3-server world's servers.
TIMES = st.integers(0, 8).map(lambda step: step / 2)
SERVERS = st.sampled_from(("s1", "s2", "s3"))
SCHEDULES = st.builds(
    FaultSpec,
    crashes=st.lists(st.tuples(SERVERS, TIMES), max_size=3).map(tuple),
    recoveries=st.lists(st.tuples(SERVERS, TIMES), max_size=3).map(tuple),
    outages=st.lists(
        st.tuples(SERVERS, TIMES, st.none() | TIMES), max_size=2
    ).map(tuple),
)


class TestValidationAgreesWithArming:
    """validate() refuses a recovery exactly when the armed run would apply
    it to a process that is up: the check and the run read one timeline."""

    @settings(max_examples=150, deadline=None)
    @given(faults=SCHEDULES)
    def test_accepted_iff_every_armed_recovery_lands_on_a_down_process(
        self, faults
    ):
        try:
            faults.validate()
        except ConfigurationError:
            accepted = False
        else:
            accepted = True
        recovered_while_up = []
        with build_dynamic_cluster(SystemConfig.uniform(3, f=1)) as cluster:
            network = cluster.network
            recover = network.recover

            def spy(pid):
                if not network.is_crashed(pid):
                    recovered_while_up.append(pid)
                recover(pid)

            with mock.patch.object(network, "recover", spy):
                faults.arm(cluster)
                cluster.loop.run()
        # An outage also checks its own window: it recovers after it crashes.
        windows_ok = all(
            outage.until is None or outage.until > outage.at
            for outage in faults.outages
        )
        assert accepted == (windows_ok and not recovered_while_up)
