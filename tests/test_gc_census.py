"""What a finished run leaves the cyclic collector: nothing.

Reference counting frees a run's tasks, their failure tracebacks (the frames
of every ``RecursionError`` the weight-gain refresh churn raises) and a judged
run's trace the moment they are done, and the run's own world (processes,
network, loop, collectors, messages, operation records) the moment the
``with`` that built it closes it.  The census: automatic collection off,
``gc.DEBUG_SAVEALL``, one collection after the run, then a count of
``type(o).__name__`` over ``gc.garbage`` (docs/ARCHITECTURE.md, "Who frees a
finished run").  It walks the registry, so a scenario is censused the day it
is registered.
"""

from __future__ import annotations

import gc
from collections import Counter
from types import FrameType, TracebackType

import pytest

from repro.chaos import run_campaign
from repro.core.storage import OperationRecord
from repro.errors import SimTimeoutError
from repro.experiments.executor import (
    execute_run, execute_run_captured, run_with_stable_stack,
)
from repro.experiments.registry import BUILTIN_FAMILIES
from repro.experiments.spec import ScenarioSpec, run_spec
from repro.experiments.sweep import RunSpec
from repro.net.message import Message
from repro.net.network import Network
from repro.net.process import Process, ResponseCollector
from repro.net.simloop import SimLoop, SimTask
from repro.obs import Observer, observing
from repro.obs.trace import TraceEvent

#: Kinds of object no finished run may leave to the collector.
NONE_LEFT = (
    FrameType, TracebackType, TraceEvent,
    Process, Network, SimLoop, ResponseCollector, Message, OperationRecord,
)

#: ``reassign-churn``'s shape at smoke size: two shards under scheduled
#: transfers, a slowdown and a monitoring loop per shard.
SHARDED_CHURN = {
    "name": "census-sharded-churn",
    "cluster": {
        "flavour": "dynamic-weighted", "n": 5, "f": 1, "client_count": 6,
        "shards": 2,
    },
    "workload": {
        "operations_per_client": 8,
        "keys": {
            "kind": "hotspot", "space": 64, "hot_fraction": 0.125,
            "hot_weight": 0.9,
        },
        "mix": {"read_ratio": 0.3},
    },
    "latency": {
        "kind": "uniform", "low": 0.8, "high": 1.2, "slow": ["s4", "s5"],
        "slow_factor": 6.0, "slow_start": 20.0,
    },
    "monitoring": {
        "enabled": True, "interval": 10.0, "rounds": 4, "scope": "per-shard",
        "policy": {"threshold": 0.2},
    },
    "transfers": [
        [10.0 + 12.0 * step + shard, *pair, 0.3, shard]
        for shard in range(2)
        for step, pair in enumerate([("s1", "s2"), ("s2", "s1"), ("s1", "s2")])
    ],
    "max_time": 100000.0,
}


def _scenario(name):
    return lambda: run_with_stable_stack(execute_run, RunSpec(scenario=name))


#: ``quickstart`` stopped mid-flight by its virtual-time budget.
ABORTED = RunSpec(scenario="quickstart", params=(("max_time", 8.0),))


def _aborted_and_raised():
    with pytest.raises(SimTimeoutError):
        run_with_stable_stack(execute_run, ABORTED)


def _aborted_and_observed():
    with observing(Observer(metrics=False)):
        execute_run_captured(ABORTED)


RUNS = {name: _scenario(name) for name in BUILTIN_FAMILIES}
RUNS["sharded-churn"] = lambda: run_with_stable_stack(
    run_spec, ScenarioSpec.from_dict(SHARDED_CHURN))
RUNS["campaign"] = lambda: run_campaign("quickstart", sample=2)
RUNS["aborted-captured"] = lambda: execute_run_captured(ABORTED)
RUNS["aborted-raised"] = _aborted_and_raised
RUNS["aborted-observed"] = _aborted_and_observed

#: Runs that end with tasks still waiting, by the names of those tasks.  No
#: task registry exists to cancel them, so each stays a cycle with the
#: future it awaits, and keeps its loop (``SimTask._loop``) — closed, so
#: empty.  The crashed issuer's transfer, the deadlocked reconfigurable
#: arm, and the aborted run's two clients and its transfer's target
#: (observed or not: the closed loop they keep has dropped its observer).
#: ``dynamic-storage-adaptation`` leaves none: ``run_spec`` drains the loop
#: after the workload, so its transfer targets' deliveries end inside the
#: run (at the recursion limit, ROADMAP item 1).
UNFINISHED = {
    "epoch-vs-epochless": ["one"],
    "storage-vs-reconfig": ["run"],
    "aborted-captured": ["run_client", "run_client", "s2.deliver"],
    "aborted-raised": ["run_client", "run_client", "s2.deliver"],
    "aborted-observed": ["run_client", "run_client", "s2.deliver"],
}


@pytest.fixture
def saved_garbage():
    """Everything the collector finds unreachable, kept in ``gc.garbage``;
    the collector's state and ``gc.garbage`` are restored afterwards.

    Automatic collections are off until the test's own: garbage one of them
    saved mid-run could still reach the live run, hiding it from the census.
    """
    gc.collect()
    enabled, debug = gc.isenabled(), gc.get_debug()
    garbage = gc.garbage[:]
    del gc.garbage[:]
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    yield gc.garbage
    gc.set_debug(debug)
    gc.garbage[:] = garbage
    if enabled:
        gc.enable()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_a_finished_run_leaves_no_frame_trace_or_task(saved_garbage, run):
    # pytest lets go of the previous test's failure (an xfail's too:
    # ``sys.last_value`` and its traceback's frames) as this test's call
    # phase starts, after the fixture's collection.  Free that now, so the
    # census counts what the run leaves and nothing from before it.
    gc.set_debug(0)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    RUNS[run]()
    gc.collect()
    census = Counter(type(o).__name__ for o in saved_garbage)
    left = {
        kind.__name__: sum(1 for o in saved_garbage if isinstance(o, kind))
        for kind in NONE_LEFT
    }
    left["finished SimTask"] = sum(
        1 for o in saved_garbage if isinstance(o, SimTask) and o.done()
    )
    unfinished = {
        id(o): o.name for o in saved_garbage
        if isinstance(o, SimTask) and not o.done()
    }
    # An unfinished task's loop, closed and so empty, is the task's to keep.
    held = {id(o._loop) for o in saved_garbage if id(o) in unfinished}
    left["SimLoop"] = sum(
        1 for o in saved_garbage
        if isinstance(o, SimLoop) and (id(o) not in held or o.pending_event_count())
    )
    assert sorted(unfinished.values()) == UNFINISHED.get(run, [])
    assert not any(left.values()), (
        f"{run} left {left} to the collector; "
        f"census: {census.most_common(12)}"
    )
