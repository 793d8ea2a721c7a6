"""What a finished run leaves the cyclic collector.

Reference counting frees a run's tasks, their failure tracebacks (the frames
of every ``RecursionError`` the weight-gain refresh churn raises) and a judged
run's trace the moment they are done; only the run's own object graph (its
processes, network and loop) is left to the collector.  The census:
automatic collection off, ``gc.DEBUG_SAVEALL``, one collection after the
run, then a count of ``type(o).__name__`` over ``gc.garbage``
(docs/ARCHITECTURE.md, "Who frees a finished task").
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.chaos import run_campaign
from repro.experiments.executor import execute_run, run_with_stable_stack
from repro.experiments.sweep import RunSpec
from repro.net.simloop import SimTask

#: Kinds of object no finished run may leave to the collector.
NONE_LEFT = ("frame", "traceback", "TraceEvent")

RUNS = {
    "quickstart": lambda: run_with_stable_stack(
        execute_run, RunSpec(scenario="quickstart")),
    "skewed-reassignment": lambda: run_with_stable_stack(
        execute_run, RunSpec(scenario="skewed-reassignment")),
    "campaign": lambda: run_campaign("quickstart", sample=2),
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
    RUNS[run]()
    gc.collect()
    census = Counter(type(o).__name__ for o in saved_garbage)
    finished_tasks = sum(
        1 for o in saved_garbage if isinstance(o, SimTask) and o.done()
    )
    left = {kind: census[kind] for kind in NONE_LEFT}
    left["finished SimTask"] = finished_tasks
    assert not any(left.values()), (
        f"{run} left {left} to the collector; "
        f"census: {census.most_common(12)}"
    )
