"""Unit tests for the deterministic virtual-time scheduler."""

from __future__ import annotations

import gc
import types
import weakref

import pytest

from repro.errors import DeadlockError, SimTimeoutError, SimulationError
from repro.net import simloop
from repro.net.simloop import SimFuture, SimLoop, SimTask, gather
from tests.conftest import pending_events


class TestSimFuture:
    def test_initially_pending(self):
        future = SimFuture()
        assert not future.done()

    def test_set_result_makes_done(self):
        future = SimFuture()
        future.set_result(42)
        assert future.done()
        assert future.result() == 42

    def test_set_exception_propagates_on_result(self):
        future = SimFuture()
        future.set_exception(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            future.result()

    def test_result_before_done_raises(self):
        with pytest.raises(SimulationError):
            SimFuture().result()

    def test_double_resolution_rejected(self):
        future = SimFuture()
        future.set_result(1)
        with pytest.raises(SimulationError):
            future.set_result(2)

    def test_cancel_pending_future(self):
        future = SimFuture()
        assert future.cancel()
        assert future.cancelled()
        with pytest.raises(SimulationError):
            future.result()

    def test_cancel_after_completion_is_noop(self):
        future = SimFuture()
        future.set_result(1)
        assert not future.cancel()
        assert future.result() == 1

    def test_done_callback_runs_immediately_when_already_done(self):
        future = SimFuture()
        future.set_result("x")
        seen = []
        future.add_done_callback(lambda f: seen.append(f.result()))
        assert seen == ["x"]

    def test_done_callback_runs_on_completion(self):
        future = SimFuture()
        seen = []
        future.add_done_callback(lambda f: seen.append(f.result()))
        assert seen == []
        future.set_result(7)
        assert seen == [7]

    def test_exception_accessor_requires_done(self):
        with pytest.raises(SimulationError):
            SimFuture().exception()


class TestSimLoopBasics:
    def test_time_starts_at_zero(self):
        assert SimLoop().now == 0.0

    def test_run_until_complete_returns_coroutine_result(self):
        loop = SimLoop()

        async def work():
            return "done"

        assert loop.run_until_complete(work()) == "done"

    def test_sleep_advances_virtual_time(self):
        loop = SimLoop()

        async def work():
            await loop.sleep(5.0)
            return loop.now

        assert loop.run_until_complete(work()) == 5.0

    def test_nested_sleeps_accumulate(self):
        loop = SimLoop()

        async def work():
            await loop.sleep(1.5)
            await loop.sleep(2.5)
            return loop.now

        assert loop.run_until_complete(work()) == 4.0

    def test_call_later_executes_in_order(self):
        loop = SimLoop()
        seen = []
        loop.call_later(3.0, lambda: seen.append("late"))
        loop.call_later(1.0, lambda: seen.append("early"))
        loop.run()
        assert seen == ["early", "late"]

    def test_same_time_events_fifo(self):
        loop = SimLoop()
        seen = []
        for index in range(10):
            loop.call_later(1.0, lambda i=index: seen.append(i))
        loop.run()
        assert seen == list(range(10))

    def test_call_at_in_the_past_rejected(self):
        loop = SimLoop()
        loop.call_later(2.0, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.call_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimLoop().call_later(-1.0, lambda: None)

    def test_exception_in_task_propagates(self):
        loop = SimLoop()

        async def broken():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError, match="nope"):
            loop.run_until_complete(broken())

    def test_deadlock_detection(self):
        loop = SimLoop()
        never = SimFuture()

        async def waiter():
            await never

        with pytest.raises(DeadlockError):
            loop.run_until_complete(waiter())

    def test_max_time_budget(self):
        loop = SimLoop()

        async def slow():
            await loop.sleep(100.0)

        with pytest.raises(SimTimeoutError):
            loop.run_until_complete(slow(), max_time=10.0)

    def test_run_until_bound_stops_at_bound(self):
        loop = SimLoop()
        seen = []
        loop.call_later(5.0, lambda: seen.append("a"))
        loop.call_later(50.0, lambda: seen.append("b"))
        assert loop.run(until=10.0) == 10.0
        assert seen == ["a"]

    def test_run_drains_everything_without_bound(self):
        loop = SimLoop()
        seen = []
        loop.call_later(5.0, lambda: seen.append("a"))
        loop.call_later(50.0, lambda: seen.append("b"))
        loop.run()
        assert seen == ["a", "b"]

    def test_awaiting_non_future_fails_cleanly(self):
        loop = SimLoop()

        async def broken():
            await 42  # type: ignore[misc]

        with pytest.raises((SimulationError, TypeError)):
            loop.run_until_complete(broken())

    def test_call_later_queues_one_event_each(self):
        loop = SimLoop()
        loop.call_later(1.0, lambda: None)
        loop.call_later(2.0, lambda: None)
        assert pending_events(loop) == 2
        loop.run()
        assert pending_events(loop) == 0


class TestClosingTheLoop:
    """``close()`` drops the queued events; a task that never started has its
    coroutine closed (no "never awaited" warning), a suspended one is left
    alone, so its ``finally`` does not run after the run."""

    def test_a_task_that_never_started_is_closed_without_a_warning(self):
        import warnings

        loop = SimLoop()
        ran = []

        async def body():
            ran.append("body")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loop.create_task(body())
            loop.close()
            gc.collect()
        assert [str(warning.message) for warning in caught] == []
        assert ran == [] and pending_events(loop) == 0

    def test_a_suspended_task_keeps_its_finally_unrun(self):
        loop = SimLoop()
        ran = []
        future = SimFuture(name="gate")

        async def body():
            try:
                await future
            finally:
                ran.append("finally")

        task = loop.create_task(body())
        loop.run()
        future.set_result(None)  # queues the suspended task's next step
        assert pending_events(loop) == 1
        loop.close()
        assert ran == [] and not task.done()


class TestTimeout:
    def test_timeout_fires_when_future_is_slow(self):
        loop = SimLoop()
        never = SimFuture()

        async def work():
            await loop.timeout(never, 5.0)

        with pytest.raises(SimTimeoutError):
            loop.run_until_complete(work())

    def test_timeout_passes_through_result(self):
        loop = SimLoop()
        future = SimFuture()
        loop.call_later(1.0, lambda: future.set_result("ok"))

        async def work():
            return await loop.timeout(future, 5.0)

        assert loop.run_until_complete(work()) == "ok"


class TestGather:
    def test_gather_collects_in_input_order(self):
        loop = SimLoop()

        async def job(delay, tag):
            await loop.sleep(delay)
            return tag

        result = loop.run_until_complete(
            gather(loop, [job(3, "a"), job(1, "b"), job(2, "c")])
        )
        assert result == ["a", "b", "c"]

    def test_gather_empty(self):
        loop = SimLoop()
        assert loop.run_until_complete(gather(loop, [])) == []

    def test_gather_propagates_first_exception(self):
        loop = SimLoop()

        async def ok():
            await loop.sleep(1)
            return 1

        async def bad():
            raise ValueError("broken child")

        with pytest.raises(ValueError, match="broken child"):
            loop.run_until_complete(gather(loop, [ok(), bad()]))

    def test_gather_runs_children_concurrently(self):
        loop = SimLoop()

        async def job():
            await loop.sleep(10.0)

        loop.run_until_complete(gather(loop, [job() for _ in range(5)]))
        # Concurrent, not sequential: total virtual time is one sleep, not five.
        assert loop.now == 10.0


class TestAwaitingAFuture:
    """A future is the loop's one hand-off: it wakes whoever awaits it."""

    def test_a_future_wakes_every_waiter(self):
        loop = SimLoop()
        future = SimFuture()
        woken = []

        async def waiter(tag):
            await future
            woken.append((tag, loop.now))

        for tag in range(3):
            loop.create_task(waiter(tag))
        loop.call_later(2.0, lambda: future.set_result(None))
        loop.run()
        assert sorted(woken) == [(0, 2.0), (1, 2.0), (2, 2.0)]

    def test_awaiting_a_resolved_future_takes_no_time(self):
        loop = SimLoop()
        future = SimFuture()
        future.set_result("ready")

        async def waiter():
            return await future, loop.now

        assert loop.run_until_complete(waiter()) == ("ready", 0.0)

    def test_a_waiter_resumes_when_the_future_is_set(self):
        loop = SimLoop()
        future = SimFuture()

        async def consumer():
            return await future

        loop.call_later(4.0, lambda: future.set_result("late"))
        assert loop.run_until_complete(consumer()) == "late"
        assert loop.now == 4.0

    def test_a_failed_future_raises_in_every_waiter(self):
        loop = SimLoop()
        future = SimFuture()
        caught = []

        async def waiter():
            try:
                await future
            except ValueError as exc:
                caught.append(str(exc))

        for _ in range(2):
            loop.create_task(waiter())
        loop.call_later(1.0, lambda: future.set_exception(ValueError("gone")))
        loop.run()
        assert caught == ["gone", "gone"]

    def test_hand_offs_are_taken_in_the_order_awaited(self):
        loop = SimLoop()
        futures = [SimFuture() for _ in range(3)]
        for delay, future, item in zip((3.0, 1.0, 2.0), futures, "abc"):
            loop.call_later(delay, lambda f=future, v=item: f.set_result(v))

        async def drain():
            return [await future for future in futures]

        assert loop.run_until_complete(drain()) == ["a", "b", "c"]
        assert loop.now == 3.0


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            loop = SimLoop()
            trace = []

            async def worker(tag, delay):
                for step in range(3):
                    await loop.sleep(delay)
                    trace.append((loop.now, tag, step))

            for tag in range(4):
                loop.create_task(worker(tag, 1.0 + tag * 0.5))
            loop.run()
            return trace

        assert run_once() == run_once()


class _WeakTask(SimTask):
    """A task a test can hold weakly (``SimTask`` has no ``__weakref__``)."""

    __slots__ = ("__weakref__",)


class _Boom(Exception):
    pass


class _Sentinel:
    pass


@types.coroutine
def _yield_a_plain_value():
    yield 42


@pytest.fixture
def refcounting_only(monkeypatch):
    """The collector off, and ``create_task`` making weakly held tasks."""
    monkeypatch.setattr(simloop, "SimTask", _WeakTask)
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


class TestFinishedTasksFreeThemselves:
    """A finished task, its exception and its coroutine's locals are freed by
    reference counting alone, however the task ended: no object holds a bound
    method of itself, and a frame a traceback keeps lets go of its task."""

    @pytest.mark.parametrize(
        "ending",
        ["returns", "raises", "rethrows", "awaits-non-future", "cancelled"],
    )
    def test_nothing_is_left_to_the_collector(self, refcounting_only, ending):
        loop = SimLoop()
        sentinels = []

        async def failing_child():
            await loop.sleep(1.0)
            raise _Boom("child")

        async def body():
            sentinel = _Sentinel()  # held by this frame only
            sentinels.append(weakref.ref(sentinel))
            if ending == "returns":
                await loop.sleep(1.0)
                return 7
            if ending == "raises":
                await loop.sleep(1.0)
                raise _Boom("body")
            if ending == "rethrows":
                await loop.create_task(failing_child())
            elif ending == "awaits-non-future":
                await _yield_a_plain_value()
            else:
                await SimFuture(name="never")

        task = loop.create_task(body())
        if ending == "cancelled":
            loop.run()
            assert task.cancel()
        loop.run()
        assert task.done()
        refs = {"task": weakref.ref(task), "sentinel": sentinels[0]}
        error = task.exception()
        assert (error is None) == (ending == "returns")
        if error is not None:
            refs["exception"] = weakref.ref(error)
        del task, error
        assert [name for name, ref in refs.items() if ref() is not None] == []
