"""Deterministic virtual-time coroutine scheduler.

The protocols in this library are written as ``async`` coroutines, just like
the paper's pseudo-code is written with ``wait until`` statements.  Instead of
running them on ``asyncio`` against wall-clock time, they run on
:class:`SimLoop`: a small, fully deterministic event loop with a *virtual*
clock.

Determinism is the property the whole test-suite and benchmark harness lean
on: two runs with the same seed and the same inputs produce exactly the same
interleaving, the same message orderings, and the same results.  Determinism
comes from two rules:

1. every wake-up (timer expiry, future resolution, message delivery) is an
   event keyed by ``(virtual_time, sequence_number)``, where the sequence
   number is a global insertion counter — ties are broken FIFO; and
2. the kernel itself never consults a random source; randomness only enters
   through explicitly seeded latency models.

Internally the loop keeps *two* event stores with one logical ordering: a
heap for future-time events and a FIFO *ready deque* for events scheduled at
the current virtual time (task steps, zero-delay callbacks, message
deliveries under zero latency).  Ready events carry the same global sequence
numbers as heap events, and the dispatcher always runs whichever store holds
the lower ``(time, sequence)`` key, so the observable order is exactly the
order the single heap used to produce — the deque merely turns the common
same-time case from two O(log n) heap operations into O(1) append/popleft.
See ``docs/ARCHITECTURE.md`` ("Performance") for the full hot-path map.

The public surface mirrors a tiny subset of ``asyncio``:

* :class:`SimFuture` — an awaitable, single-assignment result cell.
* :class:`SimTask` — a future driving a coroutine.
* :class:`SimLoop` — ``create_task`` / ``call_later`` / ``sleep`` /
  ``run_until_complete`` / ``run`` with virtual time.
* :func:`gather`, :class:`Event`, :class:`Queue` — the small amount of
  synchronisation machinery the protocols need.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (
    Any,
    Awaitable,
    Callable,
    Coroutine,
    Deque,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.errors import DeadlockError, SimTimeoutError, SimulationError
from repro.obs.observer import current_observer
from repro.types import VirtualTime

__all__ = [
    "SimFuture",
    "SimTask",
    "SimLoop",
    "Event",
    "Queue",
    "gather",
]

_PENDING = "PENDING"
_RESOLVED = "RESOLVED"
_FAILED = "FAILED"
_CANCELLED = "CANCELLED"


class SimFuture:
    """A single-assignment result cell that coroutines can ``await``.

    Unlike ``asyncio.Future`` it is not tied to a thread or a running loop;
    the loop merely schedules the callbacks registered through
    :meth:`add_done_callback`.
    """

    __slots__ = ("_state", "_result", "_exception", "_callbacks", "name")

    def __init__(self, name: str = "") -> None:
        self._state = _PENDING
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["SimFuture"], None]] = []
        #: Optional human-readable label, used only in error messages.
        self.name = name

    # -- state inspection -------------------------------------------------
    def done(self) -> bool:
        """True once the future holds a result, an exception, or was cancelled."""
        return self._state != _PENDING

    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    def result(self) -> Any:
        """Return the result, raising if the future failed or is still pending."""
        if self._state == _RESOLVED:
            return self._result
        if self._state == _FAILED:
            assert self._exception is not None
            raise self._exception
        if self._state == _CANCELLED:
            raise SimulationError(f"future {self.name or id(self)} was cancelled")
        raise SimulationError(f"future {self.name or id(self)} is not done yet")

    def exception(self) -> Optional[BaseException]:
        if not self.done():
            raise SimulationError("future is not done yet")
        return self._exception

    # -- completion --------------------------------------------------------
    def set_result(self, value: Any) -> None:
        if self._state != _PENDING:
            self._require_pending()
        self._state = _RESOLVED
        self._result = value
        self._run_callbacks()

    def set_exception(self, exc: BaseException) -> None:
        self._require_pending()
        self._state = _FAILED
        self._exception = exc
        self._run_callbacks()

    def cancel(self) -> bool:
        """Cancel the future.  Returns False if it already completed."""
        if self.done():
            return False
        self._state = _CANCELLED
        self._exception = SimulationError(
            f"future {self.name or id(self)} was cancelled"
        )
        self._run_callbacks()
        return True

    def _require_pending(self) -> None:
        if self.done():
            raise SimulationError(
                f"future {self.name or id(self)} resolved twice"
            )

    def _run_callbacks(self) -> None:
        callbacks = self._callbacks
        if not callbacks:
            return
        self._callbacks = []
        for callback in callbacks:
            callback(self)

    def add_done_callback(self, callback: Callable[["SimFuture"], None]) -> None:
        """Register ``callback(self)`` to run when the future completes.

        If the future is already done the callback runs immediately; the
        kernel only ever registers callbacks that re-enter the scheduler, so
        immediate invocation keeps the event ordering intact.
        """
        if self.done():
            callback(self)
        else:
            self._callbacks.append(callback)

    def remove_done_callback(self, callback: Callable[["SimFuture"], None]) -> int:
        """Deregister every pending occurrence of ``callback``; return the count.

        Used by :meth:`SimTask.cancel` to detach a dead task from the future
        it was awaiting, so the future does not keep the task alive or invoke
        its step machinery after cancellation.
        """
        before = len(self._callbacks)
        self._callbacks = [cb for cb in self._callbacks if cb != callback]
        return before - len(self._callbacks)

    # -- awaitable protocol --------------------------------------------------
    def __await__(self) -> Generator["SimFuture", None, Any]:
        if not self.done():
            try:
                yield self
            except BaseException:  # thrown in by the awaiting task
                self = None  # the traceback keeps this frame, not the future
                raise
        return self.result()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimFuture {self.name or hex(id(self))} {self._state}>"


class SimTask(SimFuture):
    """A future that drives a coroutine to completion on a :class:`SimLoop`."""

    __slots__ = ("_coro", "_loop", "_waiting_on")

    def __init__(
        self,
        coro: Coroutine[Any, Any, Any],
        loop: "SimLoop",
        name: str = "",
    ) -> None:
        super().__init__(name=name or getattr(coro, "__name__", "task"))
        self._coro = coro
        self._loop = loop
        self._waiting_on: Optional[SimFuture] = None

    def _step(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        if self._state != _PENDING:  # done(), without the call
            return
        self._waiting_on = None
        try:
            if exc is not None:
                awaited = self._coro.throw(exc)
            else:
                awaited = self._coro.send(value)
        except StopIteration as stop:
            self.set_result(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - propagate via future
            self.set_exception(error)
            self = exc = None  # the traceback keeps this frame, not the task
            return

        if not isinstance(awaited, SimFuture):
            self.set_exception(
                SimulationError(
                    f"task {self.name} awaited a non-SimFuture object: {awaited!r}"
                )
            )
            return

        self._waiting_on = awaited
        awaited.add_done_callback(self._on_awaited_done)

    def _on_awaited_done(self, future: SimFuture) -> None:
        if self._state != _PENDING:
            return
        # Done-callbacks only fire on completed futures, so the state fields
        # are directly readable: _exception is set on failure *and* on
        # cancellation (matching exception()/result() semantics).
        error = future._exception
        if error is not None:
            self._loop._schedule_step(self, None, error)
        else:
            self._loop._schedule_step(self, future._result, None)

    def cancel(self) -> bool:
        """Cancel the task, throwing ``GeneratorExit`` into the coroutine.

        Detaches from whatever future the task was awaiting: leaving the
        done-callback registered would have the awaited future later fire
        ``_on_awaited_done`` into a dead task (a leak, and an extra callback
        on every late reply).
        """
        if self.done():
            return False
        if self._waiting_on is not None:
            self._waiting_on.remove_done_callback(self._on_awaited_done)
            self._waiting_on = None
        self._coro.close()
        return super().cancel()


def _finish_sleep(future: SimFuture) -> None:
    """Resolve a sleep future (module-level to avoid a closure per sleep)."""
    if not future.done():
        future.set_result(None)


class SimLoop:
    """The deterministic virtual-time event loop.

    All state transitions happen by draining events in ``(time, sequence)``
    order.  :class:`repro.net.network.Network` and the timer helpers below
    only ever enqueue events through :meth:`call_at`, so the global order of
    the simulation is exactly the order of that key.

    Two stores back the single logical queue: future-time events live in a
    heap, while events scheduled *at the current time* — task steps,
    zero-delay callbacks — go to a FIFO ready deque and bypass the heap
    entirely.  Every ready entry's time is the loop's current time (time
    cannot advance while the deque is non-empty, because any later-time heap
    event sorts after it), so comparing the heap top against the deque head
    only needs the sequence numbers.  Events are plain
    ``(when, seq, callback, args)`` tuples; argument tuples replace the
    per-event lambda closures the hot paths used to allocate.
    """

    #: Process-wide total of events dispatched across every loop instance.
    #: Deterministic like the per-loop counter; lets harnesses meter kernel
    #: work that spans many loops (e.g. a sweep running one loop per run).
    total_events_processed = 0

    def __init__(self) -> None:
        self._now: VirtualTime = 0.0
        self._sequence = 0
        self._events: List[Tuple[VirtualTime, int, Callable[..., None], tuple]] = []
        self._ready: Deque[Tuple[int, Callable[..., None], tuple]] = deque()
        #: Total events dispatched over the loop's lifetime (a deterministic
        #: counter: same run -> same count; the bench harness reports it).
        self.events_processed = 0
        #: Ambient observer captured at construction (None = observability
        #: off); :meth:`_dispatch` reports its counters to it.
        self.obs = current_observer()

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> VirtualTime:
        """Current virtual time."""
        return self._now

    # -- scheduling primitives ------------------------------------------------
    def call_at(
        self, when: VirtualTime, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at virtual time ``when`` (>= now)."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {when} < now={self._now}"
            )
        self._sequence += 1
        if when == self._now:
            self._ready.append((self._sequence, callback, args))
        else:
            heapq.heappush(self._events, (when, self._sequence, callback, args))

    def call_later(
        self, delay: VirtualTime, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` after ``delay`` units of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.call_at(self._now + delay, callback, *args)

    def create_task(
        self, coro: Coroutine[Any, Any, Any], name: str = ""
    ) -> SimTask:
        """Wrap a coroutine into a task and schedule its first step."""
        task = SimTask(coro, self, name=name)
        self._schedule_step(task, None, None)
        return task

    def _schedule_step(
        self, task: SimTask, value: Any, exc: Optional[BaseException]
    ) -> None:
        # Task steps always run "now": append straight to the ready deque.
        self._sequence += 1
        self._ready.append((self._sequence, task._step, (value, exc)))

    # -- timers ---------------------------------------------------------------
    def sleep(self, delay: VirtualTime) -> SimFuture:
        """Return a future that resolves after ``delay`` virtual time units."""
        future = SimFuture(name="sleep")
        self.call_later(delay, _finish_sleep, future)
        return future

    def timeout(self, future: SimFuture, delay: VirtualTime) -> SimFuture:
        """Wrap ``future`` with a virtual-time timeout.

        The returned future resolves with ``future``'s result, or fails with
        :class:`~repro.errors.SimTimeoutError` if ``delay`` elapses first.
        """
        wrapped = SimFuture(name=f"timeout({future.name}, {delay})")

        def on_done(inner: SimFuture) -> None:
            if wrapped.done():
                return
            error = inner.exception()
            if error is not None:
                wrapped.set_exception(error)
            else:
                wrapped.set_result(inner.result())

        def on_expire() -> None:
            if not wrapped.done():
                wrapped.set_exception(
                    SimTimeoutError(
                        f"timed out after {delay} waiting for {future.name}"
                    )
                )

        future.add_done_callback(on_done)
        self.call_later(delay, on_expire)
        return wrapped

    # -- running ---------------------------------------------------------------
    def run_until_complete(
        self,
        awaitable: Any,
        max_time: Optional[VirtualTime] = None,
    ) -> Any:
        """Drive the loop until ``awaitable`` completes and return its result.

        ``awaitable`` may be a coroutine (it is wrapped into a task) or an
        existing :class:`SimFuture`.  If the event queue drains before the
        awaitable completes a :class:`~repro.errors.DeadlockError` is raised:
        in a deterministic simulation "no more events" means no further
        progress is possible.  ``max_time`` bounds the virtual time the run
        may consume, raising :class:`~repro.errors.SimTimeoutError` past it.
        """
        if isinstance(awaitable, SimFuture):
            target = awaitable
        else:
            target = self.create_task(awaitable)
        self._dispatch(target, max_time)
        return target.result()

    def run(self, until: Optional[VirtualTime] = None) -> VirtualTime:
        """Drain events, optionally only up to virtual time ``until``.

        Returns the virtual time at which the loop stopped.  Unlike
        :meth:`run_until_complete` this never raises on an empty queue — it
        is the natural way to "let the system settle".
        """
        self._dispatch(None, until)
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _dispatch(
        self, target: Optional[SimFuture], horizon: Optional[VirtualTime]
    ) -> None:
        """The one dispatch loop: pop events in ``(time, sequence)`` order.

        Runs until ``target`` is done, raising on an empty queue or a next
        event past ``horizon``; with ``target=None`` (drain mode) it stops
        quietly at either, clamping the clock to ``horizon``.  Keep it
        exactly one frame below its two callers: recursion-limited runs
        abort at a depth that counts this frame, and the committed chaos
        campaign pins their traces (``docs/ARCHITECTURE.md``, "Performance").
        """
        # The hot path of every run: the stores are bound once, the budget
        # check only runs on heap dispatches (ready events run at `now`,
        # which already passed it), and queue depth — a len() pair per
        # event — is only tracked when observed.
        obs = self.obs
        observed = obs is not None
        events = self._events
        ready = self._ready
        heappop = heapq.heappop
        processed = 0
        heap_hits = 0
        max_depth = 0
        try:
            # target._state is only ever rebound to the module-level state
            # constants, so the string comparison is an identity fast path.
            while target is None or target._state == _PENDING:
                if observed:
                    depth = len(events) + len(ready)
                    if depth > max_depth:
                        max_depth = depth
                if ready and (
                    not events
                    or events[0][0] > self._now
                    or events[0][1] > ready[0][0]
                ):
                    _seq, callback, args = ready.popleft()
                elif not events:
                    if target is None:
                        break
                    raise DeadlockError(
                        f"simulation deadlocked at t={self._now}: "
                        f"no pending events but {target.name!r} is not done"
                    )
                else:
                    when = events[0][0]
                    if horizon is not None and when > horizon:
                        if target is None:
                            self._now = horizon
                            break
                        raise SimTimeoutError(
                            f"virtual-time budget {horizon} exhausted "
                            f"(next event at {when})"
                        )
                    when, _seq, callback, args = heappop(events)
                    self._now = when
                    heap_hits += 1
                processed += 1
                callback(*args)
        finally:
            callback = args = None  # a traceback may keep this frame
            self.events_processed += processed
            SimLoop.total_events_processed += processed
            if observed:
                obs.kernel_run(processed - heap_hits, heap_hits, max_depth)

    def pending_event_count(self) -> int:
        """Number of not-yet-processed events (useful for tests)."""
        return len(self._events) + len(self._ready)


# ---------------------------------------------------------------------------
# Synchronisation helpers built on SimFuture
# ---------------------------------------------------------------------------


def gather(loop: SimLoop, awaitables: Iterable[Awaitable[Any]]) -> SimFuture:
    """Run several coroutines/futures concurrently; resolve with their results.

    The combined future resolves with a list of results in input order once
    every child is done, or fails with the first exception raised.
    """
    children: List[SimFuture] = []
    for awaitable in awaitables:
        if isinstance(awaitable, SimFuture):
            children.append(awaitable)
        else:
            children.append(loop.create_task(awaitable))

    combined = SimFuture(name="gather")
    if not children:
        combined.set_result([])
        return combined

    remaining = {"count": len(children)}

    def on_child_done(child: SimFuture) -> None:
        if combined.done():
            return
        error = child.exception()
        if error is not None:
            combined.set_exception(error)
            return
        remaining["count"] -= 1
        if remaining["count"] == 0:
            combined.set_result([c.result() for c in children])

    for child in children:
        child.add_done_callback(on_child_done)
    return combined


class Event:
    """A level-triggered event: tasks await :meth:`wait` until :meth:`set`."""

    def __init__(self, name: str = "event") -> None:
        self._name = name
        self._is_set = False
        self._waiters: Deque[SimFuture] = deque()

    def is_set(self) -> bool:
        return self._is_set

    def set(self) -> None:
        """Mark the event as set and wake every waiter."""
        self._is_set = True
        waiters, self._waiters = self._waiters, deque()
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    def clear(self) -> None:
        self._is_set = False

    def wait(self) -> SimFuture:
        """Return a future resolved when (or as soon as) the event is set."""
        future = SimFuture(name=f"{self._name}.wait")
        if self._is_set:
            future.set_result(None)
        else:
            self._waiters.append(future)
        return future


class Queue:
    """An unbounded FIFO queue usable from coroutines (``await queue.get()``)."""

    def __init__(self, name: str = "queue") -> None:
        self._name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimFuture] = deque()

    def put(self, item: Any) -> None:
        """Enqueue ``item``, waking the oldest waiting getter if any."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter.done():
                getter.set_result(item)
                return
        self._items.append(item)

    def get(self) -> SimFuture:
        """Return a future resolving with the next item (FIFO order)."""
        future = SimFuture(name=f"{self._name}.get")
        if self._items:
            future.set_result(self._items.popleft())
        else:
            self._getters.append(future)
        return future

    def __len__(self) -> int:
        return len(self._items)

    def empty(self) -> bool:
        return not self._items
