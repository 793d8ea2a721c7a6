"""An in-memory span recorder, applied from outside the program.

For one traced repetition the benchmark swaps public callables at layer
boundaries (``run_spec``, ``ClusterSpec.build``, ``execute_many`` ...) for
wrappers that record a span — name, start, end, parent id, trace id — and
restores the originals afterwards.  Spans stay in memory and are written as
Chrome ``trace_event`` JSON when the benchmark ends.  A span's *self time*
is its duration minus its children's, so the self times of one thread's
tree sum to its root exactly; what the root keeps for itself is the share
of the repetition no named layer accounts for.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: (owner object, attribute name, span name): ``owner.attribute`` is wrapped.
Target = Tuple[Any, str, str]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace: str
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records spans; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None) -> Iterator[int]:
        """Record ``name`` around the block; a new ``trace`` starts a new tree."""
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, "main")
        if trace is not None:
            parent = None
        with self._lock:
            span_id = next(self._ids)
        stack.append((span_id, trace or inherited))
        started = time.perf_counter()
        try:
            yield span_id
        finally:
            ended = time.perf_counter()
            stack.pop()
            record = Span(span_id, name, started, ended, parent,
                          trace or inherited, threading.get_ident())
            with self._lock:
                self.spans.append(record)

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_thread_hop(self, hop: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Wrap ``hop(fn, *args)``, which runs ``fn`` on another thread and waits.

        The callee's spans are parented under the caller's, which is blocked
        for the whole call — so self-time arithmetic carries across the hop.
        """

        def traced(fn: Callable[..., Any], *args: Any) -> Any:
            with self.span(name):
                context = list(self._stack())

                def adopted(*inner: Any) -> Any:
                    self._local.stack = context
                    return fn(*inner)

                return hop(adopted, *args)

        traced.__wrapped__ = hop  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def patched(
        self, targets: Sequence[Target], hops: Sequence[Target] = ()
    ) -> Iterator[None]:
        """Wrap every target for the duration of the block, then restore."""
        undo: List[Tuple[Any, str, bool, Any]] = []
        try:
            for kind, group in (("call", targets), ("hop", hops)):
                for owner, attribute, name in group:
                    static = inspect.getattr_static(owner, attribute)
                    own = attribute in vars(owner)
                    undo.append((owner, attribute, own, static))
                    wrapper = self.wrap_thread_hop if kind == "hop" else self.wrap
                    if isinstance(static, classmethod):
                        replacement: Any = classmethod(wrapper(static.__func__, name))
                    elif isinstance(static, staticmethod):
                        replacement = staticmethod(wrapper(static.__func__, name))
                    else:
                        replacement = wrapper(static, name)
                    setattr(owner, attribute, replacement)
            yield
        finally:
            for owner, attribute, own, static in reversed(undo):
                if own:
                    setattr(owner, attribute, static)
                else:
                    delattr(owner, attribute)

    # -- analysis --------------------------------------------------------------

    def tree(self, root: int) -> List[Span]:
        """``root`` and every span below it."""
        children: Dict[Optional[int], List[Span]] = {}
        by_id = {span.id: span for span in self.spans}
        for span in self.spans:
            children.setdefault(span.parent, []).append(span)
        found, frontier = [by_id[root]], [root]
        while frontier:
            for child in children.get(frontier.pop(), ()):
                found.append(child)
                frontier.append(child.id)
        return found

    def self_times(self, root: int) -> Dict[str, float]:
        """Self seconds per span name within ``root``'s tree."""
        members = self.tree(root)
        child_time: Dict[int, float] = {}
        for span in members:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
        totals: Dict[str, float] = {}
        for span in members:
            own = span.duration - child_time.get(span.id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def total(self, root: int, name: str) -> float:
        """Seconds (children included) of every ``name`` span under ``root``."""
        return sum(span.duration for span in self.tree(root) if span.name == name)

    def count(self, root: int, name: str) -> int:
        return sum(1 for span in self.tree(root) if span.name == name)

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as a Chrome ``trace_event`` document (complete events)."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(span.start for span in self.spans)
        threads = {ident: index for index, ident in enumerate(
            sorted({span.thread for span in self.spans}))}
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": threads[span.thread],
                "args": {"id": span.id, "parent": span.parent, "trace": span.trace},
            }
            for span in sorted(self.spans, key=lambda span: span.start)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
