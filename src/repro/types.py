"""Shared type aliases and small value objects used across the library.

The paper's system model (Section II) distinguishes *servers* (a finite set
``S`` of ``n`` processes, at most ``f`` of which may crash) from *clients*
(an unbounded set ``Pi``).  Throughout the code base both are identified by a
:class:`ProcessId`, a plain string such as ``"s1"`` or ``"c3"``.  Weights are
plain floats (the paper allows arbitrary reals subject to the Integrity
properties).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Identifier of a process (server or client).  Servers conventionally use
#: ``s1 .. sn`` and clients ``c1 .. ck`` but any unique string is accepted.
ProcessId = str

#: A server weight (voting power).  The paper allows any real value subject to
#: the Integrity / RP-Integrity constraints.
Weight = float

#: Virtual time used by the simulation kernel, in abstract "milliseconds".
VirtualTime = float


@dataclass(frozen=True, order=True)
class Tag:
    """Timestamp/process-id pair ordering written values (footnote 3).

    A tag ``tg1`` is smaller than ``tg2`` if its timestamp is smaller, or the
    timestamps are equal and its writer id is smaller.  ``Tag`` instances are
    immutable and totally ordered, which is exactly the comparison rule the
    ABD-style read/write protocols rely on.
    """

    ts: int
    pid: ProcessId

    @staticmethod
    def zero() -> "Tag":
        """The initial tag associated with the register's initial value."""
        return Tag(ts=0, pid="")

    def as_tuple(self) -> Tuple[int, ProcessId]:
        return (self.ts, self.pid)


def server_name(index: int) -> ProcessId:
    """Canonical name of the ``index``-th server (1-based), e.g. ``s1``."""
    if index < 1:
        raise ValueError(f"server indices are 1-based, got {index}")
    return f"s{index}"


def client_name(index: int) -> ProcessId:
    """Canonical name of the ``index``-th client (1-based), e.g. ``c1``."""
    if index < 1:
        raise ValueError(f"client indices are 1-based, got {index}")
    return f"c{index}"


def server_set(n: int) -> Tuple[ProcessId, ...]:
    """The canonical server set ``(s1, ..., sn)``."""
    if n < 1:
        raise ValueError(f"need at least one server, got n={n}")
    return tuple(server_name(i) for i in range(1, n + 1))
