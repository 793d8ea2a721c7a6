"""Shared single-writer multi-reader (SWMR) registers.

Algorithms 1 and 2 of the paper (the consensus reductions) assume "a shared
array of SWMR registers ``R`` of size ``n``" in which each server stores its
proposal.  The reduction only needs register semantics — regular SWMR
registers are implementable on top of the asynchronous message-passing model
(that is exactly what the ABD protocol in :mod:`repro.storage.abd` does) — so
this module provides the simplest faithful substitute: a linearizable
in-memory register array.  docs/ARCHITECTURE.md ("Modules ↔ paper sections")
records this substitution.

Two classes are provided:

* :class:`SharedRegister` — a single multi-reader cell with an optional
  single designated writer.
* :class:`SWMRRegisterArray` — the array ``R[1..n]`` of the reductions, where
  register ``i`` may only be written by its owner ``s_i``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.errors import ConfigurationError
from repro.types import ProcessId

__all__ = ["SharedRegister", "SWMRRegisterArray"]


class SharedRegister:
    """A linearizable shared register, optionally single-writer."""

    def __init__(self, owner: Optional[ProcessId] = None, initial: Any = None) -> None:
        self.owner = owner
        self._value = initial
        self.write_count = 0
        self.read_count = 0

    def write(self, writer: ProcessId, value: Any) -> None:
        """Write ``value``; raises if a non-owner writes an SWMR register."""
        if self.owner is not None and writer != self.owner:
            raise ConfigurationError(
                f"register owned by {self.owner!r} cannot be written by {writer!r}"
            )
        self._value = value
        self.write_count += 1

    def read(self, reader: Optional[ProcessId] = None) -> Any:
        """Return the current value (any process may read)."""
        self.read_count += 1
        return self._value


class SWMRRegisterArray:
    """The shared array ``R`` of Algorithms 1 and 2.

    ``R[s_i]`` may only be written by server ``s_i``; every process may read
    any entry.  Entries start as ``None`` ("unwritten").
    """

    def __init__(self, owners: Sequence[ProcessId]) -> None:
        if len(set(owners)) != len(owners):
            raise ConfigurationError("register owners must be unique")
        self._registers: Dict[ProcessId, SharedRegister] = {
            owner: SharedRegister(owner=owner) for owner in owners
        }

    def write(self, writer: ProcessId, value: Any) -> None:
        """Server ``writer`` stores ``value`` in its own register."""
        register = self._registers.get(writer)
        if register is None:
            raise ConfigurationError(f"{writer!r} owns no register in this array")
        register.write(writer, value)

    def read(self, owner: ProcessId, reader: Optional[ProcessId] = None) -> Any:
        """Read the register owned by ``owner`` (readable by anyone)."""
        register = self._registers.get(owner)
        if register is None:
            raise ConfigurationError(f"{owner!r} owns no register in this array")
        return register.read(reader)
