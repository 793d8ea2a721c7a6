"""Exception hierarchy for the ``repro`` library.

All library-specific exceptions derive from :class:`ReproError`, so callers
can catch a single base class.  Errors are split along the package structure:
simulation-kernel errors, configuration errors, and protocol-level violations
raised by the specification checkers (used heavily by the test-suite).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the library."""


class ConfigurationError(ReproError):
    """An object was constructed with inconsistent or invalid parameters.

    ``path`` optionally locates the offending value as a dotted section path
    (``workload.keys.zipf_s``, ``faults.crashes[0]``); spec validation
    attaches it so the CLI and the serving layer can render errors uniformly
    without parsing it back out of the message.  ``str(error)`` stays the
    bare message either way.
    """

    def __init__(self, message: str = "", path: "str | None" = None) -> None:
        super().__init__(message)
        self.path = path


class SimulationError(ReproError):
    """The simulation kernel reached an invalid state."""


class DeadlockError(SimulationError):
    """The simulation ran out of events while tasks were still pending.

    Raised by :meth:`repro.net.simloop.SimLoop.run` when asked to run a task
    to completion but no further events can make progress — the asynchronous
    equivalent of a deadlock (for instance, waiting for a quorum of replies
    when too many servers have crashed).
    """


class SimTimeoutError(SimulationError):
    """A virtual-time deadline elapsed before the awaited future resolved."""


class CrashedProcessError(SimulationError):
    """An operation was invoked on a process that has already crashed."""


class WorkerError(ReproError):
    """A worker process reported an exception that could not be re-raised.

    The resilient executor ships exceptions from worker processes back to
    the parent as pickled objects; when an exception does not pickle, the
    parent raises this carrier with the original type name and message.
    """


class SpecViolation(ReproError):
    """A safety property from the paper's problem definitions was violated.

    The specification checkers in :mod:`repro.core.spec` raise this error when
    a trace violates Integrity, P-Integrity, RP-Integrity or one of the
    Validity properties.  The protocol implementations never raise it during
    normal operation; it exists so tests and property-based verifiers can
    assert that executions stay within the specification.
    """


class IntegrityViolation(SpecViolation):
    """Integrity / P-Integrity / RP-Integrity (Definitions 3-5) was violated."""


class ValidityViolation(SpecViolation):
    """Validity-I / Validity-II (and their P-/RP- variants) was violated."""


class AtomicityViolation(SpecViolation):
    """A register history is not linearizable (Definition 6)."""


class TransferRejected(ReproError):
    """A ``transfer`` invocation was aborted (a zero-weight change was created).

    This is not an error condition of the protocol — the paper's RP-Validity-I
    explicitly allows null transfers — but the high-level
    :class:`repro.monitoring.controller.WeightController` treats it as a
    signal that the requested reassignment is not currently possible.
    """


class UnknownProcessError(ConfigurationError):
    """A message was addressed to a process the network does not know about."""


#: Process exit status for "interrupted but resumable" (journal flushed),
#: distinct from 0 (ok), 1 (diff/violations) and 2 (error).
INTERRUPT_EXIT_CODE = 3


class GracefulInterrupt(BaseException):
    """SIGINT/SIGTERM, re-raised so sinks flush before a distinct exit.

    A ``BaseException`` (like :class:`KeyboardInterrupt`) so that
    error-capturing paths never swallow it: an interrupt must always reach
    the CLI, which exits with :data:`INTERRUPT_EXIT_CODE`.
    """

    def __init__(self, signum: int) -> None:
        self.signum = signum
        super().__init__(self.signal_name)

    @property
    def signal_name(self) -> str:
        import signal

        try:
            return signal.Signals(self.signum).name
        except ValueError:  # pragma: no cover - unknown platform signal
            return f"signal {self.signum}"
