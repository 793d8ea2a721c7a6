"""Structured, deterministic trace records with a JSONL sink.

A trace is an ordered list of flat JSON records, one per observable moment of
a run, stamped with *virtual* time — wall clocks never appear, so the same
run always produces the same bytes.  The record shape is deliberately close
to the Chrome ``trace_event`` format (:mod:`repro.obs.export` finishes the
conversion):

========  =======================================================
field     meaning
========  =======================================================
``seq``   0-based emission index (total order within the trace)
``ts``    virtual time of the event
``cat``   category: ``kernel`` / ``net`` / ``fault`` / ``op`` /
          ``quorum`` / ``transfer`` / ``storage`` / ``monitoring``
``name``  event name (message kind, operation kind, phase, ...)
``ph``    phase: ``B`` (span begin), ``E`` (span end), ``i``
          (instant), ``s`` / ``f`` (flow start / finish)
``actor`` optional process id the event belongs to
``args``  optional flat dict of extra fields (sorted keys)
``id``    optional flow id pairing a ``s`` record with its ``f``
========  =======================================================

Determinism contract: records are emitted in dispatch order by the (already
deterministic) kernel, ``args`` are built from sorted iterations only, and
flow ids come from the recorder's own counter — never from process-global
state such as ``Message.msg_id``, which depends on how many messages earlier
runs in the same interpreter created.

The canonical serialisation (one record per line,
``json.dumps(..., sort_keys=True, separators=(",", ":"))``) is what both the
JSONL sink and the trace digest hash, so a digest pinned in a test also pins
the exact bytes CI uploads as an artifact.  Both encode, hash (with
:mod:`repro._digest`) and write one record at a time: nothing holds the file.

In memory a record is a :class:`TraceEvent`; the flat dict above is the *file
format*.  :meth:`TraceRecorder.emit` checks the schema once, where the record
is made, and keeps the typed event the analyses read; the sink and the
digest take ``map(TraceEvent.as_record, events)``, and
:attr:`TraceRecorder.records` renders the dicts for what exports or diffs.
"""

from __future__ import annotations

import json
import os
from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional

from repro._digest import sha256
from repro.errors import ConfigurationError

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "TRACE_PHASES",
    "TRACE_CATEGORIES",
    "trace_digest",
    "write_trace",
    "read_trace",
    "ValidatedTrace",
    "validate_record",
]

#: Phases a record may carry (a subset of Chrome ``trace_event`` phases).
TRACE_PHASES = ("B", "E", "i", "s", "f")

#: Known categories.  The validator treats these as the closed set so a typo
#: in an instrumentation site fails loudly in CI instead of silently adding a
#: new lane.
TRACE_CATEGORIES = (
    "kernel",
    "net",
    "fault",
    "op",
    "quorum",
    "transfer",
    "storage",
    "monitoring",
)

_CATEGORY_SET = frozenset(TRACE_CATEGORIES)
_PHASE_SET = frozenset(TRACE_PHASES)
#: What an event without ``args`` carries: one shared, read-only mapping.
_EMPTY_ARGS: Mapping[str, Any] = MappingProxyType({})


class TraceEvent(NamedTuple):
    """One trace record in memory: typed and attribute-addressable.

    Only :meth:`TraceRecorder.emit` and the validating parser
    (:func:`repro.obs.analysis.parse_events`) make one, which is why the
    analyses take an event as it is; :meth:`as_record` and
    :meth:`from_record` are the way to the file format and back.
    """

    seq: int
    ts: float
    cat: str
    name: str
    ph: str
    actor: str = ""
    args: Mapping[str, Any] = _EMPTY_ARGS
    flow: Optional[int] = None

    @property
    def is_span_begin(self) -> bool:
        return self.ph == "B"

    @property
    def is_span_end(self) -> bool:
        return self.ph == "E"

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "TraceEvent":
        """The event a schema-valid flat record describes (the caller has
        validated it: nothing is checked here)."""
        get = record.get
        return cls._make((
            record["seq"], record["ts"], record["cat"], record["name"],
            record["ph"], get("actor", ""), get("args", _EMPTY_ARGS), get("id"),
        ))

    def as_record(self) -> Dict[str, Any]:
        """The flat record of the file format (absent optional keys omitted)."""
        record: Dict[str, Any] = {
            "seq": self.seq,
            "ts": self.ts,
            "cat": self.cat,
            "name": self.name,
            "ph": self.ph,
        }
        if self.actor:
            record["actor"] = self.actor
        if self.args:
            record["args"] = self.args
        if self.flow is not None:
            record["id"] = self.flow
        return record


#: Makes an event without a Python frame (``TraceEvent(...)`` is one).
_new_event = tuple.__new__


class TraceRecorder:
    """Accumulates trace events in emission order."""

    __slots__ = ("events", "_flow_ids")

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._flow_ids = 0

    @property
    def records(self) -> List[Dict[str, Any]]:
        """The trace in its file format, rendered anew on every access."""
        return [event.as_record() for event in self.events]

    def next_flow_id(self) -> int:
        """A fresh flow id, deterministic because it is per-recorder."""
        self._flow_ids += 1
        return self._flow_ids

    def emit(
        self,
        ts: float,
        cat: str,
        name: str,
        ph: str,
        actor: str = "",
        args: Optional[Dict[str, Any]] = None,
        flow: Optional[int] = None,
    ) -> None:
        """Append one event, schema-checked here and nowhere after.

        The happy path is the exact-type tests of :func:`_plainly_valid`
        over the arguments and must stay a *leaf*: builtins only, no
        Python-level call.  ``Network.send -> Observer.message_sent -> emit``
        already sits one frame short of the pinned send chain, so a frame
        added here moves where recursion-limited runs abort (ARCHITECTURE
        "Performance").
        """
        events = self.events
        if (
            (type(ts) is float or type(ts) is int) and not ts < 0
            and type(cat) is str and cat in _CATEGORY_SET
            and type(name) is str and name
            and type(ph) is str and ph in _PHASE_SET
            and type(actor) is str
            and (args is None or type(args) is dict)
            and (type(flow) is int if flow is not None
                 else ph != "s" and ph != "f")
        ):
            events.append(_new_event(TraceEvent, (
                len(events), ts, cat, name, ph, actor,
                args or _EMPTY_ARGS, flow,
            )))
            return
        # Not plainly valid: ask the reference check, in its words.
        event = TraceEvent(
            len(events), ts, cat, name, ph, actor or "",
            args or _EMPTY_ARGS, flow,
        )
        problems = _problems(event.as_record(), None)
        if problems:
            raise ConfigurationError(
                f"trace record {event.seq}: invalid: " + "; ".join(problems)
            )
        events.append(event)


# ---------------------------------------------------------------------------
# Canonical serialisation, digest, JSONL sink
# ---------------------------------------------------------------------------

# One encoder and one decoder for every record of every trace: the
# ``json.dumps`` / ``json.loads`` front doors build (or look up) one per call,
# which costs more than a short record does.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_decode = json.JSONDecoder().raw_decode


def trace_digest(records: Iterable[Dict[str, Any]]) -> str:
    """SHA-256 over the canonical JSONL bytes (trailing newline included),
    hashed a line at a time as the records arrive."""
    digest = sha256()
    for record in records:
        digest.update((_encode(record) + "\n").encode("utf-8"))
    return digest.hexdigest()


def write_trace(records: Iterable[Dict[str, Any]], path: str) -> str:
    """Write the canonical JSONL to ``path``; return its digest.

    Each line is hashed as it is written, so the digest is the SHA-256 of
    exactly the bytes written.  They go to a temporary file that replaces
    ``path`` at the end: a record that cannot be encoded leaves no file.
    """
    digest = sha256()
    partial = f"{path}.partial"
    handle = open(partial, "wb")
    try:
        with handle:
            for record in records:
                line = (_encode(record) + "\n").encode("utf-8")
                digest.update(line)
                handle.write(line)
        os.replace(partial, path)
    except BaseException:
        os.remove(partial)
        raise
    return digest.hexdigest()


class ValidatedTrace(list):
    """The records of one trace file, as :func:`read_trace` returns them.

    A plain list in every respect but its type, which records where the
    list came from: every record in it passed :func:`validate_record`,
    ``seq`` order included, when it was decoded from the file's bytes.
    :func:`repro.obs.analysis.parse_events` relies on exactly this type to
    skip a second validation, so treat an instance as read-only; any copy
    (``list(trace)``, a slice, a concatenation) is a plain list again and is
    validated like any other input.
    """

    __slots__ = ()


def read_trace(path: str) -> ValidatedTrace:
    """Load a JSONL trace, validating every record against the schema."""
    records = ValidatedTrace()
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _decode(line)
                if end != len(line):
                    json.loads(line)  # words the "Extra data" error
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{number}: not valid JSON: {exc}"
                ) from exc
            problems = validate_record(record, expect_seq=len(records))
            if problems:
                raise ConfigurationError(
                    f"{path}:{number}: invalid trace record: "
                    + "; ".join(problems)
                )
            records.append(record)
    return records


# ---------------------------------------------------------------------------
# Schema validation (shared by read_trace and tools/check_trace.py)
# ---------------------------------------------------------------------------

_ALLOWED_KEYS = frozenset({"seq", "ts", "cat", "name", "ph", "actor", "args", "id"})
_REQUIRED_KEYS = ("seq", "ts", "cat", "name", "ph")


def _plainly_valid(record: Any, expect_seq: Optional[int]) -> bool:
    """Whether ``record`` is valid by exact-type tests alone.

    ``True`` only when :func:`_problems` would find nothing; ``False`` means
    "ask :func:`_problems`", not "invalid" (a dict subclass or an ``int``
    subclass can still be valid).  Exact types also keep ``bool`` out of the
    integer fields and unhashable values out of the set lookups.
    """
    if type(record) is not dict:
        return False
    try:
        seq = record["seq"]
        ts = record["ts"]
        cat = record["cat"]
        name = record["name"]
        ph = record["ph"]
    except KeyError:
        return False
    if not (
        type(seq) is int and seq >= 0
        and (expect_seq is None or seq == expect_seq)
        and (type(ts) is float or type(ts) is int) and not ts < 0
        and type(cat) is str and cat in _CATEGORY_SET
        and type(name) is str and name
        and type(ph) is str and ph in _PHASE_SET
    ):
        return False
    known = 5
    if "actor" in record:
        if type(record["actor"]) is not str:
            return False
        known += 1
    if "args" in record:
        if type(record["args"]) is not dict:
            return False
        known += 1
    if "id" in record:
        if type(record["id"]) is not int:
            return False
        known += 1
    elif ph == "s" or ph == "f":
        return False
    return len(record) == known


def validate_record(
    record: Any, expect_seq: Optional[int] = None
) -> List[str]:
    """Schema problems with one record (empty list = valid)."""
    if _plainly_valid(record, expect_seq):
        return []
    return _problems(record, expect_seq)


def _problems(record: Any, expect_seq: Optional[int]) -> List[str]:
    """Every schema problem with ``record``, in words (the reference check)."""
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, expected object"]
    problems: List[str] = []
    for key in _REQUIRED_KEYS:
        if key not in record:
            problems.append(f"missing required key {key!r}")
    for key in record:
        if key not in _ALLOWED_KEYS:
            problems.append(f"unknown key {key!r}")
    seq = record.get("seq")
    if "seq" in record:
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            problems.append(f"seq must be a non-negative integer, got {seq!r}")
        elif expect_seq is not None and seq != expect_seq:
            problems.append(f"seq {seq!r} out of order (expected {expect_seq})")
    ts = record.get("ts")
    if "ts" in record and (not isinstance(ts, (int, float)) or isinstance(ts, bool)):
        problems.append(f"ts must be a number, got {ts!r}")
    elif isinstance(ts, (int, float)) and ts < 0:
        problems.append(f"ts must be non-negative, got {ts!r}")
    cat = record.get("cat")
    if "cat" in record and cat not in TRACE_CATEGORIES:
        problems.append(f"unknown category {cat!r}")
    name = record.get("name")
    if "name" in record and (not isinstance(name, str) or not name):
        problems.append(f"name must be a non-empty string, got {name!r}")
    ph = record.get("ph")
    if "ph" in record and ph not in TRACE_PHASES:
        problems.append(f"unknown phase {ph!r}")
    if "actor" in record and not isinstance(record["actor"], str):
        problems.append(f"actor must be a string, got {record['actor']!r}")
    if "args" in record and not isinstance(record["args"], dict):
        problems.append(f"args must be an object, got {record['args']!r}")
    if "id" in record and (
        not isinstance(record["id"], int) or isinstance(record["id"], bool)
    ):
        problems.append(f"id must be an integer, got {record['id']!r}")
    if ph in ("s", "f") and "id" not in record:
        problems.append(f"flow record (ph={ph!r}) requires an 'id'")
    return problems
