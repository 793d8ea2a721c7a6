"""One pass over a trace: encode once, validate once, parse once.

``repro.obs.trace`` takes shortcuts on its hot path — a shared encoder, a
digest taken from the bytes written, an exact-type happy path in the record
validator, a :class:`ValidatedTrace` that is not validated a second time, a
recorder that checks the schema in ``emit`` and keeps the typed event the
checker reads.  Each shortcut must be invisible: same bytes, same digests,
same verdicts, same words.  These tests pin that, with the wording path
(``repro.obs.trace._problems``) and the dict-building recorder this tree
used to have (``DictRecorder`` below) as the reference implementations.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.obs import (
    Observer,
    TRACE_CATEGORIES,
    TRACE_PHASES,
    TraceEvent,
    TraceRecorder,
    ValidatedTrace,
    check_trace_invariants,
    parse_events,
    read_trace,
    trace_digest,
    trace_lines,
    validate_record,
    write_trace,
)
from repro.obs.trace import _plainly_valid, _problems


class DictSubclass(dict):
    pass


class IntSubclass(int):
    pass


def rec(**overrides):
    record = {"seq": 0, "ts": 1.5, "cat": "net", "name": "R", "ph": "i"}
    record.update(overrides)
    return record


def without(key, **overrides):
    record = rec(**overrides)
    del record[key]
    return record


#: (label, record, expect_seq, problems exactly as worded before the fast
#: path existed).
CORPUS = [
    ("plain", rec(), None, []),
    ("all optional keys",
     rec(ph="s", actor="c1", args={"to": "s1"}, id=7), 0, []),
    ("int ts", rec(ts=3), None, []),
    ("nan ts", rec(ts=float("nan")), None, []),
    ("inf ts", rec(ts=float("inf")), None, []),
    ("dict subclass", DictSubclass(rec()), 0, []),
    ("int subclass seq", rec(seq=IntSubclass(4)), 4, []),
    ("args dict subclass", rec(args=DictSubclass(a=1)), None, []),
    ("empty actor", rec(actor=""), None, []),
    ("bool seq", rec(seq=True), None,
     ["seq must be a non-negative integer, got True"]),
    ("bool seq that equals the expected one", rec(seq=True), 1,
     ["seq must be a non-negative integer, got True"]),
    ("bool id", rec(ph="s", id=False), None,
     ["id must be an integer, got False"]),
    ("bool ts", rec(ts=True), None, ["ts must be a number, got True"]),
    ("negative ts", rec(ts=-0.5), None,
     ["ts must be non-negative, got -0.5"]),
    ("negative int ts", rec(ts=-1), None,
     ["ts must be non-negative, got -1"]),
    ("negative seq", rec(seq=-1), None,
     ["seq must be a non-negative integer, got -1"]),
    ("str seq", rec(seq="0"), 0,
     ["seq must be a non-negative integer, got '0'"]),
    ("float seq", rec(seq=0.0), 0,
     ["seq must be a non-negative integer, got 0.0"]),
    ("seq out of order", rec(seq=5), 3, ["seq 5 out of order (expected 3)"]),
    ("str ts", rec(ts="1.5"), None, ["ts must be a number, got '1.5'"]),
    ("none ts", rec(ts=None), None, ["ts must be a number, got None"]),
    ("unknown key", rec(bogus=1), None, ["unknown key 'bogus'"]),
    ("two unknown keys", rec(bogus=1, more=2), None,
     ["unknown key 'bogus'", "unknown key 'more'"]),
    ("missing seq", without("seq"), 0, ["missing required key 'seq'"]),
    ("missing ts", without("ts"), None, ["missing required key 'ts'"]),
    ("missing cat, name and ph", {"seq": 0, "ts": 0.0}, None,
     ["missing required key 'cat'", "missing required key 'name'",
      "missing required key 'ph'"]),
    ("empty dict", {}, None,
     [f"missing required key {key!r}"
      for key in ("seq", "ts", "cat", "name", "ph")]),
    ("flow start without id", rec(ph="s"), None,
     ["flow record (ph='s') requires an 'id'"]),
    ("flow finish without id", rec(ph="f"), None,
     ["flow record (ph='f') requires an 'id'"]),
    ("flow with a None id", rec(ph="f", id=None), None,
     ["id must be an integer, got None"]),
    ("str id", rec(id="7"), None, ["id must be an integer, got '7'"]),
    ("float id", rec(id=7.0), None, ["id must be an integer, got 7.0"]),
    ("a list", [1, 2], None, ["record is list, expected object"]),
    ("None", None, None, ["record is NoneType, expected object"]),
    ("a string", "record", 0, ["record is str, expected object"]),
    ("unknown category", rec(cat="nonsense"), None,
     ["unknown category 'nonsense'"]),
    ("unhashable category", rec(cat=["net"]), None,
     ["unknown category ['net']"]),
    ("None category", rec(cat=None), None, ["unknown category None"]),
    ("unknown phase", rec(ph="X"), None, ["unknown phase 'X'"]),
    ("unhashable phase", rec(ph={"B": 1}), None,
     ["unknown phase {'B': 1}"]),
    ("empty name", rec(name=""), None,
     ["name must be a non-empty string, got ''"]),
    ("non-str name", rec(name=7), None,
     ["name must be a non-empty string, got 7"]),
    ("non-str actor", rec(actor=3), None, ["actor must be a string, got 3"]),
    ("list args", rec(args=[1]), None, ["args must be an object, got [1]"]),
    ("None args", rec(args=None), None,
     ["args must be an object, got None"]),
    ("everything wrong at once",
     {"seq": -2, "ts": "x", "cat": "zzz", "name": "", "ph": "Q", "actor": 1,
      "args": 2, "id": "3", "junk": 0}, 0,
     ["unknown key 'junk'",
      "seq must be a non-negative integer, got -2",
      "ts must be a number, got 'x'",
      "unknown category 'zzz'",
      "name must be a non-empty string, got ''",
      "unknown phase 'Q'",
      "actor must be a string, got 1",
      "args must be an object, got 2",
      "id must be an integer, got '3'"]),
]


def assert_paths_agree(record, expect_seq):
    """The happy path may only ever say what the wording path says."""
    worded = _problems(record, expect_seq)
    assert validate_record(record, expect_seq) == worded
    if _plainly_valid(record, expect_seq):
        assert worded == []
    return worded


class TestValidatorCorpus:
    @pytest.mark.parametrize(
        "record, expect_seq, problems",
        [case[1:] for case in CORPUS], ids=[case[0] for case in CORPUS],
    )
    def test_wording_is_unchanged(self, record, expect_seq, problems):
        assert validate_record(record, expect_seq) == problems
        assert assert_paths_agree(record, expect_seq) == problems

    def test_the_happy_path_takes_what_the_recorder_and_json_produce(self):
        # Otherwise every record would pay for both paths.
        recorder = TraceRecorder()
        recorder.emit(ts=0.0, cat="op", name="read", ph="B", actor="c1")
        recorder.emit(ts=0.5, cat="net", name="R", ph="s", actor="c1",
                      args={"to": "s1"}, flow=recorder.next_flow_id())
        recorder.emit(ts=2, cat="kernel", name="run", ph="i")
        for seq, record in enumerate(recorder.records):
            assert _plainly_valid(record, seq)
            assert _plainly_valid(json.loads(json.dumps(record)), seq)

    def test_each_call_returns_its_own_list(self):
        first = validate_record(rec())
        first.append("scribble")
        assert validate_record(rec()) == []


# Values the validator may meet in any field: the right type, its look-alike
# (bool for int, subclasses), the wrong type, unhashable containers.
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "net", "op", "B", "E", "i", "s", "f", "R", "zzz"]),
    st.builds(IntSubclass, st.integers(-2, 5)),
)
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=2),
    st.dictionaries(st.text(max_size=2), _scalars, max_size=2),
    st.builds(DictSubclass, st.dictionaries(st.text(max_size=2), _scalars,
                                            max_size=2)),
)
_valid_records = st.fixed_dictionaries(
    {
        "seq": st.integers(0, 12),
        "ts": st.one_of(st.integers(0, 50), st.floats(0, 50)),
        "cat": st.sampled_from(TRACE_CATEGORIES),
        "name": st.text(min_size=1, max_size=4),
        "ph": st.sampled_from(("B", "E", "i")),
    },
    optional={
        "actor": st.text(max_size=3),
        "args": st.dictionaries(st.text(max_size=2), _scalars, max_size=2),
        "id": st.integers(0, 99),
    },
)
_keys = st.sampled_from(
    ["seq", "ts", "cat", "name", "ph", "actor", "args", "id", "bogus"]
)


@st.composite
def _damaged_records(draw):
    """A valid record with a few keys overwritten, added or removed."""
    record = dict(draw(_valid_records))
    for key in draw(st.lists(_keys, max_size=3)):
        if draw(st.booleans()):
            record.pop(key, None)
        else:
            record[key] = draw(_values)
    if draw(st.booleans()):
        record["ph"] = draw(st.sampled_from(TRACE_PHASES))
    return DictSubclass(record) if draw(st.booleans()) else record


class TestValidatorProperty:
    @settings(max_examples=400, deadline=None)
    @given(_valid_records, st.one_of(st.none(), st.integers(0, 12)))
    def test_valid_records_take_the_happy_path_unless_seq_is_off(
        self, record, expect_seq
    ):
        worded = assert_paths_agree(record, expect_seq)
        in_order = expect_seq is None or record["seq"] == expect_seq
        assert (worded == []) == in_order
        assert _plainly_valid(record, expect_seq) == in_order

    @settings(max_examples=1500, deadline=None)
    @given(_damaged_records(), st.one_of(st.none(), st.integers(0, 12)))
    def test_both_paths_agree_on_arbitrary_damage(self, record, expect_seq):
        assert_paths_agree(record, expect_seq)

    @settings(max_examples=300, deadline=None)
    @given(_values, st.one_of(st.none(), st.integers(0, 3)))
    def test_both_paths_agree_on_things_that_are_not_records(
        self, record, expect_seq
    ):
        assert_paths_agree(record, expect_seq)


def sample_records():
    recorder = TraceRecorder()
    recorder.emit(ts=0.0, cat="op", name="read", ph="B", actor="c1",
                  args={"protocol": "abd"})
    recorder.emit(ts=0.25, cat="net", name="R", ph="s", actor="c1",
                  args={"to": "s1", "text": 'quo"te},{\né'},
                  flow=recorder.next_flow_id())
    recorder.emit(ts=1.125, cat="net", name="R", ph="f", actor="s1", flow=1)
    recorder.emit(ts=1.5, cat="op", name="read", ph="E", actor="c1",
                  args={"contacted": 3, "restarts": 0})
    return recorder.records


class TestEncodeOnce:
    def test_three_digests_of_one_trace_agree(self, tmp_path):
        records = sample_records()
        path = tmp_path / "t.jsonl"
        written = write_trace(records, str(path))
        assert written == trace_digest(records)
        assert written == hashlib.sha256(path.read_bytes()).hexdigest()
        assert written == trace_digest(read_trace(str(path)))

    def test_the_bytes_are_the_documented_serialisation(self, tmp_path):
        records = sample_records()
        path = tmp_path / "t.jsonl"
        write_trace(records, str(path))
        expected = "".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            for record in records
        )
        assert path.read_bytes() == expected.encode("utf-8")
        assert trace_lines(records) == expected.splitlines()

    def test_an_empty_trace_is_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        empty = hashlib.sha256(b"").hexdigest()
        assert write_trace([], str(path)) == trace_digest([]) == empty
        assert path.read_bytes() == b""
        assert read_trace(str(path)) == []

    def test_run_spec_reports_the_digest_of_the_file_it_wrote(self, tmp_path):
        from repro.experiments.executor import execute_run
        from repro.experiments.sweep import RunSpec

        def traced(**extra):
            params = {"observability.enabled": True,
                      "observability.trace": True,
                      "workload.operations_per_client": 2, **extra}
            return execute_run(
                RunSpec("quickstart", tuple(sorted(params.items())))
            ).result["trace"]

        path = tmp_path / "run.jsonl"
        on_disk = traced(**{"observability.trace_path": str(path)})
        assert on_disk["digest"] == hashlib.sha256(
            path.read_bytes()).hexdigest()
        assert on_disk["records"] == len(read_trace(str(path)))
        assert traced() == on_disk  # no path: hashed without a file


GOOD = '{"cat":"net","name":"RC","ph":"i","seq":0,"ts":0.0}'
NEXT = GOOD.replace('"seq":0', '"seq":1')


class TestReadTraceErrors:
    @pytest.mark.parametrize("text, message", [
        (GOOD + "\nnot json\n",
         ":2: not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        (GOOD + "\n" + NEXT + " trailing\n",
         ":2: not valid JSON: Extra data: line 1 column 53 (char 52)"),
        (GOOD + GOOD + "\n",
         ":1: not valid JSON: Extra data: line 1 column 52 (char 51)"),
        (GOOD + "\n" + NEXT[:36],
         ":2: not valid JSON: Unterminated string starting at: "
         "line 1 column 35 (char 34)"),
        (GOOD + "\n" + '{"cat":"net","ph":"i"}\n',
         ":2: invalid trace record: missing required key 'seq'; "
         "missing required key 'ts'; missing required key 'name'"),
        (GOOD + "\n\n" + GOOD.replace('"seq":0', '"seq":2') + "\n",
         ":3: invalid trace record: seq 2 out of order (expected 1)"),
        (GOOD + "\n[1,2]\n",
         ":2: invalid trace record: record is list, expected object"),
    ], ids=["bad-json", "trailing-data", "two-objects", "cut-mid-line",
            "bad-record", "seq-out-of-order", "not-an-object"])
    def test_the_message_names_file_line_and_problem(
        self, tmp_path, text, message
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        with pytest.raises(ConfigurationError) as caught:
            read_trace(str(path))
        assert str(caught.value) == str(path) + message

    def test_blank_lines_and_padding_are_skipped(self, tmp_path):
        path = tmp_path / "padded.jsonl"
        path.write_text("\n  " + GOOD + "  \n   \n" + NEXT + "\n\n")
        assert [record["seq"] for record in read_trace(str(path))] == [0, 1]


class TestValidateOnce:
    def write(self, tmp_path, records):
        path = tmp_path / "t.jsonl"
        write_trace(records, str(path))
        return str(path)

    def test_read_trace_returns_a_list_that_says_where_it_came_from(
        self, tmp_path
    ):
        records = sample_records()
        trace = read_trace(self.write(tmp_path, records))
        assert type(trace) is ValidatedTrace
        assert isinstance(trace, list) and trace == records

    def test_a_validated_trace_is_parsed_without_a_second_validation(
        self, tmp_path, monkeypatch
    ):
        records = sample_records()
        trace = read_trace(self.write(tmp_path, records))
        calls = []

        def counting(record, expect_seq=None):
            calls.append(expect_seq)
            return validate_record(record, expect_seq)

        monkeypatch.setattr("repro.obs.analysis.validate_record", counting)
        assert parse_events(trace) == parse_events(records)
        assert calls == [0, 1, 2, 3]  # the plain list only
        assert check_trace_invariants(trace).as_dict() == (
            check_trace_invariants(records).as_dict())
        assert calls == [0, 1, 2, 3] * 2

    def test_copies_of_a_validated_trace_are_validated_again(self, tmp_path):
        trace = read_trace(self.write(tmp_path, sample_records()))
        for copy in (list(trace), trace[:], trace + [], trace[1:]):
            assert type(copy) is list
        with pytest.raises(ConfigurationError, match="trace record 0: invalid: "
                           "seq 1 out of order"):
            parse_events(trace[1:])
        tampered = [dict(record) for record in trace]
        tampered[2]["ts"] = "late"
        with pytest.raises(ConfigurationError, match="trace record 2: invalid: "
                           "ts must be a number, got 'late'"):
            check_trace_invariants(tampered)

    def test_invalid_bytes_never_become_a_validated_trace(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(GOOD + "\n" + GOOD + "\n")
        with pytest.raises(ConfigurationError, match="out of order"):
            read_trace(str(path))


class TestTraceEvent:
    def test_keyword_api_defaults_and_immutability(self):
        event = TraceEvent(seq=0, ts=0.5, cat="op", name="read", ph="B")
        assert (event.actor, dict(event.args), event.flow) == ("", {}, None)
        assert event.is_span_begin and not event.is_span_end
        assert not event.is_flow
        with pytest.raises(AttributeError):
            event.ts = 1.0
        with pytest.raises(TypeError):
            event.args["k"] = 1  # the shared default is read-only
        assert event == TraceEvent(seq=0, ts=0.5, cat="op", name="read",
                                   ph="B", args={})

    def test_parse_events_fills_every_field(self):
        events = parse_events(sample_records())
        assert events[1] == TraceEvent(
            seq=1, ts=0.25, cat="net", name="R", ph="s", actor="c1",
            args={"to": "s1", "text": 'quo"te},{\né'}, flow=1,
        )
        assert events[1].is_flow and events[3].is_span_end
        assert [event.seq for event in events] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# One record from hook to verdict: the recorder keeps typed events
# ---------------------------------------------------------------------------


class DictRecorder:
    """The recorder as it was while a record in memory was a dict: the
    reference for every byte ``TraceRecorder.records`` renders."""

    def __init__(self):
        self.records = []

    def emit(self, ts, cat, name, ph, actor="", args=None, flow=None):
        record = {"seq": len(self.records), "ts": ts, "cat": cat,
                  "name": name, "ph": ph}
        if actor:
            record["actor"] = actor
        if args:
            record["args"] = args
        if flow is not None:
            record["id"] = flow
        self.records.append(record)


def _same_with_exact_types(left, right):
    if type(left) is not type(right):
        return False
    if type(left) is dict:
        return list(left) == list(right) and all(
            _same_with_exact_types(left[key], right[key]) for key in left)
    if type(left) is list:
        return len(left) == len(right) and all(
            map(_same_with_exact_types, left, right))
    return left == right


# Names and actors from small pools so spans close, flows pair (and collide)
# and transfers balance or do not: verdicts with findings, not empty ones.
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(-4, 4),
    st.sampled_from(["", "abd", "storage", "s1", "s2"]),
)
_emit_args = st.one_of(
    st.none(),
    st.fixed_dictionaries({}, optional={
        "protocol": st.sampled_from(["abd", "storage"]),
        "size": st.integers(0, 5),
        "delta": st.one_of(st.integers(0, 2), st.floats(0, 2)),
        "target": st.sampled_from(["s1", "s2", "s3"]),
        "effective": st.booleans(),
        "note": _json_scalars,
    }),
)


@st.composite
def _valid_emits(draw):
    """Keyword arguments of one schema-valid ``emit`` call."""
    ph = draw(st.sampled_from(TRACE_PHASES))
    flows = st.integers(0, 6)
    call = {
        "ts": draw(st.one_of(st.integers(0, 20), st.floats(0, 20))),
        "cat": draw(st.sampled_from(TRACE_CATEGORIES)),
        "name": draw(st.sampled_from(
            ["read", "write", "restart", "phase1", "phase2", "transfer", "R"])),
        "ph": ph,
        "flow": draw(flows if ph in ("s", "f") else st.one_of(st.none(), flows)),
    }
    if draw(st.booleans()):
        call["actor"] = draw(st.sampled_from(["", "c1", "c2", "s1"]))
    if draw(st.booleans()):
        call["args"] = draw(_emit_args)
    return call


def emit_call_for(record):
    """The ``emit`` call that would make ``record``, or ``None`` when there
    is none: ``seq`` is the recorder's, an unknown key has no parameter, and
    a ``None`` in an optional parameter means "absent", not "null"."""
    if not isinstance(record, dict) or set(record) - {
            "seq", "ts", "cat", "name", "ph", "actor", "args", "id"}:
        return None
    if not {"ts", "cat", "name", "ph"} <= set(record):
        return None
    if record.get("args", 0) is None or record.get("id", 0) is None:
        return None
    call = {key: record[key] for key in ("ts", "cat", "name", "ph")}
    for key, parameter in (("actor", "actor"), ("args", "args"), ("id", "flow")):
        if key in record:
            call[parameter] = record[key]
    return call


_EMIT_CORPUS = [
    (label, emit_call_for(record),
     [words for words in problems  # what is wrong with ``seq`` cannot be said
      if not (words.startswith("seq ") or words.endswith("'seq'"))])
    for label, record, _, problems in CORPUS
    if emit_call_for(record) is not None
]


class TestTypedRecorder:
    def test_the_recorder_keeps_events_and_renders_records(self):
        recorder = TraceRecorder()
        recorder.emit(ts=0.5, cat="net", name="R", ph="s", actor="c1",
                      args={"to": "s1"}, flow=3)
        recorder.emit(ts=1, cat="kernel", name="run", ph="i", args={})
        assert recorder.events == [
            TraceEvent(0, 0.5, "net", "R", "s", "c1", {"to": "s1"}, 3),
            TraceEvent(1, 1, "kernel", "run", "i"),
        ]
        assert all(type(event) is TraceEvent for event in recorder.events)
        with pytest.raises(TypeError):
            recorder.events[1].args["k"] = 1  # no args: the shared read-only map
        assert recorder.records == [
            {"seq": 0, "ts": 0.5, "cat": "net", "name": "R", "ph": "s",
             "actor": "c1", "args": {"to": "s1"}, "id": 3},
            {"seq": 1, "ts": 1, "cat": "kernel", "name": "run", "ph": "i"},
        ]
        assert recorder.records is not recorder.records  # rendered per access
        assert recorder.events[0].as_record() == recorder.records[0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_valid_emits(), max_size=30))
    def test_three_routes_one_verdict_and_the_old_recorders_bytes(
        self, tmp_path_factory, calls
    ):
        recorder, reference = TraceRecorder(), DictRecorder()
        for call in calls:
            recorder.emit(**call)
            reference.emit(**call)
        records = recorder.records
        assert _same_with_exact_types(records, reference.records)
        assert trace_lines(records) == trace_lines(reference.records)
        assert trace_digest(records) == trace_digest(reference.records)
        assert parse_events(recorder.events) == recorder.events
        assert parse_events(records) == recorder.events

        path = str(tmp_path_factory.mktemp("routes") / "t.jsonl")
        assert write_trace(records, path) == trace_digest(reference.records)
        verdicts = [
            check_trace_invariants(route, min_quorum=2).as_dict()
            for route in (recorder.events, records, read_trace(path))
        ]
        assert verdicts[0] == verdicts[1] == verdicts[2]
        assert verdicts[0]["counters"]["records"] == len(calls)

    @pytest.mark.parametrize(
        "call, problems", [case[1:] for case in _EMIT_CORPUS],
        ids=[case[0] for case in _EMIT_CORPUS],
    )
    def test_emit_judges_a_record_in_the_validators_words(self, call, problems):
        recorder = TraceRecorder()
        recorder.emit(ts=0.0, cat="kernel", name="run", ph="i")
        if not problems:
            recorder.emit(**call)
            (record,) = recorder.records[1:]
            assert _problems(record, 1) == []
            assert parse_events(recorder.records) == recorder.events
            return
        with pytest.raises(ConfigurationError) as caught:
            recorder.emit(**call)
        assert str(caught.value) == (
            "trace record 1: invalid: " + "; ".join(problems))
        assert len(recorder.events) == 1  # nothing half-recorded

    def test_the_corpus_reaches_emit(self):
        labels = {case[0] for case in _EMIT_CORPUS}
        assert {"unknown category", "unhashable phase", "bool ts", "bool id",
                "flow start without id", "non-str actor", "list args",
                "args dict subclass", "nan ts"} <= labels

    def test_typed_events_are_taken_without_validation_or_a_copy(
        self, monkeypatch
    ):
        recorder = TraceRecorder()
        for record in sample_records():
            recorder.emit(**emit_call_for(record))
        calls = []
        monkeypatch.setattr(
            "repro.obs.analysis.validate_record",
            lambda record, expect_seq=None: calls.append(expect_seq) or [])
        events = parse_events(recorder.events)
        assert all(map(lambda a, b: a is b, events, recorder.events))
        assert check_trace_invariants(recorder.events).ok
        assert calls == []

    def test_seq_counts_positions_in_typed_input_too(self):
        first, second = TraceRecorder(), TraceRecorder()
        for recorder in (first, second):
            recorder.emit(ts=0.0, cat="op", name="read", ph="B", actor="c1")
            recorder.emit(ts=1.0, cat="op", name="read", ph="E", actor="c1")
        assert check_trace_invariants(first.events).ok
        words = r"trace record 2: invalid: seq 0 out of order \(expected 2\)"
        for joined in (first.events + second.events,
                       first.records + second.records,
                       first.events + second.records):
            with pytest.raises(ConfigurationError, match=words):
                check_trace_invariants(joined)
            with pytest.raises(ConfigurationError, match=words):
                parse_events(joined)
        with pytest.raises(ConfigurationError, match="trace record 0: invalid: "
                           r"seq 1 out of order \(expected 0\)"):
            check_trace_invariants(first.events[1:])


#: One call of every ``Observer`` hook: (arguments, records it must emit).
_MESSAGE = Message(sender="c1", receiver="s1", kind="RC")
HOOK_CALLS = {
    "kernel_run": (dict(ready_hits=3, heap_hits=2, max_depth=4), 0),
    "message_sent": (dict(message=_MESSAGE, now=1.0), 1),
    "message_delivered": (dict(message=_MESSAGE, now=2.0), 1),
    "message_dropped": (dict(message=_MESSAGE, now=2.0, reason="crashed"), 1),
    "process_crashed": (dict(pid="s1", now=3.0), 1),
    "process_recovered": (dict(pid="s1", now=4.0), 1),
    "partition_started": (dict(groups=[["s2", "s1"], ["s3"]], now=5.0), 1),
    "partition_healed": (dict(released=2, now=6.0), 1),
    "operation_started": (
        dict(protocol="abd", pid="c1", kind="read", now=7.0), 1),
    "operation_restarted": (
        dict(protocol="abd", pid="c1", kind="read", now=7.5), 1),
    "quorum_phase": (
        dict(protocol="abd", pid="c1", phase="phase1", quorum_size=3, now=8.0),
        1),
    "operation_completed": (
        dict(protocol="abd", pid="c1", kind="read", now=9.0, restarts=1,
             contacted=3, latency=2.0), 1),
    "transfer_started": (dict(source="s1", target="s2", delta=0.25, now=10.0), 1),
    "transfer_completed": (
        dict(source="s1", target="s2", delta=0.25, effective=True, latency=1.0,
             now=11.0), 1),
    "read_changes_round": (dict(pid="s1"), 0),
    "weight_gain_refresh": (dict(pid="s2", depth=1, now=12.0), 1),
    "shard_routed": (dict(pid="c1", shard=0, kind="read"), 0),
    "control_round": (dict(prober="mon", index=0, now=13.0), 1),
}


class TestEveryHookRecordsAValidRecord:
    """``emit`` rejects a bad record where it is made, so a typo in an
    instrumentation site fails the first run that reaches it — this test
    reaches every one of them."""

    def test_every_hook_is_driven(self):
        hooks = {name for name, value in vars(Observer).items()
                 if callable(value) and not name.startswith("_")}
        assert hooks == set(HOOK_CALLS)

    def test_each_hook_renders_schema_valid_records(self, tmp_path):
        observer = Observer()
        for name, (arguments, emitted) in HOOK_CALLS.items():
            before = len(observer.trace.events)
            getattr(observer, name)(**arguments)
            assert len(observer.trace.events) - before == emitted, name
        records = observer.trace.records
        for seq, record in enumerate(records):
            assert _problems(record, seq) == []
            assert _plainly_valid(record, seq)
        assert {record["cat"] for record in records} == (
            set(TRACE_CATEGORIES) - {"kernel"})
        path = str(tmp_path / "hooks.jsonl")
        write_trace(records, path)
        assert check_trace_invariants(observer.trace.events).as_dict() == (
            check_trace_invariants(read_trace(path)).as_dict())

    def test_a_typo_in_a_hook_fails_at_the_hook(self, monkeypatch):
        observer = Observer()
        emit = observer.trace.emit
        monkeypatch.setattr(
            type(observer.trace), "emit",
            lambda self, **fields: emit(**{**fields, "cat": "fualt"}))
        with pytest.raises(ConfigurationError, match="trace record 0: invalid: "
                           "unknown category 'fualt'"):
            observer.process_crashed("s1", now=1.0)


class TestTraceGateTool:
    """``tools/check_trace.py`` (CI's trace job) holds the digests together."""

    @pytest.fixture(scope="class")
    def tool(self):
        import importlib.util
        import pathlib

        path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "check_trace.py"
        spec = importlib.util.spec_from_file_location("check_trace_tool", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_the_gate_holds_on_this_tree(self, tool, tmp_path, capsys):
        assert tool.main(["--keep", str(tmp_path / "fig1.jsonl")]) == 0
        assert "matches golden" in capsys.readouterr().out

    def test_a_digest_that_is_not_of_the_bytes_written_fails_the_gate(
        self, tool, tmp_path, capsys, monkeypatch
    ):
        def lying_write_trace(records, path):
            write_trace(records, path)
            return trace_digest(records[:-1])

        monkeypatch.setattr("repro.obs.write_trace", lying_write_trace)
        assert tool.main(["--keep", str(tmp_path / "fig1.jsonl")]) == 1
        assert "three digests of one fig1-walkthrough trace disagree" in (
            capsys.readouterr().err)
