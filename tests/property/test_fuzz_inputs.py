"""Fuzz-style robustness: hostile inputs raise library errors, never crash.

Wire-facing parsers (query payloads, predicates, trace lines) and
value-facing codecs must respond to arbitrary input with a
:class:`repro.errors.ReproError` subclass (or succeed) — attribute
errors, index errors or infinite loops on attacker-controlled bytes
would be vulnerabilities in a real deployment.
"""

from __future__ import annotations

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layout import MessageLayout
from repro.errors import ParameterError, ReproError
from repro.obs.trace import EVENT_KINDS, ObsEvent, TraceRecorder
from repro.queries.predicates import parse_predicate
from repro.queries.query import Query

LAYOUT = MessageLayout(value_bits=32, pad_bits=10, share_bits=160)


@settings(max_examples=200)
@given(st.binary(max_size=200))
def test_query_from_wire_never_crashes(payload: bytes) -> None:
    try:
        query = Query.from_wire(payload)
    except ReproError:
        return
    # a successful parse must round-trip
    assert Query.from_wire(query.to_wire()) == query


@settings(max_examples=200)
@given(st.text(max_size=60))
def test_parse_predicate_never_crashes(text: str) -> None:
    try:
        predicate = parse_predicate(text)
    except ReproError:
        return
    assert parse_predicate(predicate.serialize()) == predicate


@settings(max_examples=200)
@given(st.integers(min_value=-(2**300), max_value=2**300))
def test_layout_decode_never_crashes(message: int) -> None:
    try:
        value, secret = LAYOUT.decode(message)
    except ReproError:
        return
    assert 0 <= value <= LAYOUT.max_value
    assert 0 <= secret < 1 << LAYOUT.secret_bits


_TRACE_LINE = (
    '{"seq":3,"sub":"runtime","run":"r","kind":"drop","epoch":2,'
    '"edge":"S-A","from":4,"to":1,"attempt":0}'
)


@settings(max_examples=200)
@given(
    st.one_of(
        st.text(max_size=120),
        # Mutations of a valid record reach past the JSON parser.
        st.builds(
            lambda cut, junk: _TRACE_LINE[:cut] + junk + _TRACE_LINE[cut:],
            st.integers(min_value=0, max_value=len(_TRACE_LINE)),
            st.text(max_size=8),
        ),
        st.dictionaries(
            st.sampled_from(["seq", "sub", "run", "kind", "epoch", "edge", "from", "to", "time"]),
            st.one_of(st.text(max_size=6), st.integers(), st.floats(), st.booleans(), st.none()),
        ).map(json.dumps),
    )
)
def test_trace_event_parser_rejects_junk(line: str) -> None:
    """Trace files come from outside the program: only ParameterError escapes."""
    try:
        event = ObsEvent.from_json(line)
    except ParameterError:
        pass
    else:
        assert isinstance(event.sequence, int) and event.kind in EVENT_KINDS
    flat = line.replace("\n", " ")
    try:
        recorder = TraceRecorder.read_jsonl(io.StringIO(f"{_TRACE_LINE}\n{flat}\n"))
    except ParameterError as exc:
        assert str(exc).startswith("line 2: ")
    else:
        assert recorder.events[0] == ObsEvent.from_json(_TRACE_LINE)


@settings(max_examples=100)
@given(
    st.dictionaries(
        st.sampled_from(["agg", "attr", "pred", "epoch_s", "junk"]),
        st.one_of(st.text(max_size=10), st.integers(), st.none()),
    )
)
def test_query_from_structured_junk(payload: dict) -> None:
    """Syntactically valid JSON with wrong shapes must raise QueryError."""
    try:
        Query.from_wire(json.dumps(payload).encode())
    except ReproError:
        pass


@settings(max_examples=100)
@given(st.integers(), st.integers(min_value=2, max_value=2**64))
def test_homomorphic_inputs_validated(m: int, p_like: int) -> None:
    """encrypt() rejects out-of-range plaintexts instead of wrapping."""
    from repro.crypto.homomorphic import encrypt

    try:
        c = encrypt(m, 3, 5, p_like)
    except ReproError:
        assert m < 0 or m >= p_like or 3 % p_like == 0
        return
    assert 0 <= c < p_like
