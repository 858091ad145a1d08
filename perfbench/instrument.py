"""Measurement from outside the program.

Nothing here edits :mod:`repro`.  Every number is taken at a public
entry point the simulators already accept from their caller:

* the workload callable handed to a simulator (:class:`RecordingWorkload`);
* the role objects and codec handed out by a protocol facade
  (:class:`ProtocolFacade` delegates to the real protocol and wraps what
  ``create_source`` / ``create_aggregator`` / ``create_querier`` /
  ``wire_codec`` return);
* the public ``injector`` of the runtime and of ``EpochOrchestrator``
  (:func:`time_injector` swaps its verdict methods for timed ones on the
  shared instance, so every node that holds it is measured);
* the ``(kind, attrs)`` observer hook of the runtime and the cluster
  (:class:`EventLog`).

A :class:`Tracer` keeps every span in memory — layer, operation, epoch
id, start, end, parent span — and computes each layer's *self* time
(duration minus the part covered by child spans).  Spans of one epoch
share the epoch number as their id.  With no tracer, only what the
end-to-end metrics and the answer checks need is recorded: the readings
handed out, and when each epoch's first reading and its verdict
happened.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from pathlib import Path

from repro.protocols.base import OpCounter

_now = time.perf_counter


class Tracer:
    """In-memory span recorder with per-layer self time.

    Spans live in flat typed arrays (a traced runtime run records about
    a million of them): kind code, epoch id (-1 when none), start, end,
    parent index (-1 for a root span).
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Forget every span (the warm-up is not part of a measurement)."""
        self.kinds: list[tuple[str, str]] = []
        self._codes: dict[tuple[str, str], int] = {}
        self._kind = array("H")
        self._epoch = array("q")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        #: stack of [span index, seconds covered by finished children]
        self._stack: list[list] = []
        self.self_seconds: dict[str, float] = defaultdict(float)
        #: Epoch of the most recent observer event (the runtime's
        #: ``FaultInjector.attempt`` carries no epoch of its own).
        self.current_epoch: int | None = None
        self._last = -1

    def _code(self, layer: str, op: str) -> int:
        code = self._codes.get((layer, op))
        if code is None:
            code = self._codes[(layer, op)] = len(self.kinds)
            self.kinds.append((layer, op))
        return code

    def call(self, layer: str, op: str, epoch, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span and return its result."""
        stack = self._stack
        index = len(self._kind)
        self._kind.append(self._code(layer, op))
        self._epoch.append(-1 if epoch is None else epoch)
        self._parent.append(stack[-1][0] if stack else -1)
        self._start.append(0.0)
        self._end.append(0.0)
        frame = [index, 0.0]
        stack.append(frame)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            duration = end - start
            self.self_seconds[layer] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            self._start[index] = start
            self._end[index] = end
            self._last = index

    def label_last(self, epoch: int) -> None:
        """Set the epoch id of the span that finished last."""
        self._epoch[self._last] = epoch

    def durations(self, layer: str, op: str) -> list[float]:
        code = self._codes.get((layer, op))
        if code is None:
            return []
        return [e - s for k, s, e in zip(self._kind, self._start, self._end) if k == code]

    def total(self, layer: str, op: str) -> float:
        return sum(self.durations(layer, op))

    def write(self, path: Path) -> None:
        """Write every span (numpy ``.npz``) once the run has ended."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            kinds=np.array([f"{layer}.{op}" for layer, op in self.kinds]),
            kind=np.frombuffer(self._kind, dtype=np.uint16),
            epoch=np.frombuffer(self._epoch, dtype=np.int64),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            parent=np.frombuffer(self._parent, dtype=np.int64),
        )


class RecordingWorkload:
    """The workload callable handed to a simulator.

    Records every reading it hands out (the answer checks sum them) and
    the time and process CPU of each epoch's first reading, which is
    where an epoch starts on every substrate.  With *layer* set and a
    tracer, each call is a span of that layer.
    """

    def __init__(self, inner, tracer: Tracer | None = None, layer: str | None = None) -> None:
        self._inner = inner
        self._tracer = tracer if layer is not None else None
        self._layer = layer
        self.values: dict[int, dict[int, int]] = {}
        self.first_call: dict[int, tuple[float, float]] = {}

    def __call__(self, source_id: int, epoch: int) -> int:
        readings = self.values.get(epoch)
        if readings is None:
            readings = self.values[epoch] = {}
            self.first_call[epoch] = (_now(), time.process_time())
        if self._tracer is None:
            value = self._inner(source_id, epoch)
        else:
            value = self._tracer.call(self._layer, "reading", epoch, self._inner, source_id, epoch)
        readings[source_id] = value
        return value


class _TracedSource:
    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def initialize(self, epoch, value):
        return self._tracer.call("core", "initialize", epoch, self._inner.initialize, epoch, value)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _TracedAggregator:
    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def merge(self, epoch, psrs):
        return self._tracer.call("core", "merge", epoch, self._inner.merge, epoch, psrs)

    def finalize_for_querier(self, psr):
        return self._tracer.call(
            "core", "finalize", psr.epoch, self._inner.finalize_for_querier, psr
        )

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Querier:
    """Stamps each verdict (wall and CPU); a span too when traced."""

    def __init__(self, inner, tracer: Tracer | None, verdicts: dict) -> None:
        self._inner = inner
        self._tracer = tracer
        self._verdicts = verdicts

    def evaluate(self, epoch, psr, reporting_sources=None):
        try:
            if self._tracer is None:
                return self._inner.evaluate(epoch, psr, reporting_sources=reporting_sources)
            return self._tracer.call(
                "core",
                "evaluate",
                epoch,
                self._inner.evaluate,
                epoch,
                psr,
                reporting_sources=reporting_sources,
            )
        finally:
            self._verdicts[epoch] = (_now(), time.process_time())

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _TracedCodec:
    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.encoded_bytes = 0
        self.encoded_frames = 0
        #: The first inner frames encoded (the envelope replay uses them).
        self.sample: list[bytes] = []

    def encode(self, psr):
        frame = self._tracer.call("wire", "encode", psr.epoch, self._inner.encode, psr)
        self.encoded_bytes += len(frame)
        self.encoded_frames += 1
        if len(self.sample) < 4096:
            self.sample.append(frame)
        return frame

    def decode(self, frame):
        psr = self._tracer.call("wire", "decode", None, self._inner.decode, frame)
        self._tracer.label_last(psr.epoch)
        return psr

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ProtocolFacade:
    """Delegates to a real protocol; wraps the roles and codec it hands out.

    Role ledgers: the runtimes pass their own :class:`OpCounter` per
    role kind; the cluster passes none, so the facade supplies one per
    kind.  Either way :attr:`ledgers` names the counter each role kind
    charges.
    """

    def __init__(self, inner, tracer: Tracer | None = None) -> None:
        self._inner = inner
        self._tracer = tracer
        self.ledgers = {"source": OpCounter(), "aggregator": OpCounter(), "querier": OpCounter()}
        #: epoch -> (wall, process CPU) when the querier's verdict returned.
        self.verdicts: dict[int, tuple[float, float]] = {}
        self.codec: _TracedCodec | None = None

    def _ledger(self, kind: str, ops):
        if ops is None:
            return self.ledgers[kind]
        self.ledgers[kind] = ops
        return ops

    def create_source(self, source_id, *, ops=None):
        role = self._inner.create_source(source_id, ops=self._ledger("source", ops))
        return role if self._tracer is None else _TracedSource(role, self._tracer)

    def create_aggregator(self, *, ops=None):
        role = self._inner.create_aggregator(ops=self._ledger("aggregator", ops))
        return role if self._tracer is None else _TracedAggregator(role, self._tracer)

    def create_querier(self, *, ops=None):
        role = self._inner.create_querier(ops=self._ledger("querier", ops))
        return _Querier(role, self._tracer, self.verdicts)

    def wire_codec(self):
        codec = self._inner.wire_codec()
        if self._tracer is None:
            return codec
        self.codec = _TracedCodec(codec, self._tracer)
        return self.codec

    def __getattr__(self, name):
        return getattr(self._inner, name)


def time_injector(injector, tracer: Tracer, layer: str, methods: tuple[str, ...]) -> None:
    """Time *methods* of a shared fault injector instance as spans of *layer*.

    ``FaultInjector.attempt`` takes no epoch, so its spans take the epoch
    of the observer event that precedes every draw; the keyed verdicts
    take their parcel uid, which the cluster sets to the epoch.
    """
    for name in methods:
        bound = getattr(injector, name)
        if name == "attempt":
            def timed(*args, _fn=bound, _op=name):
                return tracer.call(layer, _op, tracer.current_epoch, _fn, *args)
        else:
            def timed(sender, receiver, edge, uid, attempt, _fn=bound, _op=name):
                return tracer.call(layer, _op, uid, _fn, sender, receiver, edge, uid, attempt)
        setattr(injector, name, timed)


class EventLog:
    """The ``(kind, attrs)`` observer: keeps attempts and hop timing."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        #: (sender, uid) -> observer time of its first attempt / first delivery.
        self.first_attempt: dict[tuple[int, int], float] = {}
        self.first_deliver: dict[tuple[int, int], float] = {}
        #: (sender, uid, attempt) of every attempt, in order.
        self.attempts: list[tuple[int, int, int]] = []

    def __call__(self, kind: str, attrs: dict) -> None:
        self._tracer.call("bench", "observer", attrs["epoch"], self._record, kind, attrs)

    def _record(self, kind: str, attrs: dict) -> None:
        self._tracer.current_epoch = attrs["epoch"]
        key = (attrs["sender"], attrs["uid"])
        if kind == "attempt":
            self.first_attempt.setdefault(key, attrs["time"])
            self.attempts.append((attrs["sender"], attrs["uid"], attrs["attempt"]))
        elif kind == "deliver":
            self.first_deliver.setdefault(key, attrs["time"])

    def hop_seconds(self) -> list[float]:
        return [
            self.first_deliver[key] - start
            for key, start in self.first_attempt.items()
            if key in self.first_deliver
        ]
