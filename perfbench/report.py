"""Turn measured phases into the named metrics and the attribution line."""

from __future__ import annotations

import math
import resource
import statistics
import time

from repro.cluster import FrameAssembler, decode_envelope, encode_data
from repro.costmodel.constants import PAPER_CONSTANTS
from repro.protocols.base import OpCounter

from spec import PER_LAYER
from workloads import Phase

_now = time.perf_counter

#: The layer whose time is whatever no span covers, per workload.
SUBSTRATE = {
    "analytic-intel": "network",
    "runtime-lossy": "runtime",
    "cluster-tcp": "cluster",
}


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def _median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def epochs_per_s(phase: Phase, scaled: bool = True) -> float:
    """Median over windows of epochs per (reference-speed) second."""
    return _median([w.epochs / (w.wall * (w.scale if scaled else 1.0)) for w in phase.windows])


def end_to_end(phase: Phase, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics: every time at the reference speed of
    :mod:`calibrate`, or as measured with ``scaled=False``."""
    scales = [w.scale if scaled else 1.0 for w in phase.windows]
    latencies = [x * k for w, k in zip(phase.windows, scales) for x in w.latencies]
    cpu = [w.cpu * k / (phase.num_sources * w.epochs) for w, k in zip(phase.windows, scales)]
    return {
        "epochs_per_s": epochs_per_s(phase, scaled),
        "cpu_us_per_source_epoch": _median(cpu) * 1e6,
        "epoch_ms_p50": percentile(latencies, 0.50) * 1e3,
        "epoch_ms_p90": percentile(latencies, 0.90) * 1e3,
        "wire_bytes_per_epoch": phase.wire_bytes / phase.epochs,
        "epoch_ok_ratio": 1.0 - len(phase.failed) / phase.epochs,
        "setup_s": _median([s * k for s, k in zip(phase.setups, scales, strict=True)]),
        "peak_rss_mb": peak_rss_mb(),
    }


def attribution(phase: Phase, workload: str) -> dict:
    """Each layer's self time and the unattributed rest of the traced wall time.

    The parts must add up to the wall time: a negative rest means spans
    overlapped or ran outside the measured window, and is a harness bug.
    """
    self_seconds = {layer: s for layer, s in sorted(phase.tracer.self_seconds.items())}
    rest = phase.wall - sum(self_seconds.values())
    if rest < -1e-6 * phase.wall:
        raise RuntimeError(
            f"layer self times {self_seconds} exceed the traced wall time {phase.wall:.6f} s"
        )
    parts = dict(self_seconds)
    parts[f"{SUBSTRATE[workload]} (unattributed)"] = rest
    total = sum(parts.values())
    if abs(total - phase.wall) > 1e-9 * max(1.0, phase.wall):
        raise RuntimeError(f"attribution sums to {total} s, traced wall is {phase.wall} s")
    return {
        "wall_s": phase.wall,
        "epochs": phase.epochs,
        "self_s": parts,
        "share": {name: s / phase.wall for name, s in parts.items()},
    }


def _model_ratio(measured: float, counts: dict[str, int]) -> float:
    modeled = PAPER_CONSTANTS.modeled_seconds(OpCounter(counts=dict(counts)))
    return measured / modeled if modeled > 0 else 0.0


def _prf_us(protocol, make) -> float:
    """Median µs of ``PRF.at_epoch`` on the deployment's own keys."""
    keys = protocol.keys
    prfs = [make(keys.keys_for_source(i)) for i in range(min(protocol.num_sources, 32))]
    epochs = range(1, 33)
    per_call = []
    for _ in range(7):
        start = _now()
        for epoch in epochs:
            for prf in prfs:
                prf.at_epoch(epoch)
        per_call.append((_now() - start) / (len(prfs) * len(epochs)))
    return statistics.median(per_call) * 1e6


def _per_frame_us(fn, items) -> float:
    per_item = []
    for _ in range(5):
        start = _now()
        for item in items:
            fn(item)
        per_item.append((_now() - start) / len(items))
    return statistics.median(per_item) * 1e6


def _envelope_us(phase: Phase) -> dict[str, float]:
    """Replay the cluster's envelope path on frames from the run.

    Coordinates (sender, uid, attempt) come from the observer's attempt
    events, inner frames from the codec, manifests from the tree (every
    source survives a lossless run).
    """
    events, codec, tree = phase.extra["events"], phase.extra["codec"], phase.extra["tree"]
    coords = events.attempts[-2000:]
    inner = codec.sample
    manifests = {}
    for sender, _, _ in coords:
        if sender not in manifests:
            manifests[sender] = frozenset(tree.leaves_under(sender))
    args = [
        dict(epoch=uid, sender=sender, uid=uid, attempt=attempt, manifest=manifests[sender],
             inner=inner[i % len(inner)])
        for i, (sender, uid, attempt) in enumerate(coords)
    ]
    frames = [encode_data(**kw) for kw in args]
    stream = b"".join(frames)
    chunks = [stream[off : off + (1 << 16)] for off in range(0, len(stream), 1 << 16)]

    def feed_all(_):
        assembler = FrameAssembler()
        for chunk in chunks:
            assembler.feed(chunk)

    return {
        "cluster.envelope_encode_us": _per_frame_us(lambda kw: encode_data(**kw), args),
        "cluster.envelope_decode_us": _per_frame_us(decode_envelope, frames),
        "cluster.frame_feed_us": _per_frame_us(feed_all, [None]) / len(frames),
    }


def per_layer(workload: str, base: Phase, traced: Phase) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of a traced phase; *base* is its untraced twin."""
    tracer = traced.tracer
    epochs = traced.epochs
    n = traced.num_sources
    counts = traced.counts
    ops = traced.ops
    line = attribution(traced, workload)
    share = line["share"]

    def median_us(layer: str, op: str) -> float:
        return _median(tracer.durations(layer, op)) * 1e6

    hmacs = sum(
        ops.get(kind, {}).get(op, 0) for kind in ("source", "querier") for op in ("hm256", "hm1")
    )
    codec = traced.extra["codec"]
    out = {name: 0.0 for name in PER_LAYER}
    out.update(
        {
            "epoch_fail_ratio": (len(base.failed) + len(traced.failed))
            / (base.epochs + traced.epochs),
            "datasets.reading_us": median_us("datasets", "reading"),
            "datasets.epoch_share": share.get("datasets", 0.0),
            "crypto.prf_sha256_us": _prf_us(traced.protocol, lambda k: k.pad_prf()),
            "crypto.prf_sha1_us": _prf_us(traced.protocol, lambda k: k.share_prf()),
            "crypto.hmac_per_source_epoch": hmacs / (n * epochs),
            "core.initialize_us": median_us("core", "initialize"),
            "core.merge_us": median_us("core", "merge"),
            "core.evaluate_ms": median_us("core", "evaluate") / 1e3,
            "core.initialize_model_ratio": _model_ratio(
                tracer.total("core", "initialize"), ops.get("source", {})
            ),
            "core.merge_model_ratio": _model_ratio(
                tracer.total("core", "merge") + tracer.total("core", "finalize"),
                ops.get("aggregator", {}),
            ),
            "core.evaluate_model_ratio": _model_ratio(
                tracer.total("core", "evaluate"), ops.get("querier", {})
            ),
            "core.epoch_share": share.get("core", 0.0),
            "wire.encode_us": median_us("wire", "encode"),
            "wire.decode_us": median_us("wire", "decode"),
            "wire.frame_bytes": codec.encoded_bytes / codec.encoded_frames,
            "wire.epoch_share": share.get("wire", 0.0),
            f"{SUBSTRATE[workload]}.unattributed_share": share[
                f"{SUBSTRATE[workload]} (unattributed)"
            ],
            "bench.trace_overhead": epochs_per_s(traced) / epochs_per_s(base),
        }
    )
    if workload == "runtime-lossy":
        out.update(
            {
                "runtime.attempts_per_parcel": counts["attempts"] / counts["parcels"],
                "runtime.retransmissions_per_epoch": counts["retransmissions"] / epochs,
                "runtime.gave_up": counts["gave_up"] / epochs,
                "runtime.events_per_epoch": counts["events"] / epochs,
                "runtime.late_arrivals": counts["late_arrivals"] / epochs,
                "runtime.fault_draw_us": median_us("runtime", "attempt"),
            }
        )
    if workload == "cluster-tcp":
        hops = traced.extra["events"].hop_seconds()
        lags = traced.extra["lags"]
        draws = tracer.durations("cluster", "data_verdict") + tracer.durations(
            "cluster", "ack_verdict"
        )
        out.update(
            {
                "cluster.attempts_per_parcel": counts["attempts"] / counts["parcels"],
                "cluster.excess_attempts_ratio": (counts["attempts"] - counts["oracle_attempts"])
                / counts["oracle_attempts"],
                "cluster.duplicates_suppressed_per_epoch": counts["duplicates_suppressed"] / epochs,
                "cluster.late_frames": counts["late_frames"] / epochs,
                "cluster.gave_up": counts["gave_up"] / epochs,
                "cluster.hop_ms_p50": percentile(hops, 0.50) * 1e3,
                "cluster.hop_ms_p90": percentile(hops, 0.90) * 1e3,
                "cluster.loop_lag_ms_p50": percentile(lags, 0.50) * 1e3,
                "cluster.loop_lag_ms_p90": percentile(lags, 0.90) * 1e3,
                "cluster.keyed_draw_us": _median(draws) * 1e6,
            }
        )
        out.update(_envelope_us(traced))
    # Times at the reference speed, as for the end-to-end metrics; the
    # ratios of two times taken in the same window need no scale.
    for name in out:
        if PER_LAYER[name][0] in ("us", "ms") or name.endswith("_model_ratio"):
            out[name] *= traced.scale
    return out, line


def with_units(values: dict[str, float], spec: dict) -> dict[str, dict]:
    return {name: {"value": values[name], "unit": spec[name][0]} for name in spec}

