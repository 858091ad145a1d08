"""What the benchmark reports: workloads and metrics, names and units.

``BENCHMARK.json`` at the repository root lists the same names; the
self-test (``selftest.py``) fails when the two disagree or when a run
does not emit every name here with its unit.
"""

from __future__ import annotations

#: name -> why the workload exists (one line each).
WORKLOADS = {
    "analytic-intel": (
        "NetworkSimulator N=256 with the live Intel-Lab synthesizer: the only "
        "workload where datasets runs inside the measured epoch"
    ),
    "runtime-lossy": (
        "RuntimeSimulator N=1024, 20% loss on every radio hop: ARQ, scheduler and "
        "fault injector carry the epoch; querier evaluates failure subsets"
    ),
    "cluster-tcp": (
        "EpochOrchestrator N=64 over localhost TCP, default ClusterConfig: asyncio, "
        "sockets, envelopes, framing and the keyed fault oracle"
    ),
}

#: name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "epochs_per_s": ("1/s", "higher", 0.2),
    "cpu_us_per_source_epoch": ("us", "lower", 0.2),
    "epoch_ms_p50": ("ms", "lower", 0.2),
    "epoch_ms_p90": ("ms", "lower", 0.25),
    "wire_bytes_per_epoch": ("B", "lower", 0.1),
    "epoch_ok_ratio": ("1", "higher", 0.02),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: name -> (unit, better); a layer that does not run on a workload reports 0.
PER_LAYER = {
    "epoch_fail_ratio": ("1", "lower"),
    "datasets.reading_us": ("us", "lower"),
    "datasets.epoch_share": ("1", "lower"),
    "crypto.prf_sha256_us": ("us", "lower"),
    "crypto.prf_sha1_us": ("us", "lower"),
    "crypto.hmac_per_source_epoch": ("count", "lower"),
    "core.initialize_us": ("us", "lower"),
    "core.merge_us": ("us", "lower"),
    "core.evaluate_ms": ("ms", "lower"),
    "core.initialize_model_ratio": ("1", "lower"),
    "core.merge_model_ratio": ("1", "lower"),
    "core.evaluate_model_ratio": ("1", "lower"),
    "core.epoch_share": ("1", "lower"),
    "wire.encode_us": ("us", "lower"),
    "wire.decode_us": ("us", "lower"),
    "wire.frame_bytes": ("B", "lower"),
    "wire.epoch_share": ("1", "lower"),
    "network.unattributed_share": ("1", "lower"),
    "runtime.attempts_per_parcel": ("count", "lower"),
    "runtime.retransmissions_per_epoch": ("count", "lower"),
    "runtime.gave_up": ("1/epoch", "lower"),
    "runtime.events_per_epoch": ("count", "lower"),
    "runtime.late_arrivals": ("1/epoch", "lower"),
    "runtime.fault_draw_us": ("us", "lower"),
    "runtime.unattributed_share": ("1", "lower"),
    "cluster.attempts_per_parcel": ("count", "lower"),
    "cluster.excess_attempts_ratio": ("1", "lower"),
    "cluster.duplicates_suppressed_per_epoch": ("count", "lower"),
    "cluster.late_frames": ("1/epoch", "lower"),
    "cluster.gave_up": ("1/epoch", "lower"),
    "cluster.hop_ms_p50": ("ms", "lower"),
    "cluster.hop_ms_p90": ("ms", "lower"),
    "cluster.loop_lag_ms_p50": ("ms", "lower"),
    "cluster.loop_lag_ms_p90": ("ms", "lower"),
    "cluster.keyed_draw_us": ("us", "lower"),
    "cluster.envelope_encode_us": ("us", "lower"),
    "cluster.envelope_decode_us": ("us", "lower"),
    "cluster.frame_feed_us": ("us", "lower"),
    "cluster.unattributed_share": ("1", "lower"),
    "bench.trace_overhead": ("1", "higher"),
}
