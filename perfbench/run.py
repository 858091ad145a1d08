#!/usr/bin/env python3
"""SIES benchmark: one closed-loop workload per run, every answer checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload analytic-intel --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing but the
answer checks attached.  ``--trace 1`` runs an untraced half and a
traced half of ``--seconds`` and reports the per-layer metrics, the
attribution line and the tracing overhead between the two halves.
Every time is reported at the reference speed of ``calibrate.py`` (the
host's speed is re-measured between windows); the record keeps the
times as measured too.
``--workload all`` runs the three workloads one after another, each in
a process of its own.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run also appends a
record — seed, host fingerprint, commit, metrics, attribution — to
``.perfbench/results.jsonl`` and, when traced, writes its spans to
``.perfbench/spans-<workload>-seed<seed>.npz`` at the checkout root.
A wrong SUM makes the command exit with status 1.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("analytic-intel", "runtime-lossy", "cluster-tcp")


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, and nothing else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'repro'}")
    sys.path[:0] = [str(src), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def host_fingerprint() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def program_version() -> dict:
    """The commit when the checkout is a git work tree, and always a digest
    of the program's source files (the benchmark may run outside git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                commit = loose.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
        else:
            commit = ref
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run_one(name: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    from instrument import Tracer
    from report import end_to_end, per_layer, with_units
    from spec import END_TO_END, PER_LAYER
    from workloads import MEASURE

    measure = MEASURE[name]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        phase = measure(sizes, seed, seconds, None)
        metrics = with_units(end_to_end(phase), END_TO_END)
        record["unscaled"] = end_to_end(phase, scaled=False)
        phases = [phase]
    else:
        half = dataclasses.replace(sizes, min_epochs=1)
        base = measure(half, seed, seconds / 2, None)
        tracer = Tracer()
        traced = measure(half, seed, seconds / 2, tracer)
        values, line = per_layer(name, base, traced)
        metrics = with_units(values, PER_LAYER)
        record["attribution"] = line
        tracer.write(OUT / f"spans-{name}-seed{seed}.npz")
        phases = [base, traced]
    wrong = [epoch for phase in phases for epoch in phase.wrong]
    failed = {epoch: why for phase in phases for epoch, why in phase.failed.items()}
    record.update(
        num_sources=phases[0].num_sources,
        start_epoch=phases[0].start_epoch,
        latency_samples=[sum(len(w.latencies) for w in phase.windows) for phase in phases],
        windows=[[dataclasses.astuple(w) for w in phase.windows] for phase in phases],
        scale=[phase.scale for phase in phases],
        setups=[phase.setups for phase in phases],
        failures={str(epoch): why for epoch, why in sorted(failed.items())},
        metrics=metrics,
    )
    return {
        "correct": not wrong and all(p.checked == p.epochs for p in phases),
        "attempted": sum(phase.epochs for phase in phases),
        "failed": len(failed),
        "metrics": metrics,
        "record": record,
    }


def _print_human(result: dict) -> None:
    record = result["record"]
    print(
        f"== {record['workload']}  N={record['num_sources']}  seed={record['seed']}  "
        f"start epoch {record['start_epoch']}  epochs {result['attempted']}  "
        f"failed {result['failed']}  latency samples {record['latency_samples']}  "
        f"host scale {', '.join(f'{k:.3f}' for k in record['scale'])}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    line = record.get("attribution")
    if line:
        parts = "  ".join(f"{k} {v:.3f}" for k, v in line["share"].items())
        print(f"  attribution of {line['wall_s']:.3f} s traced wall: {parts}  (sum 1.000)")
    for epoch, why in list(record["failures"].items())[:10]:
        print(f"  failed epoch {epoch}: {why}")


def _run_all(args) -> int:
    """Each workload in a process of its own (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.sources:
            cmd += ["--sources", str(args.sources)]
        if args.epochs:
            cmd += ["--epochs", str(args.epochs)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        if not proc.stdout.strip():
            combined["correct"] = False
            continue
        last = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sources", type=int, help="override N (self-test)")
    parser.add_argument("--epochs", type=int, help="run exactly this many epochs (self-test)")
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return _run_all(args)

    from workloads import FULL_SIZES

    sizes = FULL_SIZES[args.workload]
    if args.sources:
        sizes = dataclasses.replace(sizes, num_sources=args.sources)
    if args.epochs:
        sizes = dataclasses.replace(sizes, fixed_epochs=args.epochs)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    record = result.pop("record")
    record.update(host=host_fingerprint(), program=program_version())
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as out:
        out.write(json.dumps(record) + "\n")
    _print_human({**result, "record": record})
    print(f"  host {record['host']}  program {record['program']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
