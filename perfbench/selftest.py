#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size; gates on no wall time.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* ``BENCHMARK.json`` names exactly the workloads and metrics of
  :mod:`spec`, with the same units, directions and bounds;
* every workload, untraced and traced, at N=16 for 3 epochs, prints a
  last line with exactly ``correct``/``attempted``/``failed``/``metrics``
  and every metric of its kind with its unit, and that its answer check
  ran on every epoch (``correct`` is true only then);
* the answer check flags a wrong SUM;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

TINY = ["--sources", "16", "--epochs", "3", "--seconds", "1", "--seed", "7"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def check_spec_file() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"], doc["command"]
    assert doc["paths"] == ["perfbench"], doc["paths"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == WORKLOADS
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in doc["end_to_end"])


def check_workload(name: str, trace: int) -> None:
    proc = _run(ROOT, "--workload", name, "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert last["correct"] is True, last
    assert last["attempted"] >= 3 and last["failed"] == 0, last
    spec = PER_LAYER if trace else END_TO_END
    assert set(last["metrics"]) == set(spec), set(last["metrics"]) ^ set(spec)
    for metric, entry in last["metrics"].items():
        assert set(entry) == {"value", "unit"}, entry
        assert entry["unit"] == spec[metric][0], (metric, entry)
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), entry
    if not trace:
        assert all(last["metrics"][m]["value"] > 0 for m in END_TO_END), last["metrics"]


def check_answer_check_flags_wrong_sum() -> None:
    from workloads import Phase, _check_epoch

    phase = Phase(num_sources=2)
    readings = {0: 10, 1: 20}
    good = SimpleNamespace(verified=True, exact=True, value=30)
    bad = SimpleNamespace(verified=True, exact=True, value=31)
    _check_epoch(phase, 1, good, None, (0, 1), readings)
    _check_epoch(phase, 2, bad, None, (0, 1), readings)
    _check_epoch(phase, 3, None, "MessageLost", (), readings)
    assert phase.wrong == [2], phase.wrong
    assert sorted(phase.failed) == [2, 3] and phase.checked == 3, phase.failed


def check_refuses_without_program() -> None:
    stripped = ROOT / ".perfbench" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped / "BENCHMARK.json")
    shutil.copytree(HERE, stripped / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(stripped, "--workload", "analytic-intel", "--trace", "0", *TINY)
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert not any(line.startswith("{") for line in proc.stdout.splitlines()), proc.stdout


def main() -> int:
    checks = [("BENCHMARK.json matches spec", check_spec_file),
              ("answer check flags a wrong SUM", check_answer_check_flags_wrong_sum),
              ("refuses to run without the program", check_refuses_without_program)]
    for name in WORKLOADS:
        for trace in (0, 1):
            checks.append((f"{name} trace={trace}", lambda n=name, t=trace: check_workload(n, t)))
    for label, check in checks:
        check()
        print(f"ok  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
