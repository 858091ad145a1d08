"""Table II — primitive cost constants, measured on this host.

Regenerates the "Typical Value" column of the paper's Table II with
this library's primitives and compares against the paper's C++/GMP/
OpenSSL numbers.  Ratios >1 are the pure-Python overhead; what matters
downstream is that the *relative* magnitudes drive the same
conclusions, which the Table III/figure drivers verify.
"""

from __future__ import annotations

from repro.costmodel.constants import PAPER_SIZES
from repro.costmodel.microbench import measure_constants
from repro.experiments.paper_data import TABLE2_CONSTANTS_US, TABLE2_SIZES_BYTES
from repro.experiments.reporting import ExperimentReport, format_ratio, render_report

__all__ = ["run", "main"]


def run(*, repeat: int = 5, inner_loops: int = 200) -> ExperimentReport:
    """Measure Table II's constants here and compare with the paper."""
    host = measure_constants(repeat=repeat, inner_loops=inner_loops)
    host_us = host.as_microseconds()

    report = ExperimentReport(
        experiment_id="Table II",
        title="Symbols and values in the analysis (cost constants)",
        parameters={"repeat": repeat, "inner_loops": inner_loops},
        columns=["constant", "host (us)", "paper (us)", "host/paper"],
    )
    for name, paper_value in TABLE2_CONSTANTS_US.items():
        measured = host_us[name]
        report.add_row(
            name, f"{measured:.3f}", f"{paper_value:.3f}", format_ratio(measured, paper_value)
        )
    for name, size in TABLE2_SIZES_BYTES.items():
        ours = {"S_sk": PAPER_SIZES.s_sk, "S_inf": PAPER_SIZES.s_inf, "S_SEAL": PAPER_SIZES.s_seal}[name]
        report.add_row(name, f"{ours} B", f"{size} B", "1.00x")
    report.add_note(
        "host constants are medians of repeated batches; HMACs are OpenSSL's "
        "one-shot hmac.digest behind a Python call, RSA is CPython pow — both "
        "carry interpreter overhead the paper's C++ does not"
    )
    report.data = {"host_us": host_us, "paper_us": dict(TABLE2_CONSTANTS_US), "constants": host}
    return report


def main() -> None:
    """Print the regenerated report (and chart, for figures)."""
    print(render_report(run()))


if __name__ == "__main__":
    main()
