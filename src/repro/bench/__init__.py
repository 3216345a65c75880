"""Benchmark harness: experiment runners for every table and figure.

Each ``run_*`` function in :mod:`repro.bench.experiments` regenerates one
evaluation artifact from Section 6 of the paper — the same workload
shape, parameter sweep, planner set, and reported rows/series — at
laptop scale. :mod:`repro.bench.harness` provides the shared plumbing
(regression fits, table formatting, experiment records).

These report the paper's simulated Eq 5-8 seconds. The engine's real
wall-clock speed is measured outside the package, by the benchmark in
``benchmarks/e2e`` (workloads and metrics listed in ``BENCHMARK.json``).
"""

from repro.bench.harness import (
    ExperimentRow,
    fit_linear_r2,
    fit_power_law,
    format_table,
)
from repro.bench.experiments import (
    run_adversarial_skew,
    run_fig5_fig6,
    run_fig7_merge_skew,
    run_fig8_hash_skew,
    run_fig9_beneficial_skew,
    run_fig10_scale_out,
    run_tab2_model_verification,
)

__all__ = [
    "ExperimentRow",
    "fit_linear_r2",
    "fit_power_law",
    "format_table",
    "run_adversarial_skew",
    "run_fig10_scale_out",
    "run_fig5_fig6",
    "run_fig7_merge_skew",
    "run_fig8_hash_skew",
    "run_fig9_beneficial_skew",
    "run_tab2_model_verification",
]
