"""Markdown results-report generation.

Regenerates an EXPERIMENTS-style results file from live runs, so a
reproduction on new hardware (or after a code change) can diff its
numbers against the committed record::

    python -m repro report --out results.md fig7 fig9
"""

from __future__ import annotations

import io
import time

from repro.bench import ablations, experiments

#: Experiment registry: id -> (runner, kwargs) at bench-default scale.
EXPERIMENT_RUNNERS = {
    "fig5": (experiments.run_fig5_fig6, {}),
    "fig7": (experiments.run_fig7_merge_skew, {"ilp_budget_s": 2.0}),
    "fig8": (experiments.run_fig8_hash_skew, {"ilp_budget_s": 2.0}),
    "tab2": (experiments.run_tab2_model_verification, {"ilp_budget_s": 3.0}),
    "fig9": (experiments.run_fig9_beneficial_skew, {"ilp_budget_s": 2.0}),
    "adv": (experiments.run_adversarial_skew, {"ilp_budget_s": 2.0}),
    "fig10": (experiments.run_fig10_scale_out, {"ilp_budget_s": 2.0}),
    "abl-shuffle": (ablations.run_ablation_shuffle_policy, {}),
    "abl-tabu": (ablations.run_ablation_tabu_list, {}),
    "abl-buckets": (ablations.run_ablation_bucket_count, {}),
    "abl-bins": (ablations.run_ablation_coarse_bins, {}),
    "abl-order": (ablations.run_ablation_join_order, {}),
}


def _markdown_table(result) -> str:
    """Render an ExperimentResult's rows as a GitHub-flavoured table."""
    headers = result.label_keys + result.value_keys
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "---|" * len(headers)]
    for row in result.rows:
        cells = [str(row.labels.get(key, "")) for key in result.label_keys]
        for key in result.value_keys:
            value = row.values.get(key)
            cells.append("" if value is None else f"{value:.4g}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def generate_report(
    names: list[str] | None = None,
    stream: io.TextIOBase | None = None,
) -> str:
    """Run the selected experiments and return the markdown report."""
    selected = names or list(EXPERIMENT_RUNNERS)
    unknown = [name for name in selected if name not in EXPERIMENT_RUNNERS]
    if unknown:
        raise KeyError(
            f"unknown experiments {unknown}; choose from "
            f"{sorted(EXPERIMENT_RUNNERS)}"
        )
    sections = ["# Reproduction results", ""]
    for name in selected:
        runner, kwargs = EXPERIMENT_RUNNERS[name]
        started = time.perf_counter()
        result = runner(**kwargs)
        elapsed = time.perf_counter() - started
        sections.append(f"## {name}: {result.name}")
        sections.append("")
        sections.append(_markdown_table(result))
        if result.summary:
            sections.append("")
            summary = ", ".join(
                f"{key} = {value:.4g}" if isinstance(value, float)
                else f"{key} = {value}"
                for key, value in result.summary.items()
            )
            sections.append(f"summary: {summary}")
        sections.append("")
        sections.append(f"_(generated in {elapsed:.1f} s)_")
        sections.append("")
        if stream is not None:
            stream.write(f"{name} done in {elapsed:.1f}s\n")
    return "\n".join(sections)
