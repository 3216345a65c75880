"""Compare two suite result files, or run an A/A check.

    python -m benchmarks.e2e.compare A.json B.json
    python -m benchmarks.e2e.compare --aa [--repeat R] [--seed N] [--smoke]

For every workload × end-to-end metric: A's and B's medians over the
runs in each file, how much worse B is as a share of A (the base), the
metric's bound, A's own run-to-run spread when it holds four or more
runs, and a verdict:

- ``ok``         B is not worse than A by more than the bound;
- ``regressed``  it is, and A's spread is within the bound;
- ``unresolved`` A's spread is wider than the bound, so neither can be
  claimed — unless every B run reads better than every A run (``ok``).

*Exact* counters (``sim_execute_s``, output cells, cells moved, miss
share) of runs with the same seed must agree bit for bit. Files stamped
with a different workload configuration or scale are refused; a
different host or toolchain is reported. ``--aa`` runs the suite twice,
back to back with the same seeds, and applies the comparison. Exits 1 on
any regression or exact-counter difference, 2 when the files cannot be
compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from benchmarks.e2e import stats
from benchmarks.e2e.__main__ import run_suite
from benchmarks.e2e.metrics import END_TO_END
from benchmarks.e2e.workloads import RUN_SECONDS, WORKLOADS

#: Stamp fields that make two files incomparable when they differ.
MUST_MATCH = ("config_hash", "seconds", "smoke")
#: Stamp fields whose difference is reported but not refused.
SHOULD_MATCH = ("nproc", "available_cpus", "python", "numpy", "kernel")


def _by_workload(suite: dict) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for run in suite["runs"]:
        if not run["trace"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def _values(runs: list[dict], metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def verdict(
    a: list[float], b: list[float], better: str, bound: float
) -> tuple[float, float | None, str]:
    """(B worse than A by this share of A, A's spread or None, verdict)."""
    base, other = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    if base:
        worse_by = sign * (other - base) / base
    else:
        # a zero base (failed_share): any increase is infinitely worse
        worse_by = 0.0 if sign * (other - base) <= 0 else float("inf")
    spread = stats.spread(a) if len(a) >= 4 else None
    if sign > 0:
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if spread is not None and spread > bound and not all_better and base:
        return worse_by, spread, "unresolved"
    return worse_by, spread, "ok" if worse_by <= bound else "regressed"


def comparable(a: dict, b: dict) -> list[str]:
    """Reasons the two files must not be compared (empty when fine)."""
    stamp_a, stamp_b = a["runs"][0]["provenance"], b["runs"][0]["provenance"]
    problems = [
        f"{key}: {stamp_a[key]!r} vs {stamp_b[key]!r}"
        for key in MUST_MATCH if stamp_a[key] != stamp_b[key]
    ]
    for key in SHOULD_MATCH:
        if stamp_a[key] != stamp_b[key]:
            print(f"# note: {key} differs: {stamp_a[key]!r} vs {stamp_b[key]!r}")
    return problems


def compare(a: dict, b: dict) -> int:
    """Print the table; returns the number of regressions + exact diffs."""
    runs_a, runs_b = _by_workload(a), _by_workload(b)
    bad = 0
    print(
        f"{'workload':14s} {'metric':15s} {'A':>12s} {'B':>12s} "
        f"{'B worse by':>11s} {'bound':>7s} {'A spread':>9s}  verdict"
    )
    for workload in runs_a:
        if workload not in runs_b:
            continue
        for name, unit, better, bound in END_TO_END:
            va, vb = _values(runs_a[workload], name), _values(runs_b[workload], name)
            worse_by, spread, word = verdict(va, vb, better, bound)
            bad += word == "regressed"
            shown = "     n/a" if spread is None else f"{spread:8.2%}"
            print(
                f"{workload:14s} {name:15s} {statistics.median(va):12.6g} "
                f"{statistics.median(vb):12.6g} {worse_by:+10.2%}  "
                f"{bound:6.1%} {shown}   {word}  [{unit}, base A, "
                f"n={len(va)}/{len(vb)}]"
            )
        seeds_b = {run["seed"]: run for run in runs_b[workload]}
        for run in runs_a[workload]:
            twin = seeds_b.get(run["seed"])
            if twin is not None and run["exact"] != twin["exact"]:
                bad += 1
                print(
                    f"{workload:14s} exact counters differ at seed "
                    f"{run['seed']}: {run['exact']} vs {twin['exact']}"
                )
    print(f"# {bad} regressed or differing")
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e.compare",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("files", nargs="*", type=Path, metavar="RESULT.json")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workload", action="append")
    parser.add_argument(
        "--out", type=Path, help="with --aa: stem for the two result files"
    )
    args = parser.parse_args(argv)
    if args.aa:
        suites = []
        for side in "AB":
            suite = run_suite(
                args.workload or list(WORKLOADS), args.seed, args.seconds,
                False, args.smoke, args.repeat, quiet=True,
            )
            if args.out is not None:
                path = args.out.with_name(f"{args.out.name}-{side}.json")
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(suite, indent=1) + "\n")
            suites.append(suite)
        a, b = suites
        if not (a["healthy"] and b["healthy"]):
            print("# a run failed or was incorrect", file=sys.stderr)
            return 1
    elif len(args.files) == 2:
        a, b = (json.loads(path.read_text()) for path in args.files)
    else:
        parser.error("give two result files, or --aa")
    problems = comparable(a, b)
    if problems:
        print("# not comparable: " + "; ".join(problems), file=sys.stderr)
        return 2
    return 1 if compare(a, b) else 0


if __name__ == "__main__":
    sys.exit(main())
