"""Run the whole suite: every workload in a fresh child process, one at a
time, each metric printed as ``workload metric value unit n``.

    PYTHONPATH=src python -m benchmarks.e2e [--seed N] [--trace]
        [--workload W ...] [--seconds S] [--repeat R] [--smoke] [--out FILE]

Without ``--trace`` the end-to-end pass runs (tracing off); with it the
traced, staged pass follows and the per-layer metrics are printed too.
The result file (``benchmarks/e2e/results/`` unless ``--out``) carries
every run's full record and provenance stamp; ``python -m
benchmarks.e2e.compare`` reads two of them. Exits non-zero when any
request failed, any result differed from the oracle, or anything leaked.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
from benchmarks.e2e.workloads import RUN_SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent
RESULTS_DIR = HERE / "results"

#: A child that has not finished by then is treated as hung.
CHILD_TIMEOUT_S = 600


def run_child(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict | None:
    """One workload in a fresh process; its full record, or None."""
    with tempfile.TemporaryDirectory(prefix="e2e-", dir=_scratch()) as tmp:
        out = Path(tmp) / "record.json"
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--out", str(out),
        ]
        if smoke:
            command.append("--smoke")
        try:
            done = subprocess.run(
                command, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            print(f"{workload}: no result after {CHILD_TIMEOUT_S}s", file=sys.stderr)
            return None
        if done.returncode != 0 or not out.exists():
            print(f"{workload}: child failed\n{done.stderr}", file=sys.stderr)
            return None
        return json.loads(out.read_text())


def _scratch() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def print_record(record: dict, names) -> None:
    for name in names:
        metric = record["metrics"].get(name)
        if metric is not None:
            print(
                f"{record['workload']:14s} {name:32s} "
                f"{metric['value']:.6g} {metric['unit']} n={metric['n']}"
            )


def run_suite(
    workloads: list[str], seed: int, seconds: float, trace: bool,
    smoke: bool, repeat: int = 1, quiet: bool = False,
) -> dict:
    """Every selected workload, ``repeat`` times (seeds seed, seed+1, ..)."""
    runs: list[dict] = []
    healthy = True
    passes = [False, True] if trace else [False]
    for repetition in range(repeat):
        for traced in passes:
            names = [m[0] for m in (PER_LAYER if traced else END_TO_END)]
            for workload in workloads:
                record = run_child(
                    workload, seed + repetition, seconds, traced, smoke
                )
                if record is None:
                    healthy = False
                    continue
                healthy = healthy and record["correct"]
                runs.append(record)
                if not quiet:
                    print_record(record, names)
    return {"healthy": healthy, "runs": runs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="run only this workload (repeatable); default all seven",
    )
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    suite = run_suite(
        args.workload or list(WORKLOADS), args.seed, args.seconds,
        args.trace, args.smoke, args.repeat,
    )
    out = args.out
    if out is None and suite["runs"]:
        stamp = suite["runs"][0]["provenance"]
        out = _scratch() / (
            f"{'smoke' if args.smoke else 'suite'}-"
            f"{stamp['git_sha'][:8]}-seed{args.seed}.json"
        )
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(suite, indent=1) + "\n")
        print(f"# wrote {out}")
    return 0 if suite["healthy"] else 1


if __name__ == "__main__":
    sys.exit(main())
