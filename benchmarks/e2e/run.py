"""Run one workload once and print one JSON result line.

    python3 benchmarks/e2e/run.py --workload hash_skew --seed 1 \\
        --seconds 6 --trace 0

This is the command ``BENCHMARK.json`` names. ``--seconds`` is the
nominal measuring time: it scales every workload's request counts by one
common factor (``seconds / 20``; floors of 120 steady and 12 cold
requests), so the same ``--seconds`` means the same request counts on
every commit. ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` runs the staged, traced pass and reports the per-layer
metrics, writing spans to ``benchmarks/e2e/results/trace.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import traceback
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from benchmarks.e2e.metrics import DRIVER_END_TO_END, PER_LAYER, UNITS  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """The full result record of one run (metrics as Metric objects)."""
    from benchmarks.e2e import measure, staged
    from benchmarks.e2e.provenance import stamp
    from benchmarks.e2e.workloads import WORKLOADS, Scale

    scale = Scale.smoke() if smoke else Scale.for_seconds(seconds)
    spec = WORKLOADS[workload]
    if trace:
        RESULTS_DIR.mkdir(exist_ok=True)
        record = staged.traced(
            spec, seed, scale, RESULTS_DIR / "trace.jsonl"
        )
    else:
        record = measure.end_to_end(spec, seed, scale)
    record["provenance"] = stamp(seed, seconds, smoke)
    return record


def to_json(record: dict) -> dict:
    """A record with its Metric objects flattened for storage."""
    flat = dict(record)
    flat["metrics"] = {
        name: {"value": m.value, "unit": UNITS[name], "n": m.n}
        for name, m in record["metrics"].items()
    }
    return flat


def contract_line(record: dict) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    listed = PER_LAYER if record["trace"] else DRIVER_END_TO_END
    metrics = {}
    for name, unit, *_ in listed:
        metric = record["metrics"].get(name)
        metrics[name] = {
            "value": metric.value if metric is not None else 0.0,
            "unit": unit,
        }
    return json.dumps(
        {
            "correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": metrics,
        }
    )


def stop_processes() -> None:
    """Stop, and wait for, every process this run started.

    Pool workers are joined by ``shutdown_pools``. What is left is
    ``multiprocessing``'s resource tracker, which the first shared-memory
    arena starts: it ends only once its parent has gone, so it would
    outlive the run unless it is stopped and waited for here.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    try:
        from repro.engine.parallel import shutdown_pools
    except ImportError:  # the program is not here: nothing was started
        return
    shutdown_pools()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except Exception:
        # Printed and dropped here: the traceback would keep the run's
        # arenas alive, and freeing them later restarts the tracker.
        traceback.print_exc()
        return 1
    finally:
        gc.collect()
        stop_processes()


def _main(argv: list[str] | None) -> int:
    from benchmarks.e2e.workloads import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tenth-size inputs and the fewest requests that still "
        "support every reported statistic (harness tests)",
    )
    parser.add_argument(
        "--out", type=Path, help="also write the full result record here"
    )
    args = parser.parse_args(argv)
    record = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(to_json(record), indent=1) + "\n")
    print(contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
