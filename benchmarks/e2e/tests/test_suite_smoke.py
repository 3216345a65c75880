"""The whole suite at --smoke scale: every workload × metric is printed
with its unit, exact counters repeat for a seed, nothing leaks, and the
contract command behaves as BENCHMARK.json promises."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.__main__ import print_record, run_suite
from benchmarks.e2e.metrics import DRIVER_END_TO_END, END_TO_END, PER_LAYER, UNITS
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
EXACT = (
    "sim_execute_s", "engine.output_cells", "cluster.cells_moved",
    "serve.miss_share",
)

#: Layers that only some workloads' paths contain.
ONLY_ON = {
    "cluster.insert_p50_s": {"serve_churn"},
    "engine.arena_build_s": {"hash_skew_shm"},
    "engine.pool_start_s": {"hash_skew_shm"},
    "engine.multijoin_order_s": {"chain4"},
    "engine.multijoin_stages_cold": {"chain4"},
    "engine.multijoin_stages_steady": {"chain4"},
    "engine.intermediate_cells": {"chain4"},
    "serve.queue_wait_p50_s": {"serve_mixed", "serve_churn"},
    "serve.queue_wait_p90_s": {"serve_mixed", "serve_churn"},
    "serve.backend_execute_p50_s": {"serve_mixed", "serve_churn"},
    "serve.overhead_p50_s": {"serve_mixed", "serve_churn"},
    "serve.coalesced_share": {"serve_mixed", "serve_churn"},
    "serve.shed_count": {"serve_mixed", "serve_churn"},
    "serve.failed_count": {"serve_mixed", "serve_churn"},
    "serve.concurrency_slowdown": {"serve_mixed"},
    "serve.open5_p90_s": {"serve_mixed"},
    "serve.open10_p90_s": {"serve_mixed"},
    "serve.open20_p90_s": {"serve_mixed"},
    "serve.open_late_p90_s": {"serve_mixed"},
    "serve.open_max_rate_qps": {"serve_mixed"},
}


@pytest.fixture(scope="module")
def suite():
    return run_suite(
        list(WORKLOADS), seed=11, seconds=6.0, trace=True, smoke=True,
        quiet=True,
    )


def _runs(suite, traced):
    return {r["workload"]: r for r in suite["runs"] if r["trace"] is traced}


def test_every_workload_ran_clean(suite):
    assert suite["healthy"]
    assert len(suite["runs"]) == 2 * len(WORKLOADS)
    for run in suite["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 100


def test_all_eight_end_to_end_metrics_on_all_seven_workloads(suite, capsys):
    runs = _runs(suite, traced=False)
    assert list(runs) == list(WORKLOADS)
    for run in runs.values():
        for name, unit, _, _ in END_TO_END:
            metric = run["metrics"][name]
            assert metric["unit"] == unit and metric["n"] >= 1
            if name != "failed_share":
                assert metric["value"] > 0
        assert run["metrics"]["failed_share"]["value"] == 0
        assert run["metrics"]["steady_p90_s"]["n"] >= 100
        print_record(run, [m[0] for m in END_TO_END])
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 7 * 8
    assert all(line.split()[3] == UNITS[line.split()[1]] for line in printed)


def test_per_layer_metrics_on_the_workloads_their_rows_name(suite):
    runs = _runs(suite, traced=True)
    for workload, run in runs.items():
        for name, unit, _ in PER_LAYER:
            expected = workload in ONLY_ON.get(name, WORKLOADS)
            assert (name in run["metrics"]) == expected, (workload, name)
            if expected:
                assert run["metrics"][name]["unit"] == unit
        assert run["metrics"]["engine.leaked_shm_segments"]["value"] == 0
        assert run["metrics"]["serve.cache_evictions"]["value"] == 0
    assert runs["serve_churn"]["metrics"]["serve.miss_share"]["value"] > 0.2
    assert runs["hash_skew"]["metrics"]["serve.cache_hit_share"]["value"] == 1.0
    assert runs["serve_mixed"]["metrics"]["serve.coalesced_share"]["value"] == 0
    assert runs["hash_skew_shm"]["metrics"]["engine.shm_bytes"]["value"] > 0
    assert runs["chain4"]["metrics"]["engine.multijoin_stages_cold"]["value"] == 3
    assert runs["chain4"]["metrics"]["engine.multijoin_stages_steady"]["value"] == 1


def test_trace_file_holds_parented_spans(suite):
    lines = (ROOT / "benchmarks/e2e/results/trace.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    by_id = {s["id"]: s for s in spans}
    assert {"id", "name", "start", "end", "parent", "request", "workload"} == set(spans[0])
    children = [s for s in spans if s["parent"] is not None]
    assert children
    for child in children:
        parent = by_id[child["parent"]]
        assert parent["start"] <= child["start"] <= child["end"] <= parent["end"]
        assert parent["request"] == child["request"]


def test_same_seed_repeats_the_exact_counters(suite):
    again = run_suite(
        ["merge_skew", "serve_churn"], seed=11, seconds=6.0, trace=False,
        smoke=True, quiet=True,
    )
    first = _runs(suite, traced=False)
    for run in again["runs"]:
        assert set(EXACT) <= set(run["exact"])
        assert run["exact"] == first[run["workload"]]["exact"]


def test_every_result_is_stamped(suite):
    for run in suite["runs"]:
        stamp = run["provenance"]
        assert {
            "git_sha", "seed", "nproc", "available_cpus", "python", "numpy",
            "kernel", "config_hash", "seconds", "smoke",
        } <= set(stamp)
        assert stamp["seed"] == 11 and stamp["kernel"] in ("numpy", "numba")
        assert run["requests"]["steady"] >= 48


def test_contract_line_and_the_bare_directory(tmp_path):
    command = [
        sys.executable, "benchmarks/e2e/run.py", "--workload", "dense_output",
        "--seed", "2", "--seconds", "6", "--trace", "0", "--smoke",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m[0] for m in DRIVER_END_TO_END]
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())

    # Only BENCHMARK.json and the benchmark's own directory: the program
    # is not there, so the command must fail without printing a result.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks/e2e", tmp_path / "benchmarks/e2e",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    bare = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True)
    assert bare.returncode != 0
    assert bare.stdout.strip() == ""


#: Runs its arguments as a command, adopting whatever that command leaves
#: behind (PR_SET_CHILD_SUBREAPER), and prints how many processes it
#: adopted: the pids still its children once the command has ended.
_ADOPT = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
done = subprocess.run(sys.argv[1:], capture_output=True)
adopted = 0
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        fields = open(f"/proc/{pid}/stat").read().rsplit(")", 1)[1].split()
    except OSError:
        continue
    adopted += int(fields[1]) == os.getpid()
print(done.returncode, adopted)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc")
def test_no_process_outlives_a_run():
    # The shared-memory path starts pool workers and multiprocessing's
    # resource tracker; the tracker ends only after its parent unless
    # the run stops it.
    done = subprocess.run(
        [
            sys.executable, "-c", _ADOPT,
            sys.executable, "benchmarks/e2e/run.py", "--workload",
            "hash_skew_shm", "--seed", "2", "--seconds", "6", "--trace", "0",
            "--smoke",
        ],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.stdout.split() == ["0", "0"], done.stderr
