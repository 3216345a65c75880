"""The compare tool's verdicts and its refusal of mismatched stamps."""

import copy

from benchmarks.e2e import compare
from benchmarks.e2e.metrics import END_TO_END

STAMP = {
    "git_sha": "x", "seed": 0, "seconds": 6.0, "smoke": False, "nproc": 2,
    "available_cpus": 2, "python": "3", "numpy": "2", "kernel": "numpy",
    "config_hash": "abc",
}


def _suite(steady_p50s, seed0=0):
    runs = []
    for offset, value in enumerate(steady_p50s):
        metrics = {
            name: {"value": 1.0, "unit": unit, "n": 1}
            for name, unit, _, _ in END_TO_END
        }
        metrics["steady_p50_s"]["value"] = value
        metrics["failed_share"]["value"] = 0.0
        runs.append(
            {
                "workload": "hash_skew", "trace": False,
                "seed": seed0 + offset, "metrics": metrics,
                "exact": {"sim_execute_s": 1.0}, "provenance": dict(STAMP),
            }
        )
    return {"healthy": True, "runs": runs}


def test_verdicts():
    lower = ("lower", 0.10)
    assert compare.verdict([1.0], [1.05], *lower)[2] == "ok"
    assert compare.verdict([1.0], [1.2], *lower)[2] == "regressed"
    assert compare.verdict([10.0], [8.0], "higher", 0.10)[2] == "regressed"
    noisy = [1.0, 1.3, 0.8, 1.4, 0.7]
    assert compare.verdict(noisy, [1.0] * 5, *lower)[2] == "unresolved"
    # every B run better than every A run settles it despite the spread
    assert compare.verdict(noisy, [0.5] * 5, *lower)[2] == "ok"
    # failed_share: zero base, any increase is a regression
    assert compare.verdict([0.0], [0.01], "lower", 0.0)[2] == "regressed"
    assert compare.verdict([0.0], [0.0], "lower", 0.0)[2] == "ok"


def test_compare_counts_regressions_and_exact_differences(capsys):
    a = _suite([1.0, 1.01, 0.99, 1.0])
    assert compare.compare(a, copy.deepcopy(a)) == 0
    assert compare.compare(a, _suite([1.5, 1.5, 1.5, 1.5])) == 1
    drifted = copy.deepcopy(a)
    drifted["runs"][0]["exact"]["sim_execute_s"] = 1.0000001
    assert compare.compare(a, drifted) == 1
    assert "exact counters differ" in capsys.readouterr().out


def test_other_configuration_or_scale_is_refused():
    a, b = _suite([1.0]), _suite([1.0])
    assert compare.comparable(a, b) == []
    b["runs"][0]["provenance"]["config_hash"] = "other"
    b["runs"][0]["provenance"]["seconds"] = 10.0
    assert len(compare.comparable(a, b)) == 2
