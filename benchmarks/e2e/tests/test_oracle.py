"""The oracle joins correctly on its own and rejects a corrupted result."""

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.adm.cells import CellSet

from benchmarks.e2e import oracle
from benchmarks.e2e.measure import Checker, set_up
from benchmarks.e2e.workloads import WORKLOADS, Scale


def test_equi_join_equals_the_nested_loop():
    rng = np.random.default_rng(7)
    left = [rng.integers(0, 40, 300), rng.integers(0, 3, 300)]
    right = [rng.integers(0, 40, 200), rng.integers(0, 3, 200)]
    li, ri = oracle.equi_join(left, right)
    expected = {
        (i, j)
        for i in range(300)
        for j in range(200)
        if left[0][i] == right[0][j] and left[1][i] == right[1][j]
    }
    assert len(li) == len(expected)
    assert set(zip(li.tolist(), ri.tolist())) == expected


def test_equi_join_of_an_empty_side():
    none = np.empty(0, dtype=np.int64)
    li, ri = oracle.equi_join([none], [np.arange(5)])
    assert len(li) == len(ri) == 0


def test_digests_ignore_row_order_and_see_any_change():
    rng = np.random.default_rng(3)
    table = {"v": rng.integers(0, 9, 500), "w": rng.integers(0, 9, 500)}
    shuffled = {k: col[rng.permutation(500)] for k, col in table.items()}
    order = rng.permutation(500)
    reordered = {k: col[order] for k, col in table.items()}
    whole = oracle.Summary.of(table, with_digest=True)
    assert oracle.Summary.of(reordered, with_digest=True) == whole
    # permuting the columns independently changes the rows
    assert oracle.Summary.of(shuffled, with_digest=True) != whole
    corrupted = {k: col.copy() for k, col in table.items()}
    corrupted["w"][17] += 1
    assert not oracle.Summary.of(corrupted, with_digest=False).matches(whole)


def test_oracle_module_imports_nothing_from_the_engine():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.startswith("repro") for name in imported), imported


def _tampered(result):
    """The served result with one output value changed."""
    cells = result.cells
    name = cells.attr_names[0]
    changed = cells.column(name).copy()
    changed[0] += 1
    return SimpleNamespace(
        array=result.array,
        cells=CellSet(cells.coords, {**cells.attrs, name: changed}),
    )


def test_checker_counts_a_corrupted_result_as_a_failed_request():
    workload = WORKLOADS["hash_skew"]
    system = set_up(workload, seed=5, scale=Scale.smoke())
    try:
        result = system.request(0, None)
        checker = Checker(workload)
        checker.record(0, 0, result)
        assert checker.failed(system) == 0
        checker.record(0, 0, _tampered(result))
        assert checker.attempted == 2
        assert checker.failed(system) == 1
    finally:
        system.close()
