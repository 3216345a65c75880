"""The repo's single end-to-end + per-layer benchmark.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line (the ``BENCHMARK.json``
contract); ``PYTHONPATH=src python -m benchmarks.e2e`` runs the whole
suite, one fresh child process per workload, and prints every metric as
``workload metric value unit n``. See ``README.md`` in this directory.
"""
