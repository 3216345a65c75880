"""The metric names, units and bounds — one list the runner, the compare
tool, ``BENCHMARK.json`` and the tests all read.

``failed_share`` is an end-to-end metric of the suite (printed, stored,
compared: any increase is a regression) but is not listed in
``BENCHMARK.json``: it is 0 on a healthy run, a relative bound on 0 is
meaningless, and the contract's own ``attempted`` / ``failed`` /
``correct`` fields carry the same fact to the driver.
"""

from __future__ import annotations

#: (name, unit, better, bound): bound is the share of the baseline's
#: median by which the metric may worsen. The wall-clock bounds are the
#: widest the driver accepts, not the issue's 10-15 %: the widest
#: run-to-run spread measured on the 2-core sandbox is 18.9 % (A/A table
#: in README.md, numbers in AA_SPREAD.json), and a bound has to clear it.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cold_p50_s", "s", "lower", 0.25),
    ("steady_p50_s", "s", "lower", 0.25),
    ("steady_p90_s", "s", "lower", 0.25),
    ("steady_qps", "1/s", "higher", 0.25),
    ("failed_share", "ratio", "lower", 0.0),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    # Simulated Eq 5-8 seconds, not wall-clock: exact for a seed, and —
    # because the seed leaves the workload's shape alone — equal across
    # seeds, hence a unit of its own.
    ("sim_execute_s", "sim_s", "lower", 0.005),
)

#: Metrics a relative bound can be applied to (see the module docstring).
DRIVER_END_TO_END = tuple(m for m in END_TO_END if m[0] != "failed_share")

#: (name, unit, better). A workload whose path does not contain a layer
#: reports 0 for it.
PER_LAYER = (
    ("query.parse_s", "s", "lower"),
    ("serve.fingerprint_s", "s", "lower"),
    ("serve.cache_get_s", "s", "lower"),
    ("serve.cache_hit_share", "ratio", "higher"),
    ("serve.miss_share", "ratio", "lower"),
    ("serve.cache_evictions", "count", "lower"),
    ("serve.cache_entries", "count", "lower"),
    ("core.logical_plan_s", "s", "lower"),
    ("core.slice_mapping_s", "s", "lower"),
    ("core.n_units", "count", "lower"),
    ("core.units_split", "count", "higher"),
    ("core.subunits_created", "count", "lower"),
    ("core.physical_plan_s", "s", "lower"),
    ("core.plan_cost_s", "sim_s", "lower"),
    ("cluster.align_schedule_s", "s", "lower"),
    ("cluster.cells_moved", "count", "lower"),
    ("cluster.n_transfers", "count", "lower"),
    ("cluster.insert_p50_s", "s", "lower"),
    ("engine.execute_repeat_s", "s", "lower"),
    ("engine.match_kernel_s", "s", "lower"),
    ("engine.materialise_s", "s", "lower"),
    ("engine.dispatch_overhead_s", "s", "lower"),
    ("engine.output_cells", "count", "lower"),
    ("engine.output_cells_per_s", "1/s", "higher"),
    ("engine.arena_build_s", "s", "lower"),
    ("engine.pool_start_s", "s", "lower"),
    ("engine.shm_bytes", "count", "lower"),
    ("engine.leaked_shm_segments", "count", "lower"),
    ("engine.multijoin_order_s", "s", "lower"),
    ("engine.multijoin_stages_cold", "count", "lower"),
    ("engine.multijoin_stages_steady", "count", "lower"),
    ("engine.intermediate_cells", "count", "lower"),
    ("serve.queue_wait_p50_s", "s", "lower"),
    ("serve.queue_wait_p90_s", "s", "lower"),
    ("serve.backend_execute_p50_s", "s", "lower"),
    ("serve.overhead_p50_s", "s", "lower"),
    ("serve.concurrency_slowdown", "ratio", "lower"),
    ("serve.coalesced_share", "ratio", "higher"),
    ("serve.shed_count", "count", "lower"),
    ("serve.failed_count", "count", "lower"),
    ("serve.open5_p90_s", "s", "lower"),
    ("serve.open10_p90_s", "s", "lower"),
    ("serve.open20_p90_s", "s", "lower"),
    ("serve.open_late_p90_s", "s", "lower"),
    ("serve.open_max_rate_qps", "1/s", "higher"),
    ("bench.cold_residual_share", "ratio", "lower"),
    ("bench.steady_residual_share", "ratio", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
