"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``demo`` — a self-contained end-to-end walkthrough on a small cluster;
- ``experiments [ids...]`` — print the paper-figure tables (all by
  default; see ``repro.bench.report.EXPERIMENT_RUNNERS`` for ids);
- ``report --out FILE [ids...]`` — regenerate a markdown results report;
- ``query`` — run ad-hoc statements against a fresh session seeded with
  two demo arrays (reads statements from the arguments);
- ``explain`` — plan a join against the demo session; ``--analyze``
  additionally executes it and prints the per-node predicted-vs-actual
  cost table (Equations 5-8 vs observed);
- ``monitor URL`` — snapshot (or ``--watch``) a running
  :class:`repro.serve.server.JoinServer` monitor endpoint: condensed
  ``/statz`` serving stats with rolling-window latency, or the raw
  Prometheus ``/metrics`` exposition with ``--metrics``.

The engine's wall-clock benchmark is not a command here; it is
``benchmarks/e2e`` (``PYTHONPATH=src python -m benchmarks.e2e``).

``demo`` and ``query`` accept ``--workers N`` to execute joins on a
worker pool (N > 1) instead of the serial per-unit path, and
``--trace FILE`` to record execution spans as Chrome trace-event JSON
(load the file in Perfetto / ``chrome://tracing``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.adm.cells import CellSet
from repro.session import Session


def _demo_session(
    n_nodes: int = 4, seed: int = 0, n_workers: int | None = None
) -> Session:
    """A session pre-loaded with two joinable demo arrays A and B."""
    rng = np.random.default_rng(seed)
    session = Session(n_nodes=n_nodes, n_workers=n_workers)
    for name in ("A", "B"):
        coords = np.unique(rng.integers(1, 65, size=(2500, 2)), axis=0)
        session.create_and_load(
            f"{name}<v:int64, w:float64>[i=1,64,8, j=1,64,8]",
            CellSet(
                coords,
                {
                    "v": rng.integers(0, 50, len(coords)),
                    "w": rng.uniform(0, 1, len(coords)),
                },
            ),
        )
    return session


def cmd_demo(args: argparse.Namespace) -> int:
    session = _demo_session(n_nodes=args.nodes, n_workers=args.workers)
    query = "SELECT A.v, B.v FROM A JOIN B ON A.i = B.i AND A.j = B.j"
    print("arrays:", ", ".join(session.arrays()))
    print()
    print(session.explain(query, planner="tabu").describe())
    print()
    result = session.execute(query, planner="tabu", trace=args.trace)
    print(result.report.describe())
    print(f"output: {result.array.n_cells} joined cells")
    if args.trace:
        print(f"trace: {len(result.trace)} spans -> {args.trace}")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench.report import EXPERIMENT_RUNNERS

    names = args.ids or list(EXPERIMENT_RUNNERS)
    for name in names:
        if name not in EXPERIMENT_RUNNERS:
            print(f"unknown experiment {name!r}; choose from "
                  f"{sorted(EXPERIMENT_RUNNERS)}", file=sys.stderr)
            return 2
        runner, kwargs = EXPERIMENT_RUNNERS[name]
        result = runner(**kwargs)
        print(result.table())
        if result.summary:
            print("summary:", result.summary)
        print()
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.bench.report import generate_report

    report = generate_report(args.ids or None, stream=sys.stderr)
    if args.out == "-":
        print(report)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from repro.query.aql import JoinQuery, MultiJoinQuery
    from repro.query.ddl import parse_statement

    session = _demo_session(n_nodes=args.nodes, n_workers=args.workers)
    for statement in args.statements:
        print(f">>> {statement}")
        # --planner applies to join statements only; Session rejects
        # options on statements that cannot honour them.
        is_join = isinstance(
            parse_statement(statement), (JoinQuery, MultiJoinQuery)
        )
        options = {"planner": args.planner} if is_join else {}
        if is_join and args.trace:
            options["trace"] = args.trace
        result = session.execute(statement, **options)
        if result is None:
            print("ok")
        elif hasattr(result, "report"):
            print(result.report.describe())
            print(f"output cells: {result.array.n_cells}")
            if getattr(result, "trace", None) is not None:
                print(f"trace: {len(result.trace)} spans -> {args.trace}")
        elif hasattr(result, "n_cells"):
            print(f"{result.n_cells} cells")
        else:
            print(result)
        print()
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    session = _demo_session(n_nodes=args.nodes, n_workers=args.workers)
    if args.analyze:
        report = session.explain_analyze(
            args.statement, planner=args.planner, trace=args.trace or None
        )
        print(report.describe())
        if args.trace:
            print(f"trace: {len(report.result.trace)} spans -> {args.trace}")
    else:
        print(session.explain(args.statement, planner=args.planner).describe())
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """Watch (or snapshot) a running JoinServer's monitor endpoint."""
    import time

    from repro.serve.monitor import scrape, scrape_statz

    def show_once() -> None:
        if args.metrics:
            sys.stdout.write(scrape(args.url))
            return
        statz = scrape_statz(args.url)
        window = statz.get("window", {})
        print(
            f"in_flight={statz.get('in_flight', 0)} "
            f"queued={statz.get('queued', 0)} "
            f"running={statz.get('running', 0)} | "
            f"admitted={statz.get('admitted', 0)} "
            f"completed={statz.get('completed', 0)} "
            f"failed={statz.get('failed', 0)} "
            f"shed={statz.get('shed', 0)} "
            f"coalesced={statz.get('coalesced', 0)} | "
            f"window[{window.get('seconds', 0):g}s] "
            f"n={window.get('count', 0)} "
            f"p50={window.get('p50', 0) * 1000:.1f}ms "
            f"p95={window.get('p95', 0) * 1000:.1f}ms "
            f"p99={window.get('p99', 0) * 1000:.1f}ms"
        )
        for tenant, entry in sorted(window.get("tenants", {}).items()):
            print(
                f"  {tenant}: n={entry.get('count', 0)} "
                f"p50={entry.get('p50', 0) * 1000:.1f}ms "
                f"p99={entry.get('p99', 0) * 1000:.1f}ms"
            )

    remaining = args.count if args.count > 0 else (1 if not args.watch else 0)
    while True:
        show_once()
        if remaining:
            remaining -= 1
            if not remaining:
                return 0
        time.sleep(args.watch)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Skew-aware shuffle join framework (SIGMOD 2015 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="end-to-end walkthrough")
    demo.add_argument("--nodes", type=int, default=4)
    demo.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool size for join execution (>1 enables batching)",
    )
    demo.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write the join's execution spans as Chrome trace JSON",
    )
    demo.set_defaults(func=cmd_demo)

    experiments = sub.add_parser(
        "experiments", help="print paper-figure tables"
    )
    experiments.add_argument("ids", nargs="*")
    experiments.set_defaults(func=cmd_experiments)

    report = sub.add_parser("report", help="write a markdown results report")
    report.add_argument("--out", default="-")
    report.add_argument("ids", nargs="*")
    report.set_defaults(func=cmd_report)

    query = sub.add_parser(
        "query", help="run statements against a demo session"
    )
    query.add_argument("statements", nargs="+")
    query.add_argument("--nodes", type=int, default=4)
    query.add_argument("--planner", default="tabu")
    query.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool size for join execution (>1 enables batching)",
    )
    query.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write each join's execution spans as Chrome trace JSON",
    )
    query.set_defaults(func=cmd_query)

    explain = sub.add_parser(
        "explain", help="plan (and with --analyze, profile) a join query"
    )
    explain.add_argument("statement")
    explain.add_argument("--nodes", type=int, default=4)
    explain.add_argument("--planner", default="tabu")
    explain.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool size when --analyze executes the join",
    )
    explain.add_argument(
        "--analyze", action="store_true",
        help="execute the query and print per-node predicted-vs-actual "
        "costs (Eqs 5-8) with skew statistics",
    )
    explain.add_argument(
        "--trace", default=None, metavar="FILE",
        help="with --analyze: also write the Chrome trace JSON",
    )
    explain.set_defaults(func=cmd_explain)

    monitor = sub.add_parser(
        "monitor",
        help="watch a running JoinServer's /statz (or dump /metrics)",
    )
    monitor.add_argument(
        "url", help="monitor base URL, e.g. http://127.0.0.1:9464"
    )
    monitor.add_argument(
        "--watch", type=float, default=0.0, metavar="SECONDS",
        help="refresh every SECONDS (default: one snapshot and exit)",
    )
    monitor.add_argument(
        "--count", type=int, default=0, metavar="N",
        help="stop after N snapshots (default: 1, or unbounded with --watch)",
    )
    monitor.add_argument(
        "--metrics", action="store_true",
        help="print the raw Prometheus /metrics exposition instead",
    )
    monitor.set_defaults(func=cmd_monitor)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
