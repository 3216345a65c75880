"""Warm-path query serving: plan caching and the concurrent front end.

See :mod:`repro.serve.cache` for the bounded-LRU :class:`PlanCache`,
:mod:`repro.serve.fingerprint` for the content fingerprints that key it,
:mod:`repro.serve.server` for the admission-controlled
:class:`JoinServer` front end, and :mod:`repro.serve.monitor` for the
telemetry plane (the HTTP ``/metrics``/``/healthz``/``/statz`` monitor,
trace sampling, and slow-query capture). The ``serve_mixed`` and
``serve_churn`` workloads of ``benchmarks/e2e`` drive the front end
under load.
"""

from repro.serve.cache import CachedPipeline, CachedPlan, CachedStage, PlanCache
from repro.serve.fingerprint import (
    Fingerprint,
    array_token,
    canonical_query,
    plan_fingerprint,
)
from repro.serve.monitor import (
    MonitorServer,
    SlowQueryCapture,
    TraceSampler,
    scrape,
    scrape_statz,
)
from repro.serve.server import JoinServer, tenant_cache_stats

__all__ = [
    "MonitorServer",
    "SlowQueryCapture",
    "TraceSampler",
    "scrape",
    "scrape_statz",
    "CachedPlan",
    "CachedStage",
    "CachedPipeline",
    "PlanCache",
    "Fingerprint",
    "array_token",
    "canonical_query",
    "plan_fingerprint",
    "JoinServer",
    "tenant_cache_stats",
]
