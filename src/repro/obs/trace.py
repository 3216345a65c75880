"""Thread-safe span tracing with Chrome trace-event export.

A :class:`Tracer` records nested *spans* — named intervals with start/end
timestamps and free-form attributes — from any number of threads at
once. Nesting is tracked per thread (each thread owns its own span
stack), finished spans are appended to one shared list under a lock, and
per-worker tracers created with :meth:`Tracer.worker` share the parent's
epoch so their spans merge onto one timeline (:meth:`Tracer.extend`),
which is how the process-pool execution path returns spans across
pickling boundaries.

Two export formats:

- :meth:`Tracer.chrome_trace` — the Chrome trace-event JSON object
  (``{"traceEvents": [...]}``, complete ``"X"`` events plus
  ``thread_name`` metadata), loadable in Perfetto / ``chrome://tracing``;
- :meth:`Tracer.jsonl_lines` — one JSON object per span, for grepping
  and programmatic diffing.

Spans land on *lanes* (Chrome "threads"): by default the recording
thread's name, overridable per tracer (worker tracers label themselves
``worker:nK``) and per raw span (the simulated network schedule exports
its transfer events onto per-destination ``net:*`` lanes).

Disabled tracers (the default everywhere) hand out one shared no-op
context manager, so instrumented call sites cost a single attribute
check — the same pattern as :class:`repro.obs.timers.PhaseProfiler`.

``python -m repro.obs.trace FILE`` validates an exported Chrome trace
file structurally (used by CI on the benchmark's traced run).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One finished span, on the owning tracer's timeline.

    ``start``/``end`` are seconds since the tracer's epoch; ``path`` is
    the slash-joined nesting path within the recording thread (raw spans
    inserted with :meth:`Tracer.add_span` use their own name).
    """

    name: str
    start: float
    end: float
    path: str
    lane: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullSpan:
    """Shared no-op span for disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """A span being recorded; finishes (and publishes) on ``__exit__``."""

    __slots__ = ("_tracer", "_stack", "name", "attrs", "_start", "_path")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> "_ActiveSpan":
        """Attach attributes to the span while it is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        stack = self._tracer._thread_stack()
        stack.append(self.name)
        self._stack = stack
        self._path = "/".join(stack)
        self._start = self._tracer.now()
        return self

    def __exit__(self, *exc) -> None:
        end = self._tracer.now()
        self._stack.pop()
        self._tracer._publish(
            Span(
                name=self.name,
                start=self._start,
                end=end,
                path=self._path,
                lane=self._tracer._lane(),
                attrs=self.attrs,
            )
        )


class Tracer:
    """Collects spans from any number of threads onto one timeline."""

    def __init__(
        self,
        enabled: bool = True,
        epoch: float | None = None,
        default_lane: str | None = None,
    ):
        self.enabled = enabled
        #: perf_counter value all span timestamps are relative to;
        #: worker tracers inherit it so merged spans stay aligned.
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.default_lane = default_lane
        self._spans: list[Span] = []
        #: Deferred span groups: (shared span list, timeline offset).
        #: Materialised lazily on read — see :meth:`extend_rebased`.
        self._rebased: list[tuple[list[Span], float]] = []
        self._mutex = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------- recording

    def now(self) -> float:
        """Seconds since the tracer's epoch (monotonic)."""
        return time.perf_counter() - self.epoch

    def span(self, name: str, **attrs):
        """Context manager recording one nested span (no-op if disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        lane: str | None = None,
        **attrs,
    ) -> None:
        """Insert one raw span with explicit epoch-relative timestamps.

        Used for events whose timing is known rather than measured — the
        simulated shuffle schedule's transfer events, for example.
        """
        if not self.enabled:
            return
        self._publish(
            Span(
                name=name,
                start=start,
                end=end,
                path=name,
                lane=lane if lane is not None else self._lane(),
                attrs=attrs,
            )
        )

    def worker(self, lane: str) -> "Tracer":
        """A fresh tracer sharing this one's epoch, for one pool worker.

        The worker records into its own span list (safe to pickle back
        from a process-pool task); the coordinator merges the finished
        spans with :meth:`extend`.
        """
        return Tracer(enabled=self.enabled, epoch=self.epoch, default_lane=lane)

    def extend(self, spans: list[Span]) -> None:
        """Merge finished spans (from a worker tracer) onto the timeline."""
        if not self.enabled or not spans:
            return
        with self._mutex:
            self._spans.extend(spans)

    def extend_rebased(self, spans: list[Span], offset: float) -> None:
        """Merge a *shared* span list, shifted by ``offset``, lazily.

        Recording is O(1): the reference and offset are stored and the
        shifted copies are only materialised when the timeline is read.
        This is how the simulated shuffle schedule exports its (cached,
        per-schedule) transfer spans without paying thousands of object
        constructions on every traced execution. Callers must not mutate
        ``spans`` afterwards.
        """
        if not self.enabled or not spans:
            return
        with self._mutex:
            self._rebased.append((spans, offset))

    def _publish(self, span: Span) -> None:
        with self._mutex:
            self._spans.append(span)

    def _thread_stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _lane(self) -> str:
        if self.default_lane is not None:
            return self.default_lane
        name = threading.current_thread().name
        return "main" if name == "MainThread" else name

    # --------------------------------------------------------------- reading

    @property
    def spans(self) -> list[Span]:
        """Snapshot of the finished spans, in start-time order.

        Deferred (:meth:`extend_rebased`) groups are materialised here —
        shifted copies, leaving the shared originals untouched.
        """
        with self._mutex:
            snapshot = list(self._spans)
            for group, offset in self._rebased:
                snapshot.extend(
                    Span(
                        name=span.name,
                        start=span.start + offset,
                        end=span.end + offset,
                        path=span.path,
                        lane=span.lane,
                        attrs=span.attrs,
                    )
                    for span in group
                )
        return sorted(snapshot, key=lambda s: (s.start, s.end))

    def __len__(self) -> int:
        with self._mutex:
            return len(self._spans) + sum(
                len(group) for group, _ in self._rebased
            )

    def clear(self) -> None:
        with self._mutex:
            self._spans.clear()
            self._rebased.clear()

    # --------------------------------------------------------------- exports

    def chrome_trace(self) -> dict:
        """The Chrome trace-event JSON object for this timeline.

        One complete (``"X"``) event per span — timestamps in
        microseconds, as the format requires — plus one ``thread_name``
        metadata event per lane so Perfetto labels the tracks.
        """
        spans = self.spans
        lanes: dict[str, int] = {}
        for span in spans:
            lanes.setdefault(span.lane, len(lanes))
        events: list[dict] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": lane},
            }
            for lane, tid in lanes.items()
        ]
        for span in spans:
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": lanes[span.lane],
                    "args": {"path": span.path, **span.attrs},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path) -> int:
        """Write the Chrome trace JSON to ``path``; returns span count."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")
        return len(self)

    def jsonl_lines(self) -> list[str]:
        """One JSON object per span (start/dur in seconds)."""
        return [
            json.dumps(
                {
                    "name": span.name,
                    "path": span.path,
                    "lane": span.lane,
                    "start": span.start,
                    "dur": span.duration,
                    "attrs": span.attrs,
                },
                sort_keys=True,
            )
            for span in self.spans
        ]


#: Shared always-off tracer for call sites that want a safe default.
#: Disabled tracers record nothing, so sharing one instance is safe.
NULL_TRACER = Tracer(enabled=False)


def validate_chrome_trace(payload) -> list[str]:
    """Structural check of a Chrome trace-event object; returns errors.

    Verifies the shape Perfetto and ``chrome://tracing`` require:
    a ``traceEvents`` list of dict events, every event carrying a string
    ``name``, a known phase, integer ``pid``/``tid``, and — for complete
    events — non-negative numeric ``ts``/``dur``. An empty error list
    means the trace loads.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"trace must be a JSON object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    n_complete = 0
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: event must be an object")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"{where}: missing string name")
        phase = event.get("ph")
        if phase not in ("X", "M"):
            errors.append(f"{where}: unsupported phase {phase!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where}: {key} must be an integer")
        if phase == "X":
            n_complete += 1
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(f"{where}: {key} must be a number >= 0")
    if not errors and n_complete == 0:
        errors.append("trace contains no complete (ph=X) events")
    return errors


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.trace FILE`` — validate an exported trace."""
    import argparse

    parser = argparse.ArgumentParser(
        description="validate a Chrome trace-event JSON file"
    )
    parser.add_argument("path", help="trace file to check")
    args = parser.parse_args(argv)
    with open(args.path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            print(f"{args.path}: not valid JSON: {exc}")
            return 1
    errors = validate_chrome_trace(payload)
    if errors:
        for error in errors:
            print(f"{args.path}: {error}")
        return 1
    n_events = len(payload["traceEvents"])
    print(f"{args.path}: ok ({n_events} events)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
