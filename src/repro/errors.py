"""Exception hierarchy for the shuffle join framework.

All library errors derive from :class:`ReproError` so callers can catch a
single type at API boundaries while tests can assert on specific failures.
"""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """An array schema is malformed or two schemas are incompatible."""


class ParseError(ReproError):
    """A schema literal, AQL query, or AFL expression failed to parse."""


class CatalogError(ReproError):
    """A system-catalog lookup or registration failed."""


class PlanningError(ReproError):
    """The logical or physical planner could not produce a valid plan."""


class ExecutionError(ReproError):
    """Shuffle join execution failed."""


class Overloaded(ExecutionError):
    """The serving front end refused a query under admission control.

    Raised by :class:`repro.serve.server.JoinServer` when the in-flight
    plus queued query count has reached the configured bound and the
    overload policy is ``"shed"``, or when a query arrives after
    shutdown. Callers should treat it as retryable back-pressure.
    """


class SolverError(ReproError):
    """An ILP planner cannot run as configured (a non-positive time budget)."""
