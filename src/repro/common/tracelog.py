"""Structured trace recording (adapter over :mod:`repro.obs`).

The simulator emits one :class:`TraceRecord` per interesting state change
(job arrival, task start/finish, sub-job batch launch ...).  Traces power
the metrics layer, debugging, and the assertions in integration tests —
they are the simulated analogue of a Hadoop job-history log.

Historically :class:`TraceLog` stored records itself; it is now a thin
adapter over an :class:`repro.obs.tracer.Tracer`, so simulator instants
land in the same event stream as spans and can be exported to Chrome
trace JSON alongside wall-time traces from the local runtime.  The query
API (``filter``/``first``/``last``/indexing) is unchanged and sees only
the instantaneous records made through :meth:`TraceLog.record` — spans
recorded directly on the underlying tracer do not leak into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..obs.tracer import PHASE_INSTANT, TraceEvent, Tracer


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """A single timestamped event.

    Attributes
    ----------
    time:
        Simulation time in seconds.
    kind:
        Event category, e.g. ``"job.submit"`` / ``"task.finish"``.
    subject:
        Identifier of the entity the event concerns (job id, task id ...).
    detail:
        Free-form key/value payload.
    """

    time: float
    kind: str
    subject: str
    detail: dict[str, Any] = field(default_factory=dict)


class TraceLog:
    """An append-only, time-ordered event log.

    Records must be appended in non-decreasing time order — a small
    float-noise tolerance (:data:`TIME_TOLERANCE`) is allowed, anything
    beyond it raises ``ValueError`` to surface engine bugs early (the
    simulator's event loop guarantees ordering).

    Parameters
    ----------
    tracer:
        The event sink records are appended to.  ``None`` creates a
        private always-enabled sim-domain tracer.  A disabled tracer is
        rejected: the log *is* the record of what happened, so silently
        dropping records would corrupt metrics and tests.
    """

    #: Recording at ``last_time - TIME_TOLERANCE`` or later is accepted;
    #: earlier times raise.
    TIME_TOLERANCE = 1e-9

    def __init__(self, tracer: Tracer | None = None) -> None:
        if tracer is None:
            tracer = Tracer(name="sim", clock=lambda: 0.0)
        if not tracer.enabled:
            raise ValueError(
                "TraceLog requires an enabled tracer: the log is the "
                "authoritative event record and cannot drop entries")
        self._tracer = tracer
        self._last_time: float | None = None

    @property
    def tracer(self) -> Tracer:
        """The underlying event sink (shared with span instrumentation)."""
        return self._tracer

    def record(self, time: float, kind: str, subject: str, **detail: Any) -> None:
        """Append one record; ``detail`` becomes its payload as is.

        This is the simulator's hot path: one tracer event per call, and
        the ``detail`` dict the call builds is the only copy made.
        """
        last = self._last_time
        if last is not None and time < last - self.TIME_TOLERANCE:
            raise ValueError(
                f"trace time went backwards: {time} < {last} "
                f"(more than the {self.TIME_TOLERANCE} tolerance)")
        self._last_time = time
        self._tracer.instant_owned(time, kind, subject, "events", detail)

    @staticmethod
    def _to_record(event: TraceEvent) -> TraceRecord:
        return TraceRecord(time=event.ts, kind=event.name,
                           subject=event.subject, detail=event.args)

    def _view(self) -> list[TraceRecord]:
        return [self._to_record(e) for e in self._tracer.events()
                if e.phase == PHASE_INSTANT]

    def __len__(self) -> int:
        return sum(1 for e in self._tracer.events()
                   if e.phase == PHASE_INSTANT)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._view())

    def __getitem__(self, index: int) -> TraceRecord:
        return self._view()[index]

    def filter(self, kind: str | None = None,
               subject: str | None = None,
               predicate: Callable[[TraceRecord], bool] | None = None) -> list[TraceRecord]:
        """Return records matching all the given criteria."""
        out = []
        for rec in self._view():
            if kind is not None and rec.kind != kind:
                continue
            if subject is not None and rec.subject != subject:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def first(self, kind: str, subject: str | None = None) -> TraceRecord | None:
        """First record of ``kind`` (optionally for ``subject``), or None."""
        for rec in self._view():
            if rec.kind == kind and (subject is None or rec.subject == subject):
                return rec
        return None

    def last(self, kind: str, subject: str | None = None) -> TraceRecord | None:
        """Last record of ``kind`` (optionally for ``subject``), or None."""
        for rec in reversed(self._view()):
            if rec.kind == kind and (subject is None or rec.subject == subject):
                return rec
        return None

    def dump(self, limit: int | None = None) -> str:
        """Human-readable rendering (for debugging and examples)."""
        rows = self._view()
        if limit is not None:
            rows = rows[:limit]
        lines = []
        for rec in rows:
            detail = " ".join(f"{k}={v}" for k, v in sorted(rec.detail.items()))
            lines.append(f"[{rec.time:10.2f}] {rec.kind:<18} {rec.subject} {detail}".rstrip())
        return "\n".join(lines)
