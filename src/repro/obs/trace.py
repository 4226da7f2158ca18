"""Span tracing keyed to simulator time, with deterministic JSONL output.

The trace is one of the two channels over :mod:`repro.obs.record`, which
owns the gate, the JSON coercion and the JSONL codec.  It is switched on
by ``REPRO_TRACE=1`` (or a file path, which also becomes the default
save target the CLI uses), by :func:`enable` / :func:`traced` /
:func:`scoped`, or by ``ABDHFLConfig(trace=True)``, which gives the
trainer a private tracer active for every round it runs.  When tracing
is off, every instrumentation site pays a single ``tracer() is None``
test (gated by ``benchmarks/bench_aggregation_kernels.py --overhead
trace``).

Timestamps are simulation time, or round indices for the
round-synchronous trainer — never the wall clock — so identical seeds
produce byte-identical trace files, and a traced run is bit-identical
to an untraced one.

Event model (one JSON object per line)
--------------------------------------
``name``
    What happened (``"local_compute"``, ``"pbft.view_change"``, ...).
``cat``
    Grouping used by consumers; the run-report renderer understands
    ``"compute"`` / ``"comm"`` / ``"wait"`` spans, ``"fault"`` instants
    and ``"metrics"`` samples.
``ph``
    ``"X"`` — a complete span (``t`` start, ``dur`` length),
    ``"i"`` — an instant, ``"C"`` — a metrics sample.
``t`` / ``dur``
    Sim-time seconds (event-driven runs) or round index (round trainer).
``actor``
    Optional integer node/device id.
``args``
    Free-form JSON-safe payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.obs.record import Gate, Sink, jsonable

__all__ = [
    "TraceEvent",
    "Tracer",
    "tracer",
    "enabled",
    "enable",
    "disable",
    "scoped",
    "traced",
    "env_trace_path",
]

#: Valid ``ph`` phase codes: span, instant, metrics sample.
PHASES: tuple[str, ...] = ("X", "i", "C")


@dataclass(frozen=True)
class TraceEvent:
    """One recorded trace event (already JSON-safe)."""

    name: str
    cat: str
    ph: str
    t: float
    dur: float | None = None
    actor: int | None = None
    args: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "t": self.t,
        }
        if self.dur is not None:
            out["dur"] = self.dur
        if self.actor is not None:
            out["actor"] = self.actor
        if self.args:
            out["args"] = self.args
        return out


class Tracer(Sink[TraceEvent]):
    """An in-memory event sink plus its metrics registry."""

    def __init__(self) -> None:
        super().__init__()
        self.metrics = MetricsRegistry()

    @property
    def events(self) -> list[TraceEvent]:
        """The recorded events, in execution order."""
        return self.rows

    def row_dict(self, row: TraceEvent) -> dict[str, object]:
        return row.as_dict()

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def instant(
        self,
        name: str,
        cat: str,
        t: float,
        actor: int | None = None,
        **args: object,
    ) -> None:
        """Record an instantaneous event at time ``t``."""
        t = float(t)
        if not math.isfinite(t):
            return  # a NaN timestamp carries no information worth keeping
        self.rows.append(
            TraceEvent(
                name=name,
                cat=cat,
                ph="i",
                t=t,
                actor=actor,
                args={k: jsonable(v) for k, v in args.items()},
            )
        )

    def span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        actor: int | None = None,
        **args: object,
    ) -> None:
        """Record a complete ``[start, end]`` span (``end >= start``)."""
        start = float(start)
        end = float(end)
        if not (math.isfinite(start) and math.isfinite(end)) or end < start:
            return
        self.rows.append(
            TraceEvent(
                name=name,
                cat=cat,
                ph="X",
                t=start,
                dur=end - start,
                actor=actor,
                args={k: jsonable(v) for k, v in args.items()},
            )
        )

    def snapshot_metrics(self, t: float) -> None:
        """Emit one ``"C"`` sample per registered metric at time ``t``."""
        t = float(t)
        if not math.isfinite(t):
            return
        for name, snap in self.metrics.snapshot().items():
            self.rows.append(
                TraceEvent(
                    name=name,
                    cat="metrics",
                    ph="C",
                    t=t,
                    args={k: jsonable(v) for k, v in snap.items()},
                )
            )


# ----------------------------------------------------------------------
# process-wide gating (the repro.obs.record core)
# ----------------------------------------------------------------------
gate: Gate[Tracer] = Gate("REPRO_TRACE", Tracer)


def tracer() -> Tracer | None:
    """The active tracer, or ``None`` when tracing is off.

    This is THE gate every instrumentation site checks; the disabled
    path is this single attribute read.
    """
    return gate.active


enabled = gate.enabled
enable = gate.enable
disable = gate.disable
scoped = gate.scoped
traced = gate.fresh
env_trace_path = gate.env_path
