"""Observability: sim-time tracing, defence forensics, metrics, reports.

``repro.obs`` is the third leg of the repo's tooling tripod — static
checks live in ``tools/abdlint.py``, runtime correctness in
:mod:`repro.check`, and *visibility* here:

* :mod:`repro.obs.record` — the record core both deterministic channels
  share: one gate (``REPRO_*`` env var / API / context managers, one
  ``is None`` test when off), one JSON coercion, one JSONL codec;
* :mod:`repro.obs.trace` — the span channel keyed to simulator time
  (round indices for the round trainer);
* :mod:`repro.obs.audit` — the defence-forensics channel: per-device
  decision records (aggregation evidence, consensus masks,
  injected-fault ground truth) and run manifests;
* :mod:`repro.obs.metrics` — deterministic counters/gauges/fixed-bucket
  histograms snapshotted into the trace stream;
* :mod:`repro.obs.export` — trace schema validation and Chrome
  ``trace_event`` export for ``about://tracing``;
* :mod:`repro.obs.audit_report` — detection precision/recall tables and
  cross-run regression diffs behind ``python -m repro audit``;
* :mod:`repro.obs.report` — the Table-V-style wait/compute/comm
  breakdown behind ``python -m repro report``.

Wall-clock time is not recorded here; ``simbench`` measures per-layer
wall time from outside the package (see ``simbench/README.md``).
"""

from repro.obs.audit import (
    AUDIT_SCHEMA_VERSION,
    AuditSchemaError,
    Auditor,
    audited,
    auditor,
    build_manifest,
    load_audit,
    load_manifest,
    manifest_path_for,
    validate_record,
    write_manifest,
)
from repro.obs.audit_report import (
    AuditDiff,
    AuditReport,
    DetectionStats,
    build_audit_report,
    diff_audit,
    render_audit_report,
    render_diff,
)
from repro.obs.export import (
    TraceSchemaError,
    load_trace,
    load_trace_lenient,
    to_chrome_trace,
    validate_event,
    write_chrome_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import PhaseBreakdown, RunReport, build_report, render_report
from repro.obs.trace import (
    TraceEvent,
    Tracer,
    disable,
    enable,
    enabled,
    env_trace_path,
    scoped,
    traced,
    tracer,
)

__all__ = [
    "AUDIT_SCHEMA_VERSION",
    "AuditSchemaError",
    "Auditor",
    "audited",
    "auditor",
    "build_manifest",
    "load_audit",
    "load_manifest",
    "manifest_path_for",
    "validate_record",
    "write_manifest",
    "AuditDiff",
    "AuditReport",
    "DetectionStats",
    "build_audit_report",
    "diff_audit",
    "render_audit_report",
    "render_diff",
    "TraceSchemaError",
    "load_trace",
    "load_trace_lenient",
    "to_chrome_trace",
    "validate_event",
    "write_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseBreakdown",
    "RunReport",
    "build_report",
    "render_report",
    "TraceEvent",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "env_trace_path",
    "scoped",
    "traced",
    "tracer",
]
