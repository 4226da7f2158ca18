"""Trace schema validation and Chrome ``trace_event`` export.

The JSONL schema is deliberately tiny (see :mod:`repro.obs.trace`); this
module is its single authority: the loader validates every line, CI's
smoke job validates freshly-produced traces, and the Chrome exporter
maps validated events onto the `trace_event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
so any run opens in ``about://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable

from repro.obs.record import load_jsonl, save_text
from repro.obs.trace import PHASES, TraceEvent

__all__ = [
    "TraceSchemaError",
    "validate_event",
    "load_trace",
    "load_trace_lenient",
    "to_chrome_trace",
    "write_chrome_trace",
]


class TraceSchemaError(ValueError):
    """A trace event violates the JSONL schema."""


def _fail(context: str, message: str) -> None:
    raise TraceSchemaError(f"{context}: {message}" if context else message)


def validate_event(obj: object, context: str = "") -> dict[str, object]:
    """Validate one parsed JSONL object; returns it on success."""
    if not isinstance(obj, dict):
        _fail(context, f"event must be a JSON object, got {type(obj).__name__}")
        raise AssertionError("unreachable")
    for key in ("name", "cat"):
        value = obj.get(key)
        if not isinstance(value, str) or not value:
            _fail(context, f"{key!r} must be a non-empty string, got {value!r}")
    ph = obj.get("ph")
    if ph not in PHASES:
        _fail(context, f"'ph' must be one of {PHASES}, got {ph!r}")
    t = obj.get("t")
    if isinstance(t, bool) or not isinstance(t, (int, float)) or not math.isfinite(t):
        _fail(context, f"'t' must be a finite number, got {t!r}")
    if "dur" in obj:
        dur = obj["dur"]
        if (
            isinstance(dur, bool)
            or not isinstance(dur, (int, float))
            or not math.isfinite(dur)
            or dur < 0
        ):
            _fail(context, f"'dur' must be a finite number >= 0, got {dur!r}")
    if ph == "X" and "dur" not in obj:
        _fail(context, "span events (ph='X') require 'dur'")
    if "actor" in obj:
        actor = obj["actor"]
        if isinstance(actor, bool) or not isinstance(actor, int):
            _fail(context, f"'actor' must be an integer, got {actor!r}")
    if "args" in obj and not isinstance(obj["args"], dict):
        _fail(context, f"'args' must be an object, got {obj['args']!r}")
    unknown = set(obj) - {"name", "cat", "ph", "t", "dur", "actor", "args"}
    if unknown:
        _fail(context, f"unknown fields {sorted(unknown)}")
    return obj


def load_trace(path: "str | Path") -> list[dict[str, object]]:
    """Load and validate a JSONL trace file; the first bad line raises."""
    return load_jsonl(path, validate_event, TraceSchemaError, strict=True)[0]


def load_trace_lenient(
    path: "str | Path",
) -> tuple[list[dict[str, object]], list[tuple[int, str]]]:
    """Load a JSONL trace, collecting invalid lines instead of raising.

    Returns ``(events, skipped)`` where ``skipped`` lists
    ``(line_number, reason)`` for every line that failed to parse or
    validate.  ``python -m repro report`` uses this so a trace with a few
    foreign or corrupt lines still yields a report — while *telling* the
    user how many lines were ignored (``--strict`` restores the
    all-or-nothing behaviour of :func:`load_trace`).
    """
    return load_jsonl(path, validate_event, TraceSchemaError)


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------
def _chrome_args(args: object) -> dict[str, object]:
    return dict(args) if isinstance(args, dict) else {}


def _flatten_numeric(args: dict[str, object], prefix: str = "") -> dict[str, float]:
    """Chrome counter tracks must be flat numbers; drop everything else."""
    out: dict[str, float] = {}
    for key, value in args.items():
        name = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[name] = float(value)
        elif isinstance(value, dict):
            out.update(_flatten_numeric(value, prefix=f"{name}."))
    return out


def to_chrome_trace(
    events: "Iterable[dict[str, object] | TraceEvent]",
) -> dict[str, object]:
    """Map validated events onto the Chrome ``trace_event`` JSON format.

    Sim-time seconds become microsecond ``ts`` values; the ``actor``
    becomes the ``tid`` so per-node activity lands on separate tracks.
    """
    chrome: list[dict[str, object]] = []
    for raw in events:
        event = raw.as_dict() if isinstance(raw, TraceEvent) else raw
        ph = event["ph"]
        t = event["t"]
        assert isinstance(t, (int, float))
        entry: dict[str, object] = {
            "name": event["name"],
            "cat": event["cat"],
            "ph": ph,
            "ts": float(t) * 1e6,
            "pid": 0,
            "tid": event.get("actor", 0),
        }
        args = _chrome_args(event.get("args", {}))
        if ph == "X":
            dur = event.get("dur", 0.0)
            assert isinstance(dur, (int, float))
            entry["dur"] = float(dur) * 1e6
            entry["args"] = args
        elif ph == "i":
            entry["s"] = "t"  # thread-scoped instant
            entry["args"] = args
        else:  # "C": counter samples carry flat numeric series only
            entry["args"] = _flatten_numeric(args)
        chrome.append(entry)
    return {"traceEvents": chrome, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: "str | Path", events: "Iterable[dict[str, object] | TraceEvent]"
) -> Path:
    """Write the Chrome-format trace JSON to ``path``."""
    return save_text(
        path,
        json.dumps(to_chrome_trace(events), sort_keys=True, allow_nan=False)
        + "\n",
    )
