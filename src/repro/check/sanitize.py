"""Runtime numeric sanitizers with provenance.

:func:`assert_finite` is the single guard the numeric pipeline calls at
its trust boundaries: aggregation inputs/outputs, consensus
proposals/decisions, NN forward/backward results and attack outputs.
When checks are disabled (the default) the guard returns after one
module-level boolean test — no array is touched, so the opt-out path
adds no measurable overhead (asserted by
``benchmarks/bench_aggregation_kernels.py --overhead sanitize``).

When enabled, a non-finite or overflow-range value raises
:class:`SanitizerError` carrying provenance — *which* value (``what``),
which rule produced it, at which node and round — gathered from the
explicit keyword arguments merged with the ambient :func:`provenance`
context the trainer maintains.

Enabling
--------
* environment: ``REPRO_SANITIZE=1`` (read once at import);
* API: :func:`enable` / :func:`disable` / the :func:`sanitized`
  context manager;
* tests: an autouse fixture turns checks on for the whole suite;
* trainer: ``ABDHFLConfig(sanitize=True)``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = [
    "SanitizerError",
    "OVERFLOW_LIMIT",
    "assert_finite",
    "enabled",
    "enable",
    "disable",
    "sanitized",
    "provenance",
    "current_provenance",
]

#: Magnitudes above this are treated as latent overflow even though they
#: are still finite: squaring them (every distance/Gram kernel does)
#: leaves float64 range.  sqrt(float64 max) ~ 1.34e154.
OVERFLOW_LIMIT: float = 1e150


class SanitizerError(FloatingPointError):
    """A guarded value was NaN/Inf or beyond the overflow limit.

    Attributes carry the provenance the guard could establish: ``what``
    names the guarded quantity, ``rule`` the aggregation/consensus/attack
    rule producing it, ``node_id`` and ``round_index`` the ambient
    trainer context (``None`` when unknown).
    """

    def __init__(
        self,
        message: str,
        *,
        what: str,
        rule: str | None = None,
        node_id: int | None = None,
        round_index: int | None = None,
    ) -> None:
        super().__init__(message)
        self.what = what
        self.rule = rule
        self.node_id = node_id
        self.round_index = round_index


def _env_enabled() -> bool:
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1",
        "true",
        "on",
        "yes",
    )


_enabled: bool = _env_enabled()

# Ambient provenance (node/round/rule) maintained as a stack so nested
# scopes restore their parent on exit.
_provenance: list[dict[str, object]] = []


def enabled() -> bool:
    """Whether sanitizer checks currently run."""
    return _enabled


def enable() -> None:
    """Turn sanitizer checks on process-wide."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn sanitizer checks off process-wide."""
    global _enabled
    _enabled = False


@contextmanager
def sanitized(on: bool = True) -> Iterator[None]:
    """Scope with checks forced on (or off with ``on=False``)."""
    global _enabled
    previous = _enabled
    _enabled = on
    try:
        yield
    finally:
        _enabled = previous


@contextmanager
def provenance(
    node_id: int | None = None,
    round_index: int | None = None,
    rule: str | None = None,
) -> Iterator[None]:
    """Attach ambient provenance to every guard raised inside the scope.

    Inner scopes override only the fields they set; a guard's explicit
    keyword arguments win over the ambient context.
    """
    frame: dict[str, object] = {}
    if node_id is not None:
        frame["node_id"] = node_id
    if round_index is not None:
        frame["round_index"] = round_index
    if rule is not None:
        frame["rule"] = rule
    _provenance.append(frame)
    try:
        yield
    finally:
        _provenance.pop()


def current_provenance() -> dict[str, object]:
    """Merged view of the ambient provenance stack (inner wins)."""
    merged: dict[str, object] = {}
    for frame in _provenance:
        merged.update(frame)
    return merged


def assert_finite(
    values: np.ndarray,
    what: str,
    *,
    rule: str | None = None,
    node_id: int | None = None,
    round_index: int | None = None,
    limit: float = OVERFLOW_LIMIT,
) -> None:
    """Raise :class:`SanitizerError` if ``values`` holds NaN/Inf/overflow.

    A no-op (the array is never inspected, or even coerced) while checks
    are disabled, so guard calls may stay unconditionally in hot paths.
    """
    if not _enabled:
        return
    arr = np.asarray(values)
    if arr.dtype.kind not in "fc":
        return  # integer/bool payloads cannot hold NaN/Inf
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(arr)
        overflow = np.abs(arr) > limit
    n_nan = int(np.isnan(arr).sum())
    n_inf = int(bad.sum()) - n_nan
    n_over = int((overflow & ~bad).sum())
    if n_nan == 0 and n_inf == 0 and n_over == 0:
        return
    ambient = current_provenance()
    if rule is None:
        rule = ambient.get("rule")  # type: ignore[assignment]
    if node_id is None:
        node_id = ambient.get("node_id")  # type: ignore[assignment]
    if round_index is None:
        round_index = ambient.get("round_index")  # type: ignore[assignment]
    where = ", ".join(
        part
        for part in (
            f"rule={rule}" if rule is not None else "",
            f"node={node_id}" if node_id is not None else "",
            f"round={round_index}" if round_index is not None else "",
        )
        if part
    )
    counts = ", ".join(
        part
        for part in (
            f"{n_nan} NaN" if n_nan else "",
            f"{n_inf} Inf" if n_inf else "",
            f"{n_over} overflow-range (>|{limit:g}|)" if n_over else "",
        )
        if part
    )
    message = f"sanitizer: {what} contains {counts} of {arr.size} values"
    if where:
        message += f" [{where}]"
    # Imported lazily: repro.obs must stay importable without repro.check
    # loaded (and vice versa), and this is the cold error path anyway.
    from repro.obs import trace as _trace

    tr = _trace.tracer()
    if tr is not None:
        tr.metrics.counter("sanitize.trips").inc()
        tr.instant(
            "sanitize.trip",
            "fault",
            float(round_index) if isinstance(round_index, int) else 0.0,
            what=what,
            rule=rule,
            node=node_id,
            nan=n_nan,
            inf=n_inf,
            overflow=n_over,
        )
    raise SanitizerError(
        message,
        what=what,
        rule=rule,
        node_id=node_id,
        round_index=round_index,
    )
