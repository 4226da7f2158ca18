"""Deterministic ordered fan-out over independent work items.

:func:`parallel_map` is the sweep-level surface: experiment drivers hand
it a list of independent cells (defence-matrix cells, Table-V cells) and
a module-level task function; it returns exactly what the serial loop
``[fn(x) for x in items]`` would, for any worker count.

Determinism comes from two rules:

* **ordered reduction** — results are collected with ``Pool.map``, which
  returns them in *input* order no matter which worker finished first;
* **per-task capture and replay** — for every record channel with an
  ambient sink installed (trace, audit), each task — serial or remote —
  runs under a fresh private sink whose rows are replayed into the
  ambient one in input order.  One capture loop serves both paths, so
  the merged trace and audit streams are byte-identical for every
  worker count, including 1.

With tracing and auditing off and ``workers=1`` the call is a plain list
comprehension: no pool, no pickling, no wrapper frame — the zero-overhead
contract checked by ``bench_aggregation_kernels.py --overhead parallel``.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import ExitStack
from multiprocessing.context import BaseContext
from typing import Any, Callable, Iterable, TypeVar

from repro.check import sanitize
from repro.obs import audit, trace
from repro.obs.record import Gate
from repro.parallel.config import ENV_VAR, resolve_workers

__all__ = ["parallel_map", "spawn_context"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def spawn_context() -> BaseContext:
    """The ``spawn`` multiprocessing context used for every pool.

    Fork is deliberately avoided: forked children inherit ambient tracer
    and sanitizer state (and, on some platforms, locked BLAS internals),
    while spawn re-imports modules from scratch so workers see exactly
    the state the parent ships them.
    """
    return multiprocessing.get_context("spawn")


def _init_worker() -> None:
    """Pin every pool worker to serial execution.

    Fan-out is one level deep by design: a sweep task may construct
    trainers whose worker count defers to ``REPRO_WORKERS``, and a
    (daemonic) pool worker cannot have children — so the environment
    gate is forced to 1 for everything the worker runs.
    """
    os.environ[ENV_VAR] = "1"


#: The record channels whose ambient sinks a task's rows are replayed into.
_CHANNELS: tuple[Gate[Any], ...] = (trace.gate, audit.gate)

#: One task's result plus, per channel, its captured rows (``None`` when
#: that channel is off).
_Outcome = tuple[_R, list[list[object] | None]]


def _captured(
    fn: Callable[[_T], _R], item: _T, capture: tuple[bool, ...]
) -> _Outcome[_R]:
    """Run ``fn(item)`` with a fresh private sink per captured channel."""
    sinks = [
        gate.factory() if on else None for gate, on in zip(_CHANNELS, capture)
    ]
    with ExitStack() as stack:
        for gate, sink in zip(_CHANNELS, sinks):
            stack.enter_context(gate.scoped(sink))
        result = fn(item)
    return result, [None if sink is None else sink.rows for sink in sinks]


def _run_task(
    payload: tuple[Callable[[_T], _R], _T, bool, tuple[bool, ...]],
) -> _Outcome[_R]:
    """Execute one task inside a worker process.

    Module-level by spawn-safety rule 1 (DESIGN.md): spawn workers import
    this function by qualified name, so it must never live in
    ``__main__``.  The parent's sanitize flag is re-applied and the
    task's rows are captured for every channel the parent records, then
    shipped back for ordered merging.
    """
    fn, item, sanitize_on, capture = payload
    with sanitize.sanitized(sanitize_on):
        return _captured(fn, item, capture)


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    workers: int | None = None,
) -> list[_R]:
    """Map ``fn`` over ``items`` with deterministic ordered reduction.

    ``workers`` resolves via :func:`~repro.parallel.config.resolve_workers`
    (explicit > ``REPRO_WORKERS`` > 1).  The result list equals
    ``[fn(x) for x in items]`` bit-for-bit regardless of worker count;
    ``fn`` and every item must be picklable (and ``fn`` module-level)
    when more than one worker is requested.

    Tasks must be independent: ``fn`` must not rely on process-global
    state mutated by earlier items, because with N > 1 each task may run
    in a different process.  All repro sweep cells qualify — they derive
    their randomness from per-cell seeds (`utils/seeding.py`), never from
    shared streams.
    """
    work = list(items)
    n_workers = min(resolve_workers(workers), max(1, len(work)))
    ambient = [gate.active for gate in _CHANNELS]
    capture = tuple(sink is not None for sink in ambient)

    outcomes: Iterable[_Outcome[_R]]
    if n_workers <= 1:
        if not any(capture):
            return [fn(item) for item in work]
        # Recorded serial path: capture each task exactly like a worker
        # would so the merged streams are invariant to the worker count.
        outcomes = (_captured(fn, item, capture) for item in work)
    else:
        payloads = [(fn, item, sanitize.enabled(), capture) for item in work]
        with spawn_context().Pool(
            processes=n_workers, initializer=_init_worker
        ) as pool:
            outcomes = pool.map(_run_task, payloads, chunksize=1)
    results = []
    for result, shards in outcomes:  # input order == reduction order
        results.append(result)
        for sink, rows in zip(ambient, shards):
            if sink is not None and rows:
                sink.rows.extend(rows)
    return results
