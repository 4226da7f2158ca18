"""Deterministic process-level parallelism.

``repro.parallel`` is the only module in the tree allowed to touch
:mod:`multiprocessing` (enforced by the ``DET004`` lint rule).  It
provides two fan-out surfaces, both with a hard bit-identity contract:

* **sweep-level** — :func:`parallel_map` shards independent work items
  (defence-matrix cells, Table-V cells, repeated runs) across spawn
  workers and reduces the results in *input order*, so the output list
  is identical to the serial loop regardless of worker count.  When
  tracing is on, each item's :mod:`repro.obs` events are captured in a
  per-task tracer and merged back in input order, yielding a
  byte-identical JSONL trace for every worker count;

* **round-level** — :class:`repro.core.pool.LocalTrainingPool` (in
  :mod:`repro.core`, because it replays :class:`~repro.core.local.LocalTrainer`
  rounds) runs per-device local SGD steps in persistent spawn workers
  built on this module's :func:`spawn_context`.  Device datasets and
  model replicas ship once at pool creation; every round the parent
  sends each device's *round-trip state* (RNG bit-generator state,
  optimiser state, start vector, global-arrival merge) and receives the
  trained vector, per-iteration losses and the advanced state back, so
  the parent-side trainers remain the single source of truth,
  byte-for-byte equal to a serial run after every round.

Gating follows the sanitize/trace pattern: ``workers=1`` (the default)
*is* the serial code path — a plain comprehension, no pool, no pickling
— and costs nothing (asserted by ``benchmarks/bench_aggregation_kernels.py
--overhead parallel``).  The worker count resolves from an explicit
argument, the ``REPRO_WORKERS`` environment variable
(:func:`resolve_workers`), ``ABDHFLConfig(workers=...)`` or the CLI
``--workers`` flag.

Spawn-safety rules (see DESIGN.md "Parallel execution"):

* every function crossing the process boundary lives at module level in
  an importable module — never in ``__main__`` of a ``-c``/stdin script;
* workers draw randomness only from state shipped by the parent (the
  device's own stream) — never from a fresh seed of their own;
* reduction happens in a fixed order derived from the *input* order,
  never from completion order.
"""

from repro.parallel.config import (
    ENV_VAR,
    ParallelConfig,
    env_workers,
    resolve_workers,
)
from repro.parallel.pool import parallel_map, spawn_context
from repro.parallel.shm import ParameterSlab

__all__ = [
    "ENV_VAR",
    "ParallelConfig",
    "env_workers",
    "resolve_workers",
    "parallel_map",
    "spawn_context",
    "ParameterSlab",
]
