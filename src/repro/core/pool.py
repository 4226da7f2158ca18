"""Round-level fan-out: per-device local SGD in persistent spawn workers.

Both trainers hand a round's local training to one step,
:meth:`LocalFanout._train_devices`, as a list of jobs
``(device_id, start_vector, arrival)`` in their serial visiting order.
With ``workers == 1`` that step is the literal loop of
:meth:`repro.core.local.LocalTrainer.train_round`; otherwise it hands the
jobs to a :class:`LocalTrainingPool` created lazily from the parent
trainers.

The parent trainers stay the single source of truth, and the pool owns
the whole state round trip.  Datasets and the model architecture ship
*once* (in the pool initializer).  Every round,
:meth:`LocalTrainingPool.train_round` publishes each job's start vector
into a shared-memory parameter slab
(:class:`repro.parallel.shm.ParameterSlab`, a device-ordered ``(n, d)``
float64 segment stamped with the round generation), sends the workers
only the device id, slab row, generation, optional global-arrival merge
and the parent's compact *state delta*
(:meth:`~repro.core.local.LocalTrainer.export_state_delta`: RNG stream
position + optimiser slots), and imports the advanced state, the losses
and the trained weights back into the parents in job order.  The
per-round parameter bytes are never pickled.  Workers refuse jobs whose
generation does not match the slab stamp, so a stale vector fails
loudly.  Shared memory is the only transport: a pool that cannot create
its slabs raises instead of degrading.

Because the replica starts from the shipped state and ``train_round``
overwrites every model parameter from the start vector, the device's SGD
trajectory is a pure function of the job — which worker runs it, and in
which order, cannot matter.  That is the whole bit-identity argument.

Shutdown is graceful: :meth:`LocalTrainingPool.close` drains the workers
with ``close()``/``join()`` under a bounded timeout (terminating only a
hung pool) and then unlinks each slab exactly once.  A constructor that
fails part-way releases every slab it created before re-raising.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, TypeVar

import numpy as np

if TYPE_CHECKING:
    from multiprocessing import pool

from repro.check import sanitize
from repro.core.config import TrainingConfig
from repro.core.local import GlobalArrival, LocalTrainer
from repro.data.dataset import Dataset
from repro.nn.model import Sequential
from repro.parallel import ParameterSlab, spawn_context
from repro.parallel.pool import _init_worker
from repro.utils.seeding import seeded_generator

__all__ = ["Job", "LocalFanout", "LocalTrainingPool"]

#: One device's work for one round: ``(device_id, start_vector, arrival)``.
Job = tuple[int, np.ndarray, GlobalArrival | None]


@dataclass(frozen=True)
class _WireJob:
    """What crosses the pipe for one job; the start vector waits in slab
    row ``row`` under stamp ``generation``."""

    device_id: int
    row: int
    generation: int
    arrival: GlobalArrival | None
    state: tuple[object, ...]


#: What a replica sends back per job: its losses and advanced state
#: delta (the trained vector waits in the result slab row).
_WireResult = tuple[list[float], tuple[object, ...]]

# Worker-process replica table, populated by the pool initializer.  One
# entry per device in the pool; each worker holds the full table so any
# worker can run any job (shard assignment is free to change without
# affecting results).
_REPLICAS: dict[int, LocalTrainer] | None = None
# Worker-side slab views (start, result), attached by the initializer.
_SLABS: tuple[ParameterSlab, ParameterSlab] | None = None


def _init_replicas(
    model_template: Sequential,
    specs: list[tuple[int, Dataset, TrainingConfig]],
    slab_spec: tuple[str, str, int, int],
) -> None:
    """Pool initializer: build one LocalTrainer replica per device and
    attach the parameter slabs.

    The replica RNG seed is irrelevant — every job imports the parent's
    exported RNG state before training — it only fixes the generator
    type (PCG64, matching `utils/seeding.py`).
    """
    global _REPLICAS, _SLABS
    # Same one-level-fan-out pin as parallel_map's workers: nothing a
    # replica runs may consult REPRO_WORKERS and try to nest a pool.
    _init_worker()
    _REPLICAS = {
        device_id: LocalTrainer(
            device_id=device_id,
            dataset=dataset,
            model=model_template.clone(),
            config=config,
            # Placeholder stream: import_state_delta() overwrites it
            # before every job (waiver documented in DESIGN.md 'Static
            # analysis').
            rng=seeded_generator(0),  # abdlint: ignore[DET005]
        )
        for device_id, dataset, config in specs
    }
    start_name, result_name, rows, dim = slab_spec
    _SLABS = (
        ParameterSlab.attach(start_name, rows, dim),
        ParameterSlab.attach(result_name, rows, dim),
    )


def _train_shard(payload: tuple[list[_WireJob], bool]) -> list[_WireResult]:
    """Run a shard of jobs on this worker's replicas (module-level for
    spawn-safety).  The parent's sanitize flag is re-applied so guarded
    runs stay guarded inside workers."""
    jobs, sanitize_on = payload
    assert _REPLICAS is not None and _SLABS is not None, (
        "pool initializer did not run"
    )
    starts, results = _SLABS
    out: list[_WireResult] = []
    with sanitize.sanitized(sanitize_on):
        for job in jobs:
            stamp = starts.generation
            if job.generation != stamp:
                raise RuntimeError(
                    f"stale-generation job for device {job.device_id}: "
                    f"job generation {job.generation} != slab {stamp}"
                )
            trainer = _REPLICAS[job.device_id]
            trainer.import_state_delta(job.state)
            results.array[job.row] = trainer.train_round(
                starts.array[job.row], job.arrival
            )
            out.append((trainer.last_losses, trainer.export_state_delta()))
    return out


def _release(slabs: Iterable[ParameterSlab]) -> None:
    """Unlink then close each owner-side slab."""
    for slab in slabs:
        slab.unlink()
        slab.close()


class LocalTrainingPool:
    """A persistent spawn pool of per-device LocalTrainer replicas.

    Built from the parent trainers it serves (keyed by device id; slab
    rows follow sorted device ids).  Must be re-created after membership
    churn changes the device set.  Use as a context manager or call
    :meth:`close` explicitly.
    """

    #: Seconds a graceful close() waits for workers to drain before
    #: falling back to terminate().
    JOIN_TIMEOUT = 10.0

    def __init__(self, trainers: Mapping[int, LocalTrainer], workers: int) -> None:
        # Set first: close() (and so __del__) must work on a pool whose
        # construction failed part-way.
        self._pool: pool.Pool | None = None
        self._slabs: tuple[ParameterSlab, ParameterSlab] | None = None
        if workers < 2:
            raise ValueError(f"LocalTrainingPool needs workers >= 2, got {workers}")
        if not trainers:
            raise ValueError("LocalTrainingPool needs at least one trainer")
        self._parents = {device: trainers[device] for device in sorted(trainers)}
        self._row_of = {device: row for row, device in enumerate(self._parents)}
        self.workers = min(workers, len(self._parents))
        self._generation = 0
        template = next(iter(self._parents.values())).model
        rows, dim = len(self._parents), template.n_params
        specs = [
            (device, trainer.dataset, trainer.config)
            for device, trainer in self._parents.items()
        ]
        slabs: list[ParameterSlab] = []
        try:
            try:
                for _ in range(2):
                    slabs.append(ParameterSlab.create(rows, dim))
            except OSError as exc:
                raise OSError(
                    f"LocalTrainingPool cannot create a {rows}x{dim} float64 "
                    f"shared-memory slab in /dev/shm: {exc}"
                ) from exc
            starts, results = slabs
            self._pool = spawn_context().Pool(
                processes=self.workers,
                initializer=_init_replicas,
                initargs=(
                    template,
                    specs,
                    (starts.name, results.name, rows, dim),
                ),
            )
        except BaseException:
            _release(slabs)
            raise
        self._slabs = (starts, results)

    @property
    def uses_shm(self) -> bool:
        """Whether the shared-memory slabs are attached (until close())."""
        return self._slabs is not None

    def train_round(self, jobs: list[Job]) -> list[np.ndarray]:
        """Train every job; return the trained vectors in job order.

        Exports each parent's state delta, publishes the start vectors
        to the slab under a fresh generation stamp, and shards the jobs
        round-robin over the workers in input order (each job is a pure
        function of its payload, so the sharding is invisible in the
        results).  The advanced state, the losses and the trained
        weights are imported back into the parents in job order; every
        returned vector is copied out of the result slab, so callers own
        their bytes past the next round.
        """
        if self._pool is None or self._slabs is None:
            raise RuntimeError("LocalTrainingPool is closed")
        starts, results = self._slabs
        self._generation += 1
        generation = self._generation
        starts.generation = generation
        results.generation = generation
        wire: list[_WireJob] = []
        for device, start, arrival in jobs:
            row = self._row_of[device]
            starts.array[row] = start
            state = self._parents[device].export_state_delta()
            wire.append(_WireJob(device, row, generation, arrival, state))
        sanitize_on = sanitize.enabled()
        n_shards = min(self.workers, len(wire))
        shards = [(wire[i :: self.workers], sanitize_on) for i in range(n_shards)]
        returned: list[_WireResult] = [([], ())] * len(wire)
        for i, shard in enumerate(self._pool.map(_train_shard, shards)):
            returned[i :: self.workers] = shard
        vectors: list[np.ndarray] = []
        for job, (losses, state) in zip(wire, returned):
            parent = self._parents[job.device_id]
            parent.import_state_delta(state)
            vector = results.array[job.row].copy()
            parent.model.set_flat(vector)
            parent.last_losses = losses
            vectors.append(vector)
        return vectors

    def close(self) -> None:
        """Drain the workers and release the slabs (idempotent).

        ``close()``/``join()`` first, bounded by :attr:`JOIN_TIMEOUT`:
        with shared-memory segments in play a blunt ``terminate()`` could
        kill a worker mid-write, so force-killing is strictly the hung-
        pool fallback.  The slabs are unlinked exactly once, after the
        workers are gone (POSIX keeps the memory alive for any straggler
        holding a mapping; the name disappears immediately).
        """
        worker_pool, self._pool = self._pool, None
        if worker_pool is not None:
            worker_pool.close()
            if sys.is_finalizing():
                # close() reached via __del__ at interpreter shutdown:
                # Python 3.11 deadlocks starting new threads while
                # finalizing, so the bounded-join watchdog below is
                # unavailable.  The drained daemonic workers are reaped
                # by terminate(), which only joins existing threads.
                worker_pool.terminate()
            else:
                waiter = threading.Thread(
                    target=worker_pool.join, daemon=True
                )
                waiter.start()
                waiter.join(self.JOIN_TIMEOUT)
                if waiter.is_alive():  # pragma: no cover - hung fallback
                    worker_pool.terminate()
                    waiter.join(self.JOIN_TIMEOUT)
        slabs, self._slabs = self._slabs, None
        if slabs is not None:
            _release(slabs)

    def __enter__(self) -> "LocalTrainingPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort: never raise at GC/shutdown
        try:
            self.close()
        except Exception:
            pass


_F = TypeVar("_F", bound="LocalFanout")


class LocalFanout:
    """The local-training step and pool lifecycle shared by both trainers.

    A subclass sets :attr:`trainers` (device id -> parent
    :class:`LocalTrainer`) and :attr:`workers`, builds each round's jobs
    in its serial visiting order and calls :meth:`_train_devices`.  The
    pool is created lazily on the first parallel round; :meth:`close`
    shuts it down, and the next parallel round recreates it from the
    current membership.  A trainer dropped without ``close()`` needs no
    finalizer of its own: the pool's ``__del__`` releases it.
    """

    trainers: dict[int, LocalTrainer]
    workers: int
    _pool: LocalTrainingPool | None = None

    def _train_devices(
        self, jobs: list[Job]
    ) -> tuple[dict[int, np.ndarray], list[float]]:
        """Train every job; return (trained vector per device, losses).

        Both are in job order, which is the reduction order: any worker
        count leaves the parents bit-identical to the serial loop.
        """
        if self.workers > 1:
            if self._pool is None:
                self._pool = LocalTrainingPool(self.trainers, self.workers)
            vectors = self._pool.train_round(jobs)
        else:
            vectors = [
                self.trainers[device].train_round(start, arrival)
                for device, start, arrival in jobs
            ]
        devices = [device for device, _, _ in jobs]
        losses = [loss for d in devices for loss in self.trainers[d].last_losses]
        return dict(zip(devices, vectors)), losses

    def close(self) -> None:
        """Shut down the parallel training pool, if one was created.

        Safe to call at any time; the next parallel round recreates the
        pool from the current membership.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self: _F) -> _F:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
