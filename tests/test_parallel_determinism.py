"""Bit-identity regressions for the parallel backend across worker counts.

The contract of :mod:`repro.parallel` is that the worker count is a pure
wall-clock knob: ``workers=N`` must reproduce the serial run bit for bit —
model state, losses, sweep cells, and the merged observability trace.
These tests pin that contract at both fan-out surfaces:

* **round-level** — both trainers' per-device local training,
  dispatched to a persistent spawn pool (``LocalTrainingPool``) that owns
  the RNG/optimizer state round trip over shared-memory slabs;
* **sweep-level** — experiment drivers sharding independent cells through
  :func:`repro.parallel.parallel_map` with ordered reduction and per-task
  trace scoping.

Marked ``slow``: spawn pools pay a fresh-interpreter import per worker.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import pool as pool_mod
from repro.core.config import ABDHFLConfig, TrainingConfig
from repro.core.local import LocalTrainer
from repro.core.pool import LocalTrainingPool, _train_shard, _WireJob
from repro.core.trainer import ABDHFLTrainer
from repro.core.vanilla import VanillaFLTrainer
from repro.nn.model import Sequential
from repro.obs import Tracer, trace
from repro.parallel import ParameterSlab
from repro.scenario import ScenarioRunner, matrix_spec
from repro.utils.seeding import seeded_generator
from test_core_trainer import default_config, small_setup
from test_core_vanilla_schemes import vanilla_setup
from test_determinism_subprocess import (
    TRACE_HASH_SUFFIX,
    TRAINER_CHILD,
    _run_child,
)

# The fault-injected 3-round ABD-HFL child from the cross-process
# determinism suite leaves ``ABDHFLConfig.workers`` unset, so the
# ``REPRO_WORKERS`` environment gate selects the backend — the exact
# production surface a user flips.
TABLE5_CHILD = """
import hashlib
import numpy as np
from repro.experiments import ExperimentConfig
from repro.scenario import ScenarioRunner, accuracy_spec

cfg = ExperimentConfig(
    n_levels=2, cluster_size=4, n_top=2, image_side=8,
    samples_per_client=50, n_test=200, n_rounds=2, hidden=(16,),
)
spec = accuracy_spec(
    cfg, fractions=(0.0, 0.5), distributions=("iid",), attacks=("type1",),
    n_runs=1,
)
cells = ScenarioRunner().run(spec).cells
digest = hashlib.sha256()
for c in cells:
    digest.update(np.float64(c.malicious_fraction).tobytes())
    digest.update(np.float64(c.abdhfl_accuracy).tobytes())
    digest.update(np.float64(c.vanilla_accuracy).tobytes())
print(digest.hexdigest())
"""


@pytest.mark.slow
def test_parallel_training_is_bit_identical_to_serial():
    """``REPRO_WORKERS=4`` must hash the fault-injected 3-round training
    exactly like the serial baseline: same global model, same per-round
    accuracy/loss stream."""
    assert _run_child(TRAINER_CHILD, workers=4) == _run_child(
        TRAINER_CHILD, workers=1
    )


@pytest.mark.slow
def test_parallel_trainer_state_matches_serial_in_process():
    """Beyond the output hash: every per-device RNG state, optimizer step
    count and parameter vector must round-trip unchanged through the
    worker pool."""

    def run(workers: int | None) -> ABDHFLTrainer:
        hierarchy, datasets, model, test = small_setup(seed=3)
        cfg = default_config(workers=workers)
        trainer = ABDHFLTrainer(
            hierarchy, datasets, model.clone(), cfg, test, seed=3
        )
        trainer.run(2)
        return trainer

    serial = run(None)
    parallel = run(2)
    try:
        assert parallel.workers == 2
        np.testing.assert_array_equal(
            serial.global_model, parallel.global_model
        )
        assert sorted(serial.trainers) == sorted(parallel.trainers)
        for device in sorted(serial.trainers):
            ref, par = serial.trainers[device], parallel.trainers[device]
            np.testing.assert_array_equal(
                ref.model.get_flat(), par.model.get_flat()
            )
            assert ref.last_losses == par.last_losses
            assert ref.rng.bit_generator.state == par.rng.bit_generator.state
            ref_steps, ref_velocity = ref.optimizer.export_slots()
            par_steps, par_velocity = par.optimizer.export_slots()
            assert ref_steps == par_steps
            if ref_velocity is None:
                assert par_velocity is None
            else:
                for rv, pv in zip(ref_velocity, par_velocity):
                    np.testing.assert_array_equal(rv, pv)
        assert [r.test_accuracy for r in serial.history] == [
            r.test_accuracy for r in parallel.history
        ]
    finally:
        parallel.close()
        serial.close()


@pytest.mark.slow
def test_vanilla_parallel_training_matches_serial():
    """The vanilla baseline shares the one local-training dispatch:
    ``workers=2`` must leave the global model, the history and every
    client's RNG stream, optimiser slots and losses equal to serial."""

    def run(workers: int) -> VanillaFLTrainer:
        datasets, model, test = vanilla_setup(n_clients=6, poison_ids=(0,))
        cfg = TrainingConfig(
            local_iterations=8, batch_size=16, learning_rate=0.3, momentum=0.5
        )
        trainer = VanillaFLTrainer(
            datasets, model, cfg, test, aggregator="multikrum",
            aggregator_options={"byzantine_fraction": 0.2}, seed=4,
            workers=workers,
        )
        trainer.run(3)
        return trainer

    serial = run(1)
    with run(2) as parallel:
        assert parallel._pool is not None and parallel._pool.uses_shm
        assert serial.global_model.tobytes() == parallel.global_model.tobytes()
        assert serial.history == parallel.history
        for cid in sorted(serial.trainers):
            ref, par = serial.trainers[cid], parallel.trainers[cid]
            assert ref.rng.bit_generator.state == par.rng.bit_generator.state
            ref_steps, ref_velocity = ref.optimizer.export_slots()
            par_steps, par_velocity = par.optimizer.export_slots()
            assert ref_steps == par_steps
            for rv, pv in zip(ref_velocity, par_velocity):
                np.testing.assert_array_equal(rv, pv)
            assert ref.last_losses == par.last_losses
    assert parallel._pool is None


@pytest.mark.slow
def test_config_workers_validated_and_serial_by_default():
    with pytest.raises(ValueError):
        ABDHFLConfig(workers=0)
    hierarchy, datasets, model, test = small_setup()
    trainer = ABDHFLTrainer(hierarchy, datasets, model, default_config(), test)
    assert trainer.workers == 1
    assert trainer._pool is None


@pytest.mark.slow
def test_matrix_cells_identical_across_worker_counts():
    spec = matrix_spec(
        defences=("median", "trimmed_mean", "krum"),
        attacks=("sign_flip", "scaling"),
        fractions=(0.25,),
        n_trials=2,
    )
    serial = ScenarioRunner(workers=1).run(spec).cells
    sharded = ScenarioRunner(workers=3).run(spec).cells
    # Dataclass equality is exact: the gap floats must match bit for bit,
    # in the same (defence, attack) order.
    assert serial == sharded


@pytest.mark.slow
def test_matrix_trace_is_byte_identical_across_worker_counts():
    """Per-worker trace shards merged in input order must serialise to
    exactly the serial trace — the schema-valid JSONL a report consumes."""

    spec = matrix_spec(
        defences=("median", "krum"),
        attacks=("sign_flip",),
        fractions=(0.25,),
        n_trials=1,
    )

    def jsonl(workers: int) -> str:
        with trace.scoped(Tracer()) as tr:
            ScenarioRunner(workers=workers).run(spec)
        assert tr.events, "traced sweep recorded nothing"
        return tr.to_jsonl()

    assert jsonl(1) == jsonl(2)


def _segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name))


ON_POSIX_SHM = os.path.isdir("/dev/shm")


class TestParameterSlab:
    """Unit coverage for the shared-memory slab the pool rides on."""

    def test_attach_sees_owner_bytes_and_generation(self):
        with ParameterSlab.create(3, 5) as owner:
            owner.array[:] = np.arange(15, dtype=np.float64).reshape(3, 5)
            owner.generation = 7
            peer = ParameterSlab.attach(owner.name, 3, 5)
            try:
                assert peer.generation == 7
                np.testing.assert_array_equal(peer.array, owner.array)
                peer.array[1, 2] = -4.5  # writes flow back to the owner
                assert owner.array[1, 2] == -4.5
            finally:
                peer.close()

    def test_close_is_idempotent_and_access_after_close_raises(self):
        slab = ParameterSlab.create(2, 2)
        slab.unlink()
        slab.close()
        slab.close()
        for attr in ("array", "generation", "name"):
            with pytest.raises(RuntimeError, match="closed"):
                getattr(slab, attr)

    def test_unlink_after_close_is_a_programming_error(self):
        slab = ParameterSlab.create(2, 2)
        name = slab.name
        slab.close()
        with pytest.raises(RuntimeError, match="unlink first"):
            slab.unlink()
        # The segment leaked by construction here; reap it directly.
        if ON_POSIX_SHM and _segment_exists(name):
            os.unlink(os.path.join("/dev/shm", name))

    def test_attacher_never_unlinks(self):
        owner = ParameterSlab.create(2, 3)
        name = owner.name
        peer = ParameterSlab.attach(name, 2, 3)
        with peer:  # exit calls unlink() then close(); unlink must no-op
            pass
        if ON_POSIX_SHM:
            assert _segment_exists(name), "attacher removed the segment"
        owner.unlink()
        owner.close()
        if ON_POSIX_SHM:
            assert not _segment_exists(name)

    def test_rejects_empty_shapes(self):
        with pytest.raises(ValueError, match="positive shape"):
            ParameterSlab.create(0, 4)


def _fanout_parents(
    seed: int, n_devices: int
) -> tuple[Sequential, dict[int, LocalTrainer]]:
    """The model template and ``n_devices`` parent trainers, each with
    its own stream."""
    hierarchy, datasets, model, test = small_setup(seed=seed)
    cfg = default_config().training
    parents = {
        cid: LocalTrainer(
            device_id=cid,
            dataset=datasets[cid],
            model=model.clone(),
            config=cfg,
            rng=seeded_generator(1000 + cid),
        )
        for cid in sorted(datasets)[:n_devices]
    }
    return model, parents


def _run_fanout_rounds(
    model: Sequential,
    parents: dict[int, LocalTrainer],
    pool: LocalTrainingPool | None,
    n_rounds: int = 2,
) -> dict[int, np.ndarray]:
    """Drive ``n_rounds`` of per-device SGD serially or through ``pool``,
    chaining each round's start from the mean of the previous round."""
    start = model.get_flat()
    for _ in range(n_rounds):
        if pool is None:
            vectors = [parents[cid].train_round(start) for cid in parents]
        else:
            vectors = pool.train_round([(cid, start, None) for cid in parents])
        start = np.mean(np.stack(vectors), axis=0)
    return dict(zip(parents, vectors))


@pytest.mark.slow
def test_shm_transport_bit_identical_to_serial():
    """The shared-memory transport and the worker count only move bytes:
    per-device vectors, losses and RNG / optimiser states must match the
    serial run bit for bit."""
    model, serial_parents = _fanout_parents(seed=11, n_devices=6)
    serial_vecs = _run_fanout_rounds(model, serial_parents, pool=None)
    model, parents = _fanout_parents(seed=11, n_devices=6)
    pool = LocalTrainingPool(parents, workers=3)
    slab_names = [slab.name for slab in pool._slabs]
    try:
        assert pool.uses_shm
        vecs = _run_fanout_rounds(model, parents, pool=pool)
    finally:
        pool.close()
    assert not pool.uses_shm
    for name in slab_names:  # leak check: close() must unlink
        if ON_POSIX_SHM:
            assert not _segment_exists(name), f"leaked segment {name}"
    for cid in parents:
        label = f"device {cid}"
        assert serial_vecs[cid].tobytes() == vecs[cid].tobytes(), label
        assert serial_parents[cid].last_losses == parents[cid].last_losses, label
        assert (
            serial_parents[cid].export_state_delta()[:5]
            == parents[cid].export_state_delta()[:5]
        ), label


@pytest.mark.slow
def test_stale_generation_jobs_fail_loudly():
    """A job whose generation does not match the slab stamp must be
    refused by the worker, not silently trained on stale bytes."""
    model, parents = _fanout_parents(seed=13, n_devices=2)
    with LocalTrainingPool(parents, workers=2) as pool:
        start = model.get_flat()
        pool.train_round([(cid, start, None) for cid in parents])  # generation 1
        device = next(iter(parents))
        stale = _WireJob(
            device_id=device,
            row=0,
            generation=999,
            arrival=None,
            state=parents[device].export_state_delta(),
        )
        assert pool._pool is not None
        with pytest.raises(RuntimeError, match="stale-generation"):
            pool._pool.apply(_train_shard, (([stale], False),))


@pytest.mark.slow
def test_pool_close_unlinks_segments_and_is_idempotent():
    model, parents = _fanout_parents(seed=17, n_devices=2)
    pool = LocalTrainingPool(parents, workers=2)
    assert pool.uses_shm
    names = [slab.name for slab in pool._slabs]
    if ON_POSIX_SHM:
        assert all(_segment_exists(name) for name in names)
    pool.close()
    pool.close()  # idempotent
    if ON_POSIX_SHM:
        assert not any(_segment_exists(name) for name in names)
    with pytest.raises(RuntimeError, match="closed"):
        pool.train_round([])


class _FailingContext:
    """A spawn context whose ``Pool()`` raises, as a failed spawn would."""

    def Pool(self, *args, **kwargs):
        raise OSError("injected pool-creation failure")


@pytest.mark.skipif(not ON_POSIX_SHM, reason="needs /dev/shm to list")
class TestPoolCreationFailure:
    """A pool whose construction fails part-way must leave ``/dev/shm``
    as it found it, and say why it failed."""

    def test_pool_spawn_failure_releases_both_slabs(self, monkeypatch):
        model, parents = _fanout_parents(seed=19, n_devices=2)
        monkeypatch.setattr(pool_mod, "spawn_context", _FailingContext)
        before = sorted(os.listdir("/dev/shm"))
        with pytest.raises(OSError, match="injected"):
            LocalTrainingPool(parents, workers=2)
        assert sorted(os.listdir("/dev/shm")) == before

    def test_second_slab_failure_releases_the_first(self, monkeypatch):
        model, parents = _fanout_parents(seed=19, n_devices=2)
        create = ParameterSlab.create
        calls: list[int] = []

        def create_once(rows: int, dim: int) -> ParameterSlab:
            calls.append(rows)
            if len(calls) == 2:
                raise OSError("injected: no space left")
            return create(rows, dim)

        monkeypatch.setattr(ParameterSlab, "create", create_once)
        before = sorted(os.listdir("/dev/shm"))
        with pytest.raises(OSError, match="/dev/shm"):
            LocalTrainingPool(parents, workers=2)
        assert len(calls) == 2
        assert sorted(os.listdir("/dev/shm")) == before


@pytest.mark.slow
def test_table5_results_and_trace_worker_invariant():
    """The sweep surface end to end, driven purely by the environment:
    ``REPRO_WORKERS=4`` under ``REPRO_TRACE`` must reproduce the serial
    cells *and* the serial trace byte for byte."""
    serial = _run_child(TABLE5_CHILD + TRACE_HASH_SUFFIX, trace="1", workers=1)
    sharded = _run_child(TABLE5_CHILD + TRACE_HASH_SUFFIX, trace="1", workers=4)
    assert serial == sharded  # result digest AND trace hash
