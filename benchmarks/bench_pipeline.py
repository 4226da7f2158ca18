"""Whole-pipeline benchmark: rounds/sec and peak RSS across worker counts.

Where ``bench_aggregation_kernels.py`` times one rule on one stack, this
drives the full ABD-HFL trainer — local SGD, hierarchical aggregation,
consensus validation, evaluation — over a mid-size ECSM hierarchy and
measures the *round throughput* and the *peak resident set* at
``workers ∈ {1, 4}``.  Each configuration runs in a fresh subprocess so
its ``ru_maxrss`` high-water mark is its own (and so the spawn workers
re-import a clean module, never a half-executed script).

Emits machine-readable ``BENCH_pipeline.json`` at the repo root, and
supports ``--check`` as a CI gate on a smoke-size hierarchy:

* **bit-identity replay** — the ``workers=4`` run must ride the
  shared-memory transport and hash (global model + per-round
  accuracy/loss stream) exactly like the serial run;
* **wall ceiling** — each smoke run must finish inside a generous
  ceiling, a tripwire for catastrophic pipeline regressions;
* **cold floors** — the committed ``BENCH_aggregation.json`` cells are
  re-validated against the per-rule cold-path floor (no re-run), so the
  pipeline gate subsumes the aggregation regression this PR fixed.

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py
    PYTHONPATH=src python benchmarks/bench_pipeline.py --check
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bench_aggregation_kernels import check_committed_report

WORKER_COUNTS = (1, 4)

#: Benchmark hierarchy specs: (n_levels, cluster_size, n_top,
#: samples_per_client, hidden width, rounds).
FULL_SPEC = {
    "n_levels": 3,
    "cluster_size": 4,
    "n_top": 4,
    "samples_per_client": 60,
    "hidden": 32,
    "rounds": 3,
}
SMOKE_SPEC = {
    "n_levels": 3,
    "cluster_size": 2,
    "n_top": 2,
    "samples_per_client": 50,
    "hidden": 16,
    "rounds": 2,
}

#: --check wall ceiling per smoke run, in seconds.  Deliberately huge —
#: CI boxes are slow and shared — this trips on a hang or an O(n)->O(n^2)
#: class of regression, not on noise.
SMOKE_WALL_CEILING_S = 300.0


def run_pipeline(spec: dict, workers: int) -> dict:
    """Build the hierarchy, run the trainer, return the measurements.

    Runs inside the ``--measure`` subprocess; imports are local so the
    parent process (and the spawn workers re-importing this module) stay
    cheap.
    """
    from repro.core.config import ABDHFLConfig, LevelAggregation, TrainingConfig
    from repro.core.trainer import ABDHFLTrainer
    from repro.data.partition import iid_partition
    from repro.data.synthetic_mnist import SyntheticMNIST, make_synthetic_mnist
    from repro.nn.model import MLP
    from repro.topology.tree import build_ecsm
    from repro.utils.seeding import SeedSequenceFactory

    seeds = SeedSequenceFactory(0)
    hierarchy = build_ecsm(
        n_levels=spec["n_levels"],
        cluster_size=spec["cluster_size"],
        n_top=spec["n_top"],
    )
    n_clients = len(hierarchy.bottom_clients())
    train, test = make_synthetic_mnist(
        n_clients * spec["samples_per_client"],
        300,
        seeds.generator("data"),
        SyntheticMNIST(side=8, noise_sigma=0.15),
    )
    partition = iid_partition(train, n_clients, seeds.generator("part"))
    datasets = dict(enumerate(partition.shards))
    model = MLP(64, (spec["hidden"],), 10, seeds.generator("init"))
    cfg = ABDHFLConfig(
        training=TrainingConfig(
            local_iterations=8, batch_size=16, learning_rate=0.8
        ),
        default_intermediate=LevelAggregation("bra", "multikrum"),
        default_top=LevelAggregation("cba", "voting"),
        # Always explicit so a stray REPRO_WORKERS cannot skew a run.
        workers=workers,
    )
    trainer = ABDHFLTrainer(hierarchy, datasets, model, cfg, test, seed=0)

    t0 = time.perf_counter()
    records = trainer.run(spec["rounds"])
    wall = time.perf_counter() - t0

    digest = hashlib.sha256()
    digest.update(
        np.ascontiguousarray(trainer.global_model, dtype=np.float64).tobytes()
    )
    for record in records:
        digest.update(np.float64(record.test_accuracy).tobytes())
        digest.update(np.float64(record.test_loss).tobytes())
    used_shm = trainer._pool is not None and trainer._pool.uses_shm
    trainer.close()

    usage_self = resource.getrusage(resource.RUSAGE_SELF)
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    # Linux reports ru_maxrss in KiB; children is the max over reaped
    # worker processes, so self+children bounds the fleet's footprint.
    self_mb = usage_self.ru_maxrss / 1024.0
    children_mb = usage_children.ru_maxrss / 1024.0
    return {
        "workers": workers,
        "rounds": spec["rounds"],
        "n_clients": n_clients,
        "dim": int(trainer.global_model.size),
        "wall_s": wall,
        "rounds_per_sec": spec["rounds"] / max(wall, 1e-9),
        "peak_rss_self_mb": self_mb,
        "peak_rss_children_mb": children_mb,
        "peak_rss_mb": self_mb + children_mb,
        "used_shm": used_shm,
        "digest": digest.hexdigest(),
    }


def measure_in_subprocess(spec_name: str, workers: int) -> dict:
    """Re-exec this script in ``--measure`` mode and parse its JSON."""
    proc = subprocess.run(
        [
            sys.executable,
            __file__,
            "--measure",
            spec_name,
            "--workers",
            str(workers),
        ],
        capture_output=True,
        text=True,
        timeout=1800,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"measure run (spec={spec_name}, workers={workers}) failed:\n"
            f"{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def run_grid(spec_name: str, spec: dict) -> dict:
    results = []
    for workers in WORKER_COUNTS:
        row = measure_in_subprocess(spec_name, workers)
        results.append(row)
        print(
            f"workers={row['workers']}  "
            f"{row['rounds']} rounds in {row['wall_s']:7.2f}s  "
            f"({row['rounds_per_sec']:.3f} rounds/s)  "
            f"rss self={row['peak_rss_self_mb']:.0f}MB "
            f"children={row['peak_rss_children_mb']:.0f}MB  "
            f"shm={row['used_shm']}",
            flush=True,
        )
    return {
        "benchmark": "pipeline",
        "config": {
            "spec": spec_name,
            **spec,
            "worker_counts": list(WORKER_COUNTS),
            "numpy": np.__version__,
        },
        "results": results,
    }


def check(report: dict) -> list[str]:
    """The CI gate over a (smoke) report; returns failure messages."""
    failures: list[str] = []
    by_workers = {row["workers"]: row for row in report["results"]}
    serial = by_workers.get(1)
    if serial is None:
        return ["no workers=1 baseline in the report"]
    for row in report["results"]:
        if row["wall_s"] > SMOKE_WALL_CEILING_S:
            failures.append(
                f"workers={row['workers']}: {row['rounds']} rounds took "
                f"{row['wall_s']:.1f}s > {SMOKE_WALL_CEILING_S}s ceiling"
            )
        if row["workers"] > 1:
            if not row["used_shm"]:
                failures.append(
                    f"workers={row['workers']}: no pool with attached "
                    "shared-memory slabs ran; the parallel replay proved "
                    "nothing"
                )
            if row["digest"] != serial["digest"]:
                failures.append(
                    f"workers={row['workers']}: shared-memory run is NOT "
                    f"bit-identical to serial ({row['digest'][:12]}... vs "
                    f"{serial['digest'][:12]}...)"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the smoke-size grid and fail unless the workers=4 run "
        "rides shared memory, reproduces the serial digest bit for bit, "
        "and every run beats the wall ceiling; also re-validates the "
        "committed BENCH_aggregation.json cold floors",
    )
    parser.add_argument(
        "--measure",
        choices=("full", "smoke"),
        default=None,
        help="internal: run one configuration in-process and print JSON",
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON report (default: BENCH_pipeline.json "
        "at the repo root; --check writes nothing unless this is given)",
    )
    args = parser.parse_args(argv)

    if args.measure is not None:
        spec = FULL_SPEC if args.measure == "full" else SMOKE_SPEC
        print(json.dumps(run_pipeline(spec, args.workers)))
        return 0

    spec_name = "smoke" if args.check else "full"
    spec = SMOKE_SPEC if args.check else FULL_SPEC
    report = run_grid(spec_name, spec)

    output = args.output
    if output is None and not args.check:
        output = Path(__file__).resolve().parents[1] / "BENCH_pipeline.json"
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")

    if args.check:
        failures = check(report)
        failures.extend(
            check_committed_report(Path(__file__).resolve().parents[1])
        )
        for message in failures:
            print(f"CHECK FAILED: {message}", file=sys.stderr)
        if failures:
            return 1
        print(
            "check passed: shared-memory run bit-identical to serial, "
            f"all runs under {SMOKE_WALL_CEILING_S:.0f}s, committed "
            "aggregation cold floors hold"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
