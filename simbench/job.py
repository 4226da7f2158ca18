"""One benchmark job: a fresh interpreter runs one workload once.

``run.py`` starts this script in its own process group and reads one
JSON object from the last line of its standard output.  Wall-clock
stamps are ``time.perf_counter()`` values, which on Linux come from the
system-wide monotonic clock, so the parent can subtract its own launch
stamp from them.

Usage::

    PYTHONPATH=src python3 simbench/job.py --workload table5_serial --seed 1
    PYTHONPATH=src python3 simbench/job.py --workload table5_pool2 --seed 1 \
        --workers 1 --traced
"""

import argparse
import hashlib
import json
import math
import resource
import sys
import time


def _rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest reaped child, in MB
    (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, children


def run_trainer(workload, seed: int, workers: int, out: dict) -> None:
    import numpy as np

    from repro.experiments import setup as exp_setup

    import workloads as wl

    config = wl.experiment_config(workload, seed)
    data = exp_setup.prepare_data(config)
    trainer = exp_setup.build_abdhfl_trainer(
        config,
        data,
        model_attack=wl.model_attack(workload),
        abdhfl_config=wl.abdhfl_config(workload, config, workers),
    )
    out["t_ready"] = time.perf_counter()
    round_s: list[float] = []
    records = []
    try:
        for _ in range(workload.rounds):
            start = time.perf_counter()
            records.append(trainer.run_round())
            round_s.append(time.perf_counter() - start)
        out["t_result"] = time.perf_counter()
        pool = trainer._pool
        out["used_shm"] = bool(pool is not None and pool.uses_shm)
    finally:
        trainer.close()

    digest = hashlib.sha256()
    model = np.ascontiguousarray(trainer.global_model, dtype=np.float64)
    digest.update(model.tobytes())
    for record in records:
        digest.update(np.float64(record.test_accuracy).tobytes())
        digest.update(np.float64(record.test_loss).tobytes())
    out["digest"] = digest.hexdigest()
    out["round_s"] = round_s
    out["ops"] = len(records)
    out["failed_ops"] = sum(
        1
        for r in records
        if not (math.isfinite(r.test_accuracy) and math.isfinite(r.test_loss))
    )
    out["final_accuracy"] = records[-1].test_accuracy
    checks = out["checks"]
    if not np.isfinite(model).all():
        checks.append("final global model is not finite")
    if workload.min_accuracy is not None and not (
        records[-1].test_accuracy >= workload.min_accuracy
    ):
        checks.append(
            f"final accuracy {records[-1].test_accuracy:.3f} < "
            f"{workload.min_accuracy} (collapse)"
        )
    if workers > 1 and not out["used_shm"]:
        checks.append("workers>1 run did not use the shared-memory slabs")


def run_sweep(workload, seed: int, workers: int, out: dict) -> None:
    import numpy as np

    from repro.obs import audit, trace, validate_event, validate_record
    from repro.scenario import runner

    import workloads as wl

    spec = wl.sweep_spec(workload, seed)
    out["t_ready"] = time.perf_counter()
    tracer = trace.Tracer()
    auditor = audit.Auditor()
    with trace.scoped(tracer), audit.scoped(auditor):
        result = runner.ScenarioRunner(workers=workers).run(spec)
    out["t_result"] = time.perf_counter()

    gaps = [cell.gap for cell in result.cells]
    out["ops"] = len(result.grid)
    out["failed_ops"] = len(result.grid) - len(gaps) + sum(
        1 for g in gaps if not math.isfinite(g)
    )
    checks = out["checks"]
    for i, event in enumerate(tracer.events):
        try:
            validate_event(event.as_dict(), context=f"trace event {i}")
        except ValueError as exc:
            checks.append(str(exc))
            break
    for i, record in enumerate(auditor.records):
        try:
            validate_record(record)
        except ValueError as exc:
            checks.append(f"audit record {i}: {exc}")
            break
    out["trace_events"] = len(tracer.events)
    out["audit_records"] = len(auditor.records)
    if not auditor.records:
        checks.append("audit stream is empty")
    digest = hashlib.sha256(np.asarray(gaps, dtype=np.float64).tobytes())
    digest.update(auditor.to_jsonl().encode())
    out["digest"] = digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="override the workload's worker count (traced workers=1 pass)",
    )
    parser.add_argument(
        "--traced", action="store_true",
        help="wrap the layer entry points in wall-clock spans",
    )
    args = parser.parse_args(argv)

    import workloads as wl

    workload = wl.SPECS[args.workload]
    workers = workload.workers if args.workers is None else args.workers
    out: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "workers": workers,
        "traced": args.traced,
        "checks": [],
    }
    start = time.perf_counter()
    import repro  # noqa: F401

    out["import_repro_s"] = time.perf_counter() - start
    import numpy

    out["numpy"] = numpy.__version__

    recorder = patch = None
    if args.traced:
        import spans

        recorder = spans.Recorder()
        patch = spans.install(recorder)
    try:
        if workload.kind == "trainer":
            run_trainer(workload, args.seed, workers, out)
        else:
            run_sweep(workload, args.seed, workers, out)
    finally:
        if patch is not None:
            patch.remove()
    if patch is not None and recorder is not None:
        still_patched = patch.verify_removed()
        if still_patched:
            out["checks"].append(f"wrappers not removed: {still_patched}")
        out["wrapped"] = patch.targets
        out["layers"] = {
            name: {"busy_s": s.busy_s, "self_s": s.self_s, "calls": s.calls}
            for name, s in recorder.layers().items()
        }
        out["counts"] = recorder.counts
    out["rss_self_mb"], out["rss_children_mb"] = _rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
