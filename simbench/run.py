"""Benchmark command: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout::

    python3 simbench/run.py --workload table5_serial --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload in fresh interpreters (``job.py``) until
``--seconds`` have passed and reports the end-to-end metrics, medians
over the jobs.  ``--trace 1`` is the separate traced run: it wraps the
layer entry points in wall-clock spans (``spans.py``) and reports the
per-layer metrics.  Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give the host provenance and each metric by name and unit.

Every job runs in its own process group under a wall-time limit.  After
each job ``run.py`` checks that no process of the group survived and
that no new ``/dev/shm`` entry (shared-memory slab or ``sem.mp-*``
semaphore) was left behind; a crash, a timeout, a leak or a failed
correctness check fails the job's operations (rounds or cells).  The
exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

#: The whole run must end well inside 180 s, even when a job hangs.
HARD_LIMIT_S = 165.0
JOB_TIMEOUT_S = 120.0
#: Jobs per end-to-end run, whatever ``--seconds`` says.
MIN_JOBS = 2
#: BLAS threads per process: at most 2 processes compute at a time
#: (the parent is idle while two workers train), and 2 x 1 <= nproc = 2
#: on the reference host.  Fixed, so every commit runs the same way.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SHM_DIR = Path("/dev/shm")

END_TO_END = {
    "setup_s": "s",
    "time_to_result_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Layers reported as ``<layer>.busy_s``, ``.calls`` and ``.share``.
TIMED_LAYERS = (
    "core.local.train_round",
    "nn.forward_train",
    "nn.forward_eval",
    "nn.backward",
    "nn.sgd_step",
    "core.pool.train_round",
    "aggregation.multikrum",
    "aggregation.krum",
    "aggregation.median",
    "aggregation.geomed",
    "aggregation.incremental_from",
    "attacks.alie",
    "attacks.sign_flip",
    "attacks.ipm",
    "consensus.voting.agree",
    "consensus.acs.agree",
    "consensus.validator.score_matrix",
    "parallel.map",
    "scenario.run",
)
#: Counts the wrappers add up (see ``spans.install``).
COUNTS = (
    "core.pool.jobs",
    "core.pool.used_shm",
    "consensus.model_messages",
    "consensus.scalar_messages",
    "consensus.excluded",
    "sim.events",
    "parallel.map.tasks",
)
PER_LAYER = {
    "setup.import_repro_s": "s",
    "setup.import_attacks_s": "s",
    "data.prepare_data_s": "s",
    "core.trainer_init_s": "s",
    "core.trainer.round0_s": "s",
    "core.trainer.round_ms.p50": "ms",
    "core.trainer.round_ms.p90": "ms",
    "core.trainer.rounds": "count",
    "core.trainer.unattributed_share": "ratio",
    "core.local.train_round.self_s": "s",
    "core.pool.init_s": "s",
    "core.pool.speedup_vs_serial": "ratio",
    "consensus.accept_ratio": "ratio",
    "obs.trace.events": "count",
    "obs.audit.records": "count",
    "bench.trace_overhead_ratio": "ratio",
    **{name: "count" for name in COUNTS},
}
for _layer in TIMED_LAYERS:
    PER_LAYER[f"{_layer}.busy_s"] = "s"
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.share"] = "ratio"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result at all."""


# ----------------------------------------------------------------------
# jobs: fresh interpreters in their own process group
# ----------------------------------------------------------------------
@dataclass
class Job:
    record: dict | None
    t_launch: float
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.record is not None and not self.errors


def job_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def _group_members(pgid: int) -> list[int]:
    """Live processes whose process group is ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp ...
        fields = stat[stat.rfind(")") + 2 :].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _shm_entries() -> set[str]:
    try:
        return {p.name for p in SHM_DIR.iterdir()}
    except OSError:
        return set()


def run_job(root: Path, argv: list[str], timeout: float) -> Job:
    """Run ``job.py argv`` once; never leaves a process or segment behind."""
    shm_before = _shm_entries()
    t_launch = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "job.py"), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=job_env(root),
        cwd=root,
        start_new_session=True,
    )
    errors: list[str] = []
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        out, err = proc.communicate()
        errors.append(f"timed out after {timeout:.0f}s")
    finally:
        if proc.poll() is None:  # interrupted: take the whole group down
            _kill_group(proc.pid)
            proc.wait()
    # Pool workers and the resource tracker exit right after the job;
    # anything of the group still alive after a grace period is orphaned.
    deadline = time.perf_counter() + 5.0
    while _group_members(proc.pid) and time.perf_counter() < deadline:
        time.sleep(0.05)
    orphans = _group_members(proc.pid)
    if orphans:
        _kill_group(proc.pid)
        errors.append(f"orphaned processes {orphans} after the job exited")
    leaked = sorted(_shm_entries() - shm_before)
    if leaked:
        errors.append(f"left behind in {SHM_DIR}: {leaked}")
        for name in leaked:
            (SHM_DIR / name).unlink(missing_ok=True)
    record = None
    if proc.returncode != 0 and not errors:
        tail = "\n".join(err.strip().splitlines()[-5:])
        errors.append(f"exit code {proc.returncode}: {tail}")
    elif proc.returncode == 0:
        try:
            record = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            errors.append("no JSON record on the job's last output line")
    if record is not None:
        errors.extend(record["checks"])
    return Job(record, t_launch, errors)


def job_argv(workload: str, seed: int, workers: int | None = None, traced: bool = False) -> list[str]:
    argv = ["--workload", workload, "--seed", str(seed)]
    if workers is not None:
        argv += ["--workers", str(workers)]
    if traced:
        argv.append("--traced")
    return argv


class Budget:
    """Wall-time left before the hard limit of the whole run."""

    def __init__(self) -> None:
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def job_timeout(self) -> float:
        left = HARD_LIMIT_S - self.elapsed()
        if left < 5.0:
            raise BenchError("no time left for another job")
        return min(JOB_TIMEOUT_S, left)


# ----------------------------------------------------------------------
# correctness across jobs
# ----------------------------------------------------------------------
def cross_checks(jobs: list[Job], reference: Job | None = None) -> list[str]:
    """Same seed, same outputs: digests (and stream sizes) must agree."""
    done = [j.record for j in jobs if j.record is not None]
    errors = []
    for key in ("digest", "trace_events", "audit_records"):
        values = {r.get(key) for r in done}
        if len(values) > 1:
            errors.append(f"{key} differs between runs of one seed: {sorted(map(str, values))}")
    if reference is not None and reference.record is not None:
        for r in done:
            if r["digest"] != reference.record["digest"]:
                errors.append(
                    f"workers={r['workers']} digest {r['digest'][:12]} != "
                    f"workers={reference.record['workers']} digest "
                    f"{reference.record['digest'][:12]}"
                )
                break
    return errors


def count_ops(jobs: list[Job], ops_per_job: int) -> tuple[int, int]:
    attempted = failed = 0
    for job in jobs:
        attempted += ops_per_job
        if not job.ok:
            failed += ops_per_job
        else:
            failed += job.record["failed_ops"]
    return attempted, failed


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(root: Path, name: str, seed: int, seconds: float, budget: Budget) -> dict:
    workload = wl.SPECS[name]
    jobs: list[Job] = []
    reference = None
    errors: list[str] = []
    if name == "table5_pool2":
        # Same inputs at workers=1: the pool's digest must match it.
        reference = run_job(root, job_argv(name, seed, workers=1), budget.job_timeout())
        errors += [f"workers=1 reference: {e}" for e in reference.errors]
    # Launch jobs while the next one (as long as the longest so far) is
    # expected to end within --seconds; always at least MIN_JOBS.
    measure_start = time.perf_counter()
    longest = 0.0
    while len(jobs) < MIN_JOBS or (
        time.perf_counter() - measure_start + longest <= seconds
        and HARD_LIMIT_S - budget.elapsed() > 60.0
    ):
        started = time.perf_counter()
        jobs.append(run_job(root, job_argv(name, seed), budget.job_timeout()))
        longest = max(longest, time.perf_counter() - started)
    for i, job in enumerate(jobs):
        errors += [f"job {i}: {e}" for e in job.errors]
    errors += cross_checks(jobs, reference)
    attempted, failed = count_ops(jobs, workload.ops)
    if reference is not None and not reference.ok:
        failed = attempted
    good = [j for j in jobs if j.ok]
    if not good:
        raise BenchError("no job completed:\n" + "\n".join(errors))

    records = [j.record for j in good]
    # Throughput is work done over the time it took, summed over the
    # run's jobs: steady rounds (after round 0, which holds lazy set-up)
    # or whole sweeps.
    if workload.kind == "trainer":
        done = sum(len(r["round_s"]) - 1 for r in records)
        busy = sum(sum(r["round_s"][1:]) for r in records)
    else:
        done = sum(r["ops"] for r in records)
        busy = sum(r["t_result"] - r["t_ready"] for r in records)
    samples = {
        "setup_s": [j.record["t_ready"] - j.t_launch for j in good],
        "time_to_result_s": [j.record["t_result"] - j.t_launch for j in good],
        "peak_rss_mb": [r["rss_self_mb"] + r["rss_children_mb"] for r in records],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["ops_per_s"] = done / busy
    info = {
        "jobs": len(jobs),
        "samples": samples,
        "numpy": records[0]["numpy"],
        "throughput_name": "rounds_per_s" if workload.kind == "trainer" else "cells_per_s",
    }
    return dict(metrics=metrics, attempted=attempted, failed=failed, errors=errors, info=info)


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def import_attacks_s(root: Path, budget: Budget) -> float:
    """Cumulative ``-X importtime`` of ``repro.attacks`` in a fresh
    interpreter (the first line naming it is the module's own import)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.attacks"],
        capture_output=True,
        text=True,
        env=job_env(root),
        cwd=root,
        timeout=budget.job_timeout(),
    )
    if proc.returncode != 0:
        raise BenchError(f"importtime probe failed: {proc.stderr[-500:]}")
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "repro.attacks":
            return int(parts[1]) / 1e6
    raise BenchError("repro.attacks missing from the -X importtime report")


def _layer_source(primary: dict, secondary: dict | None, layer: str) -> dict | None:
    """The job a layer's numbers come from: the workload's own run when
    the layer ran in its process, otherwise the workers=1 pass."""
    if layer in primary.get("layers", {}):
        return primary
    if secondary is not None and layer in secondary.get("layers", {}):
        return secondary
    return None


def _wall(record: dict) -> float:
    """The wall a layer's share is taken of: all rounds, or the sweep."""
    layers = record["layers"]
    if "core.trainer.run_round" in layers:
        return layers["core.trainer.run_round"]["busy_s"]
    return layers["scenario.run"]["busy_s"]


def _work_s(record: dict) -> float:
    """The steady-state work of a job: its median round after round 0
    (which holds lazy set-up such as the pool spawn), or the sweep."""
    if "round_s" in record:
        return statistics.median(record["round_s"][1:])
    return record["t_result"] - record["t_ready"]


def _percentile_ms(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def per_layer(root: Path, name: str, seed: int, budget: Budget) -> dict:
    workload = wl.SPECS[name]
    plain = run_job(root, job_argv(name, seed), budget.job_timeout())
    traced = run_job(root, job_argv(name, seed, traced=True), budget.job_timeout())
    jobs = [plain, traced]
    serial = None
    if workload.workers > 1:
        serial = run_job(root, job_argv(name, seed, workers=1, traced=True), budget.job_timeout())
        jobs.append(serial)
    errors = []
    for label, job in zip(("untraced", "traced", "traced workers=1"), jobs):
        errors += [f"{label}: {e}" for e in job.errors]
    errors += cross_checks(jobs)
    attempted, failed = count_ops(jobs, workload.ops)
    if not all(j.record is not None for j in jobs):
        raise BenchError("a traced-run job did not complete:\n" + "\n".join(errors))

    main = traced.record
    second = serial.record if serial is not None else None
    m: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    m["setup.import_repro_s"] = main["import_repro_s"]
    m["setup.import_attacks_s"] = import_attacks_s(root, budget)
    layers = main["layers"]
    for key, layer in (
        ("data.prepare_data_s", "data.prepare_data"),
        ("core.trainer_init_s", "core.trainer_init"),
        ("core.pool.init_s", "core.pool.init"),
    ):
        if layer in layers:
            m[key] = layers[layer]["busy_s"]
    for layer in TIMED_LAYERS:
        source = _layer_source(main, second, layer)
        if source is None:
            continue
        stats = source["layers"][layer]
        m[f"{layer}.busy_s"] = stats["busy_s"]
        m[f"{layer}.calls"] = stats["calls"]
        m[f"{layer}.share"] = stats["busy_s"] / _wall(source)
    local = _layer_source(main, second, "core.local.train_round")
    if local is not None:
        m["core.local.train_round.self_s"] = local["layers"]["core.local.train_round"]["self_s"]
    for count in COUNTS:
        for source in (main, second):
            if source is not None and source["counts"].get(count):
                m[count] = source["counts"][count]
                break
    consensus = next(
        (s["counts"] for s in (main, second) if s is not None and s["counts"].get("consensus.proposals")),
        None,
    )
    if consensus is not None:
        m["consensus.accept_ratio"] = consensus["consensus.accepted"] / consensus["consensus.proposals"]
    if workload.kind == "trainer":
        rounds = main["round_s"]
        m["core.trainer.round0_s"] = rounds[0]
        m["core.trainer.round_ms.p50"] = statistics.median(rounds[1:]) * 1e3
        m["core.trainer.round_ms.p90"] = _percentile_ms(rounds[1:], 90)
        m["core.trainer.rounds"] = len(rounds) - 1
        run_round = layers["core.trainer.run_round"]
        m["core.trainer.unattributed_share"] = run_round["self_s"] / run_round["busy_s"]
        if second is not None:
            serial_local = second["layers"]["core.local.train_round"]["busy_s"]
            m["core.pool.speedup_vs_serial"] = serial_local / layers["core.pool.train_round"]["busy_s"]
    else:
        m["obs.trace.events"] = main["trace_events"]
        m["obs.audit.records"] = main["audit_records"]
    m["bench.trace_overhead_ratio"] = _work_s(main) / _work_s(plain.record)
    info = {"jobs": len(jobs), "numpy": main["numpy"], "wrapped": main["wrapped"]}
    return dict(metrics=m, attempted=attempted, failed=failed, errors=errors, info=info)


# ----------------------------------------------------------------------
# provenance and output
# ----------------------------------------------------------------------
def git_commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance(root: Path, args: argparse.Namespace, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
        "git_commit": git_commit(root),
    }


def declared_names(root: Path, trace: bool) -> list[str]:
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {root / 'src'}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    if sorted(declared_names(root, bool(args.trace))) != sorted(units):
        print("error: metric names differ from BENCHMARK.json", file=sys.stderr)
        return 2
    budget = Budget()
    # Byte-compile up front so no job pays for it inside its set-up.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/repro"],
        cwd=root, check=True, capture_output=True, timeout=budget.job_timeout(),
    )
    try:
        if args.trace:
            result = per_layer(root, args.workload, args.seed, budget)
        else:
            result = end_to_end(root, args.workload, args.seed, args.seconds, budget)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    errors = result["errors"]
    print(json.dumps({"provenance": provenance(root, args, result["info"]["numpy"]),
                      "info": result["info"]}))
    for name, unit in units.items():
        label = name
        if name == "ops_per_s":
            label = f"{name} ({result['info']['throughput_name']})"
        print(f"{label} = {metrics[name]:.6g} {unit}")
    ratio = result["failed"] / result["attempted"]
    print(f"failed_ratio = {ratio:.6g} ratio ({result['failed']} of {result['attempted']} operations)")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    correct = not errors and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
