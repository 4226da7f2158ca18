"""Old-vs-new timing of the aggregation fast path.

Times every (stateless) rule three ways across n x d grids:

* ``reference`` — the per-vector oracle fed a plain list of update
  vectors: stacking, validation, geometry kernels and the per-vector
  inner loops are all paid inside the call, exactly like the pre-fast-path
  code did every round;
* ``fast cold`` — the *zero-copy slab entry*: the updates already sit in
  a contiguous ``(n, d)`` float64 slab (exactly how the shared-memory
  transport delivers a round's vectors), built outside the timing; the
  measured call pays validation, the kernel builds and the rule body;
* ``fast warm`` — the per-round marginal cost: the matrix and its cached
  Gram/pairwise kernels already exist (a round aggregates the same stack
  with its rule after the cache was primed), only the rule body runs.

Emits machine-readable ``BENCH_aggregation.json`` at the repo root so
future PRs can track the perf trajectory, and supports ``--check`` as a
CI gate: *every* benched (rule, n, d) cell must hold a cold-path speedup
of at least 1x — the committed ``BENCH_aggregation.json`` cells
included — and at n=256, d=100000 the fast path must not be slower than
the reference, with Krum/GeoMed clearing a 3x warm speedup.

``--check`` also runs the zero-overhead gates: with sanitizers, tracing
or auditing off, and with ``parallel_map(workers=1)``, an aggregation
must cost what the raw kernel costs.  ``--overhead CHANNEL`` runs one of
them alone.

Usage::

    PYTHONPATH=src python benchmarks/bench_aggregation_kernels.py
    PYTHONPATH=src python benchmarks/bench_aggregation_kernels.py --check
    PYTHONPATH=src python benchmarks/bench_aggregation_kernels.py --overhead trace
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, ContextManager

import numpy as np

from repro.aggregation import ParameterMatrix, get_aggregator
from repro.check import sanitize
from repro.obs import audit, trace
from repro.parallel import parallel_map

SIZES: list[tuple[int, int]] = [
    (16, 1_000),
    (16, 100_000),
    (64, 1_000),
    (64, 100_000),
    (256, 1_000),
    (256, 100_000),
]
CHECK_SIZE: tuple[int, int] = (256, 100_000)
# Stateless rules only: a stateful rule's second call takes a different
# code path, so "repeat the call" timing would not measure one round.
RULES: list[str] = [
    "fedavg",
    "median",
    "trimmed_mean",
    "krum",
    "multikrum",
    "geomed",
    "autogm",
    "centered_clipping",
    "clustering",
]
SPEEDUP_RULES = ("krum", "geomed")
SPEEDUP_FLOOR = 3.0
# Cold-path floor, enforced per (rule, n, d) cell: with the zero-copy
# slab entry the fast path may never lose to the per-vector reference,
# even when the kernel builds are inside the timing.
COLD_FLOOR = 1.0
TARGET_SECONDS = 0.2  # per-measurement budget governing repetitions
MAX_REPS = 9


def _make_updates(n: int, d: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Honest cluster + a 25% Byzantine tail, as a list of flat vectors."""
    center = rng.standard_normal(d)
    n_byz = max(1, n // 4)
    honest = [center + 0.1 * rng.standard_normal(d) for _ in range(n - n_byz)]
    byz = [center + 5.0 * rng.standard_normal(d) for _ in range(n_byz)]
    return honest + byz


def _best_of(fn: Callable[[], object], reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _reps_for(fn: Callable[[], object]) -> tuple[int, float]:
    """Pick a repetition count from one probe run; returns (reps, probe_s)."""
    t0 = time.perf_counter()
    fn()
    probe = time.perf_counter() - t0
    if probe >= TARGET_SECONDS:
        return 1, probe
    return min(MAX_REPS, max(1, int(TARGET_SECONDS / max(probe, 1e-9)))), probe


def bench_rule(rule: str, n: int, d: int, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    vectors = _make_updates(n, d, rng)
    weights = rng.random(n) + 0.5
    # The production cold path: a round's vectors arrive device-ordered in
    # one contiguous slab (the shared-memory transport's layout), so the
    # matrix build is zero-copy — only validation and kernels are paid
    # inside the timing.  The reference keeps the per-vector list the
    # pre-fast-path code aggregated every round.
    slab = np.ascontiguousarray(np.stack(vectors))

    fast = get_aggregator(rule)
    ref = get_aggregator(rule, reference=True)

    def run_reference() -> np.ndarray:
        return ref(list(vectors), weights)

    def run_fast_cold() -> np.ndarray:
        return fast(ParameterMatrix(slab, weights))

    warm_matrix = ParameterMatrix(list(vectors), weights)
    fast(warm_matrix)  # prime the kernel caches

    def run_fast_warm() -> np.ndarray:
        return fast(warm_matrix)

    # Differential guarantee holds here too — assert it so the benchmark
    # can never report a speedup of a wrong kernel.
    if not np.array_equal(run_fast_cold(), run_reference()):
        raise AssertionError(f"{rule}: fast path diverged from reference")

    reps_ref, probe_ref = _reps_for(run_reference)
    reps_cold, probe_cold = _reps_for(run_fast_cold)
    reps_warm, probe_warm = _reps_for(run_fast_warm)
    reference_s = min(probe_ref, _best_of(run_reference, reps_ref))
    cold_s = min(probe_cold, _best_of(run_fast_cold, reps_cold))
    warm_s = min(probe_warm, _best_of(run_fast_warm, reps_warm))
    return {
        "rule": rule,
        "n": n,
        "d": d,
        "reference_s": reference_s,
        "fast_cold_s": cold_s,
        "fast_warm_s": warm_s,
        "speedup_cold": reference_s / max(cold_s, 1e-12),
        "speedup_warm": reference_s / max(warm_s, 1e-12),
    }


SANITIZE_RULES = ("fedavg", "krum")
# The opt-out path is one module-level boolean test; "zero overhead"
# allows for timer noise but nothing resembling an array traversal.
SANITIZE_OFF_TOLERANCE = 1.10  # relative
SANITIZE_OFF_EPSILON = 2e-4  # absolute seconds

#: Calls per measurement for the parallel_map dispatch-overhead gate:
#: enough to expose any per-item cost, few enough to keep --check fast.
PARALLEL_OVERHEAD_ITEMS = 32

#: The zero-overhead gates, one per opt-in layer: what the "off" path
#: is, the scope that turns the layer on (``None``: no "on" path), and
#: what the off path must stay.
_Scope = Callable[[], ContextManager[object]]
OVERHEAD_GATES: dict[str, tuple[str, _Scope | None, str]] = {
    "sanitize": (
        "disabled sanitizers",
        lambda: sanitize.sanitized(True),
        "the opt-out must stay one boolean test",
    ),
    "trace": (
        "disabled tracing",
        trace.traced,
        "the opt-out must stay one None test",
    ),
    "audit": (
        "disabled auditing",
        audit.audited,
        "the opt-out must stay one None test",
    ),
    "parallel": (
        "workers=1 parallel_map",
        None,
        "the serial path must stay a plain comprehension",
    ),
}


def bench_overhead(channel: str, rule: str, n: int, d: int, seed: int = 0) -> dict:
    """Time warm aggregations raw / layer-off / layer-on for one gate.

    For the opt-in layers (sanitize, trace, audit) ``raw`` calls
    ``_aggregate`` directly, ``off`` goes through ``__call__`` with the
    layer disabled — the guard must cost one test — and ``on`` pays the
    real checks or recording.  For ``parallel``, ``raw`` is a plain loop
    over :data:`PARALLEL_OVERHEAD_ITEMS` calls and ``off`` routes the same
    calls through ``parallel_map(workers=1)``, which may cost one
    workers-resolution test per batch but nothing per item.
    """
    rng = np.random.default_rng(seed)
    vectors = _make_updates(n, d, rng)
    weights = rng.random(n) + 0.5
    fast = get_aggregator(rule)
    matrix = ParameterMatrix(list(vectors), weights)
    fast(matrix)  # prime kernels
    _, scope, _ = OVERHEAD_GATES[channel]

    runs: dict[str, Callable[[], object]]
    if channel == "parallel":
        items = [matrix] * PARALLEL_OVERHEAD_ITEMS
        runs = {
            "raw": lambda: [fast(m) for m in items],
            "off": lambda: parallel_map(fast, items, workers=1),
        }
    else:
        assert scope is not None

        def run_on() -> np.ndarray:
            with scope():
                return fast(matrix)

        runs = {
            "raw": lambda: fast._aggregate(matrix),
            "off": lambda: fast(matrix),
            "on": run_on,
        }

    # Every path is read-only: guarding, recording or routing must not
    # change a bit.
    expected = runs["off"]()
    for path, run in runs.items():
        if not np.array_equal(run(), expected):
            raise AssertionError(
                f"{rule}: the {channel} {path} path changed the aggregate"
            )

    reps = max(10, _reps_for(runs["raw"])[0])
    row: dict = {"channel": channel, "rule": rule, "n": n, "d": d}
    if channel == "parallel":
        row["items"] = PARALLEL_OVERHEAD_ITEMS
    for path, run in runs.items():
        row[f"{path}_s"] = _best_of(run, reps)
        if path != "raw":
            row[f"{path}_overhead"] = row[f"{path}_s"] / max(row["raw_s"], 1e-12)
    return row


def check_overhead(channel: str, n: int, d: int) -> list[str]:
    """CI gate: the disabled (or ``workers=1``) path of ``channel`` must be
    free."""
    what, _, why = OVERHEAD_GATES[channel]
    failures = []
    for rule in SANITIZE_RULES:
        row = bench_overhead(channel, rule, n, d)
        line = (
            f"{channel:8s} {rule:10s} n={n:4d} d={d:6d}  "
            f"raw={row['raw_s']*1e3:8.3f}ms  "
            f"off={row['off_s']*1e3:8.3f}ms ({row['off_overhead']:.3f}x)"
        )
        if "on_s" in row:
            line += f"  on={row['on_s']*1e3:8.3f}ms ({row['on_overhead']:.3f}x)"
        else:
            line += f"  ({row['items']} calls per batch)"
        print(line, flush=True)
        if row["off_s"] > row["raw_s"] * SANITIZE_OFF_TOLERANCE + SANITIZE_OFF_EPSILON:
            failures.append(
                f"{rule}: {what} at "
                f"{row['off_overhead']:.3f}x the raw path at n={n}, "
                f"d={d} ({row['off_s']:.5f}s vs {row['raw_s']:.5f}s); {why}"
            )
    return failures


def run_grid(sizes: list[tuple[int, int]]) -> dict:
    results = []
    for n, d in sizes:
        for rule in RULES:
            row = bench_rule(rule, n, d)
            results.append(row)
            print(
                f"{rule:18s} n={n:4d} d={d:6d}  "
                f"ref={row['reference_s']*1e3:9.2f}ms  "
                f"cold={row['fast_cold_s']*1e3:9.2f}ms  "
                f"warm={row['fast_warm_s']*1e3:9.2f}ms  "
                f"speedup(warm)={row['speedup_warm']:7.1f}x",
                flush=True,
            )
    return {
        "benchmark": "aggregation_kernels",
        "config": {
            "sizes": [list(s) for s in sizes],
            "rules": RULES,
            "timing": "best-of-reps wall clock, adaptive reps",
            "numpy": np.__version__,
        },
        "results": results,
    }


def check(report: dict, label: str = "measured") -> list[str]:
    """CI gate; returns a list of failure messages.

    Two layers: the per-cell cold floor applies to *every* (rule, n, d)
    result in the report — the regression this gate exists for was the
    cold path losing to the reference while the warm numbers looked
    fine — and the warm comparisons apply at CHECK_SIZE.
    """
    n, d = CHECK_SIZE
    failures = []
    for row in report["results"]:
        if row["speedup_cold"] < COLD_FLOOR:
            failures.append(
                f"{row['rule']}: cold speedup {row['speedup_cold']:.3f}x < "
                f"{COLD_FLOOR}x at n={row['n']}, d={row['d']} ({label}); "
                "the zero-copy cold path must never lose to the reference"
            )
    at_size = {r["rule"]: r for r in report["results"] if (r["n"], r["d"]) == (n, d)}
    if not at_size:
        return [f"no results at n={n}, d={d} ({label})"]
    for rule, row in at_size.items():
        if row["fast_warm_s"] > row["reference_s"]:
            failures.append(
                f"{rule}: fast path slower than reference at n={n}, d={d} "
                f"({row['fast_warm_s']:.4f}s vs {row['reference_s']:.4f}s)"
            )
    for rule in SPEEDUP_RULES:
        row = at_size.get(rule)
        if row is None:
            failures.append(f"{rule}: missing from results at n={n}, d={d}")
        elif row["speedup_warm"] < SPEEDUP_FLOOR:
            failures.append(
                f"{rule}: warm speedup {row['speedup_warm']:.2f}x < "
                f"{SPEEDUP_FLOOR}x at n={n}, d={d}"
            )
    return failures


def check_committed_report(repo_root: Path) -> list[str]:
    """Gate the committed ``BENCH_aggregation.json`` cells (no re-run).

    ``--check`` only re-measures CHECK_SIZE; the full grid lives in the
    committed report, so its recorded cells are held to the same cold
    floor — a regeneration that recorded a cold regression fails CI even
    though the slow cells are not re-benched.
    """
    path = repo_root / "BENCH_aggregation.json"
    if not path.exists():
        return []
    report = json.loads(path.read_text())
    floor_failures = [
        message
        for row in report.get("results", [])
        if row["speedup_cold"] < COLD_FLOOR
        for message in [
            f"{row['rule']}: committed BENCH_aggregation.json records cold "
            f"speedup {row['speedup_cold']:.3f}x < {COLD_FLOOR}x at "
            f"n={row['n']}, d={row['d']}; regenerate after fixing the "
            "cold path"
        ]
    ]
    return floor_failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="benchmark only the CI gate size and fail if any cell is "
        "below the cold-path floor (committed BENCH_aggregation.json "
        "cells included), the fast path is slower than reference, or "
        "Krum/GeoMed fall below the warm speedup floor; also runs every "
        "zero-overhead gate (see --overhead)",
    )
    parser.add_argument(
        "--overhead",
        choices=sorted(OVERHEAD_GATES),
        default=None,
        help="only run one zero-overhead gate (sanitize/trace/audit: the "
        "opt-out path vs raw; parallel: workers=1 dispatch vs a raw serial "
        "loop) and fail if that path is not free",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON report "
        "(default: BENCH_aggregation.json at the repo root; "
        "--check writes nothing unless this is given)",
    )
    args = parser.parse_args(argv)

    if args.overhead is not None:
        failures = check_overhead(args.overhead, *CHECK_SIZE)
        for message in failures:
            print(f"CHECK FAILED: {message}", file=sys.stderr)
        if failures:
            return 1
        print(f"check passed: the {args.overhead} off path adds no "
              "measurable overhead")
        return 0

    sizes = [CHECK_SIZE] if args.check else SIZES
    report = run_grid(sizes)

    output = args.output
    if output is None and not args.check:
        output = Path(__file__).resolve().parents[1] / "BENCH_aggregation.json"
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")

    if args.check:
        failures = check(report)
        failures.extend(
            check_committed_report(Path(__file__).resolve().parents[1])
        )
        for channel in OVERHEAD_GATES:
            failures.extend(check_overhead(channel, *CHECK_SIZE))
        for message in failures:
            print(f"CHECK FAILED: {message}", file=sys.stderr)
        if failures:
            return 1
        print("check passed: every benched cell above the "
              f"{COLD_FLOOR}x cold floor (committed report included); "
              "fast path faster than reference at "
              f"n={CHECK_SIZE[0]}, d={CHECK_SIZE[1]}; "
              f"{' and '.join(SPEEDUP_RULES)} above {SPEEDUP_FLOOR}x; "
              "disabled sanitizers, tracing, auditing and workers=1 "
              "dispatch add no measurable overhead")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
