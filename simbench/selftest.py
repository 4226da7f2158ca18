"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 simbench/selftest.py

1. The workload and metric names (and units) in ``BENCHMARK.json`` are
   exactly the ones ``run.py`` prints, and the file keeps the format
   rules the benchmark runner enforces.
2. Every span wrapper is removed after a traced run, so untraced code
   runs unpatched.
3. ``run.py`` really prints those names: one short end-to-end run and
   one traced run of ``table5_serial``.
4. In a directory holding only ``BENCHMARK.json`` and the benchmark,
   ``run.py`` exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_declared_names() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        assert declared == printed, f"{key}: {set(declared) ^ set(printed)}"
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values()), bounds
    assert bounds["setup_s"] == max(bounds.values()), "setup_s needs the largest bound"
    for w in bench["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]


def check_wrappers_removed() -> None:
    import spans
    from repro.experiments import setup as exp_setup

    recorder = spans.Recorder()
    patch = spans.install(recorder)
    try:
        assert patch.verify_removed() == patch.targets, "a target was not wrapped"
        config = exp_setup.ExperimentConfig(
            n_levels=2, cluster_size=2, n_top=2, image_side=8,
            samples_per_client=20, n_test=40, n_rounds=1,
        )
        trainer = exp_setup.build_abdhfl_trainer(config, exp_setup.prepare_data(config))
        trainer.run_round()
    finally:
        patch.remove()
    assert patch.verify_removed() == [], patch.verify_removed()
    recorded = len(recorder.spans)
    assert recorded > 0, "the traced round recorded no spans"
    trainer.run_round()
    exp_setup.prepare_data(config)
    assert len(recorder.spans) == recorded, "a wrapper still records after removal"


def run_command(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "simbench" / "run.py"), "--workload", "table5_serial",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_printed_names() -> None:
    for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        proc = run_command(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
        assert result["correct"] is True
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared, set(printed) ^ set(declared)


def check_fails_without_program() -> None:
    with tempfile.TemporaryDirectory(prefix=".simbench_selftest_", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "simbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_command(bare, 0)
        assert proc.returncode != 0, "run.py succeeded without the program"
        assert '"correct"' not in proc.stdout, "run.py printed a result without the program"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    for check in (
        check_declared_names,
        check_wrappers_removed,
        check_printed_names,
        check_fails_without_program,
    ):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
