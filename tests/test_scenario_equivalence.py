"""Golden equivalence: the scenario runner reproduces plain sweep loops
bit for bit.

The Table V grid, the defence matrix and the breakdown curve were once
hand-written loops over the single-cell primitives (``run_cell``,
``gradient_gap``).  Those loop bodies are inlined here, verbatim, as
golden oracles.  The suite then pins, for the same seeds:

* oracle cells == ``ScenarioRunner`` cells (dataclass equality is exact
  float equality — bit identity);
* identical rendered report tables;
* byte-identical merged traces (the runner adds no events of its own);
* worker count as a pure wall-clock knob (workers>1 and a slow-marked
  ``REPRO_WORKERS=3`` subprocess variant).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.matrix import MatrixCell, gradient_gap
from repro.experiments.setup import ExperimentConfig
from repro.experiments.table5 import format_table5, run_cell
from repro.faults.plan import FaultPlan
from repro.obs import Tracer, trace
from repro.scenario import (
    FaultSpec,
    ScenarioRunner,
    accuracy_spec,
    defence_options_for,
    matrix_spec,
    render_result,
)
from test_determinism_subprocess import _run_child

TINY = ExperimentConfig(
    n_levels=2,
    cluster_size=4,
    n_top=2,
    image_side=8,
    samples_per_client=50,
    n_test=200,
    n_rounds=2,
    hidden=(16,),
)


# ----------------------------------------------------------------------
# golden oracles: the hand-written sweep bodies, verbatim
# ----------------------------------------------------------------------
def legacy_run_table5(base_config, fractions, distributions, attacks, n_runs=1):
    cells = []
    for iid in distributions:
        dist_cfg = base_config.for_distribution(iid)
        for attack in attacks:
            for fraction in fractions:
                cfg = replace(
                    dist_cfg, attack=attack, malicious_fraction=fraction
                )
                cells.append(run_cell(cfg, n_runs=n_runs))
    return cells


def legacy_run_defence_matrix(
    defences,
    attacks,
    byzantine_fraction=0.25,
    seed=0,
    consensus=None,
    consensus_adversary="none",
    **kwargs,
):
    cells = []
    for defence in defences:
        for attack in attacks:
            gap = gradient_gap(
                defence,
                attack,
                byzantine_fraction=byzantine_fraction,
                seed=seed,
                defence_options=defence_options_for(defence, byzantine_fraction),
                consensus=consensus,
                consensus_adversary=consensus_adversary,
                **kwargs,
            )
            cells.append(
                MatrixCell(
                    defence=defence,
                    attack=attack,
                    byzantine_fraction=byzantine_fraction,
                    gap=gap,
                    consensus=consensus,
                    consensus_adversary=consensus_adversary,
                )
            )
    return cells


def legacy_breakdown_curve(defence, attack, fractions, seed=0, **kwargs):
    cells = []
    for fraction in fractions:
        gap = gradient_gap(
            defence,
            attack if fraction > 0 else "none",
            byzantine_fraction=fraction,
            seed=seed,
            defence_options=defence_options_for(defence, fraction),
            **kwargs,
        )
        cells.append(MatrixCell(defence, attack, fraction, gap))
    return cells


# ----------------------------------------------------------------------
# gradient-estimation equivalence (fast)
# ----------------------------------------------------------------------
MATRIX_KW = dict(
    defences=("median", "trimmed_mean", "krum"),
    attacks=("sign_flip", "scaling"),
    byzantine_fraction=0.25,
    seed=5,
    n_trials=2,
)

ACS_KW = dict(
    defences=("median", "krum"),
    attacks=("sign_flip",),
    byzantine_fraction=0.2,
    n_total=7,
    dim=8,
    n_trials=2,
    seed=3,
    drop_fraction=0.15,
)


class TestDefenceMatrixEquivalence:
    def test_oracle_shim_and_runner_agree(self):
        oracle = legacy_run_defence_matrix(**MATRIX_KW)
        spec = matrix_spec(
            defences=MATRIX_KW["defences"],
            attacks=MATRIX_KW["attacks"],
            fractions=(MATRIX_KW["byzantine_fraction"],),
            seed=MATRIX_KW["seed"],
            n_trials=MATRIX_KW["n_trials"],
        )
        result = ScenarioRunner(workers=1).run(spec)
        assert oracle == result.cells
        assert np.array_equal(
            [c.gap for c in oracle], [c.gap for c in result.cells]
        )
        # identical report tables
        assert render_result(spec, oracle) == result.table

    @pytest.mark.parametrize(
        "adversary", ["none", "equivocate", "withhold", "crash_midway"]
    )
    def test_acs_consensus_adversaries(self, adversary):
        kw = dict(ACS_KW, consensus="acs", consensus_adversary=adversary)
        oracle = legacy_run_defence_matrix(**kw)
        spec = matrix_spec(
            defences=kw["defences"],
            attacks=kw["attacks"],
            fractions=(kw["byzantine_fraction"],),
            seed=kw["seed"],
            n_total=kw["n_total"],
            dim=kw["dim"],
            n_trials=kw["n_trials"],
            drop_fraction=kw["drop_fraction"],
            consensus="acs",
            consensus_adversary=adversary,
        )
        result = ScenarioRunner(workers=1).run(spec)
        assert oracle == result.cells
        assert all(np.isfinite(c.gap) for c in result.cells)
        assert render_result(spec, oracle) == result.table

    def test_acs_with_fault_plan(self):
        plan = FaultPlan.uniform(drop_probability=0.05, seed=11)
        kw = dict(
            ACS_KW,
            consensus="acs",
            consensus_adversary="equivocate",
            fault_plan=plan,
        )
        oracle = legacy_run_defence_matrix(**kw)
        spec = matrix_spec(
            defences=kw["defences"],
            attacks=kw["attacks"],
            fractions=(kw["byzantine_fraction"],),
            seed=kw["seed"],
            n_total=kw["n_total"],
            dim=kw["dim"],
            n_trials=kw["n_trials"],
            drop_fraction=kw["drop_fraction"],
            consensus="acs",
            consensus_adversary="equivocate",
            faults=FaultSpec(seed=11, drop_probability=0.05),
        )
        result = ScenarioRunner(workers=1).run(spec)
        assert spec.fault_plan() == plan
        assert oracle == result.cells

    def test_workers_are_a_pure_wall_clock_knob(self):
        spec = matrix_spec(
            defences=("median", "krum"),
            attacks=("sign_flip", "scaling"),
            fractions=(0.25,),
            n_trials=2,
        )
        serial = ScenarioRunner(workers=1).run(spec)
        sharded = ScenarioRunner(workers=2).run(spec)
        assert serial.cells == sharded.cells
        assert serial.table == sharded.table


class TestBreakdownEquivalence:
    def test_oracle_shim_and_runner_agree(self):
        fractions = (0.0, 0.2, 0.4)
        oracle = legacy_breakdown_curve(
            "trimmed_mean", "sign_flip", fractions, seed=4, n_trials=2
        )
        spec = matrix_spec(
            kind="breakdown_curve",
            defences=("trimmed_mean",),
            attacks=("sign_flip",),
            fractions=fractions,
            seed=4,
            n_trials=2,
        )
        result = ScenarioRunner(workers=1).run(spec)
        assert oracle == result.cells
        # fraction 0 measured the clean baseline but kept the attack label
        assert result.cells[0].attack == "sign_flip"
        assert render_result(spec, oracle) == result.table


class TestTraceEquivalence:
    def test_oracle_and_runner_traces_are_byte_identical(self):
        """The runner emits no events of its own: a spec-driven sweep's
        merged trace serialises to exactly the oracle loop's trace."""

        def oracle_jsonl() -> str:
            with trace.scoped(Tracer()) as tr:
                legacy_run_defence_matrix(
                    defences=("median", "krum"),
                    attacks=("sign_flip",),
                    n_trials=1,
                )
            assert tr.events, "traced sweep recorded nothing"
            return tr.to_jsonl()

        def runner_jsonl(workers: int) -> str:
            spec = matrix_spec(
                defences=("median", "krum"),
                attacks=("sign_flip",),
                fractions=(0.25,),
                n_trials=1,
            )
            with trace.scoped(Tracer()) as tr:
                ScenarioRunner(workers=workers).run(spec)
            assert tr.events, "traced sweep recorded nothing"
            return tr.to_jsonl()

        assert oracle_jsonl() == runner_jsonl(1)

    @pytest.mark.slow
    def test_trace_byte_identity_survives_fan_out(self):
        def runner_jsonl(workers: int) -> str:
            spec = matrix_spec(
                defences=("median", "krum"),
                attacks=("sign_flip",),
                fractions=(0.25,),
                n_trials=1,
            )
            with trace.scoped(Tracer()) as tr:
                ScenarioRunner(workers=workers).run(spec)
            return tr.to_jsonl()

        assert runner_jsonl(1) == runner_jsonl(2)


# ----------------------------------------------------------------------
# trainer-based (accuracy grid) equivalence
# ----------------------------------------------------------------------
TABLE5_KW = dict(
    fractions=(0.0, 0.5),
    distributions=(True,),
    attacks=("type1",),
    n_runs=1,
)


class TestTable5Equivalence:
    def test_oracle_shim_and_runner_agree(self):
        oracle = legacy_run_table5(TINY, **TABLE5_KW)
        spec = accuracy_spec(
            TINY,
            fractions=TABLE5_KW["fractions"],
            distributions=("iid",),
            attacks=TABLE5_KW["attacks"],
            n_runs=1,
        )
        result = ScenarioRunner(workers=1).run(spec)
        assert oracle == result.cells
        assert np.array_equal(
            [c.abdhfl_accuracy for c in oracle],
            [c.abdhfl_accuracy for c in result.cells],
        )
        assert np.array_equal(
            [c.vanilla_accuracy for c in oracle],
            [c.vanilla_accuracy for c in result.cells],
        )
        # identical report tables, through both renderers
        assert format_table5(oracle) == result.table
        assert render_result(spec, oracle) == result.table

    @pytest.mark.slow
    def test_workers_are_a_pure_wall_clock_knob(self):
        spec = accuracy_spec(
            TINY,
            fractions=(0.0, 0.5),
            distributions=("iid",),
            attacks=("type1",),
        )
        serial = ScenarioRunner(workers=1).run(spec)
        sharded = ScenarioRunner(workers=2).run(spec)
        assert serial.cells == sharded.cells
        assert serial.table == sharded.table


# ----------------------------------------------------------------------
# REPRO_WORKERS=3 subprocess variant (slow)
# ----------------------------------------------------------------------
SCENARIO_CHILD = """
import hashlib
import numpy as np
from repro.experiments import ExperimentConfig
from repro.scenario import ScenarioRunner, accuracy_spec, matrix_spec

digest = hashlib.sha256()

spec = matrix_spec(
    defences=("median", "trimmed_mean", "krum"),
    attacks=("sign_flip", "scaling"),
    fractions=(0.25,),
    seed=5,
    n_trials=2,
)
for c in ScenarioRunner().run(spec).cells:
    digest.update(np.float64(c.gap).tobytes())

cfg = ExperimentConfig(
    n_levels=2, cluster_size=4, n_top=2, image_side=8,
    samples_per_client=50, n_test=200, n_rounds=2, hidden=(16,),
)
acc = accuracy_spec(
    cfg, fractions=(0.0, 0.5), distributions=("iid",), attacks=("type1",),
)
for c in ScenarioRunner().run(acc).cells:
    digest.update(np.float64(c.malicious_fraction).tobytes())
    digest.update(np.float64(c.abdhfl_accuracy).tobytes())
    digest.update(np.float64(c.vanilla_accuracy).tobytes())
print(digest.hexdigest())
"""


@pytest.mark.slow
def test_scenario_runner_bit_identical_under_repro_workers_3():
    """End to end through the environment gate: ``REPRO_WORKERS=3`` must
    hash the scenario-driven sweeps exactly like the serial baseline."""
    assert _run_child(SCENARIO_CHILD, workers=3) == _run_child(
        SCENARIO_CHILD, workers=1
    )
