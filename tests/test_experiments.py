"""Tests for the experiment harness (reduced-scale)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    build_abdhfl_trainer,
    build_vanilla_trainer,
    prepare_data,
    run_figure3,
    gradient_gap,
)
from repro.experiments.table5 import Table5Cell, format_table5, run_cell
from repro.experiments.theorem2 import run_theorem2
from repro.experiments.schemes import run_scheme_comparison
from repro.scenario import ScenarioRunner, matrix_spec


TINY = ExperimentConfig(
    n_levels=2,
    cluster_size=4,
    n_top=2,
    image_side=8,
    samples_per_client=50,
    n_test=200,
    n_rounds=4,
    hidden=(16,),
)


class TestExperimentConfig:
    def test_paper_dimensions(self):
        cfg = ExperimentConfig()
        assert cfg.n_clients == 64  # 4 * 4^2

    def test_paper_scale(self):
        cfg = ExperimentConfig.paper_scale()
        assert cfg.image_side == 28
        assert cfg.samples_per_client == 937
        assert cfg.n_rounds == 200
        assert cfg.n_test == 10_000

    def test_for_distribution_switches_aggregator(self):
        iid = ExperimentConfig().for_distribution(True)
        noniid = ExperimentConfig().for_distribution(False)
        assert iid.partial_aggregator == "multikrum"
        assert noniid.partial_aggregator == "median"


class TestPrepareData:
    def test_shards_for_all_clients(self):
        data = prepare_data(replace(TINY, malicious_fraction=0.25))
        assert set(data.client_datasets) == set(data.hierarchy.bottom_clients())
        assert len(data.byzantine) == 2  # 25% of 8

    def test_byzantine_shards_poisoned(self):
        data = prepare_data(
            replace(TINY, malicious_fraction=0.25, attack="type1")
        )
        for cid in data.byzantine:
            assert np.all(data.client_datasets[cid].y == 9)
        honest = set(data.hierarchy.bottom_clients()) - set(data.byzantine)
        for cid in sorted(honest):
            assert len(np.unique(data.client_datasets[cid].y)) > 1

    def test_noniid_honest_cover(self):
        cfg = replace(TINY, iid=False, malicious_fraction=0.25, samples_per_client=60)
        data = prepare_data(cfg)
        honest = set(data.hierarchy.bottom_clients()) - set(data.byzantine)
        covered = set()
        for cid in sorted(honest):
            covered.update(np.unique(data.client_datasets[cid].y).tolist())
        assert covered == set(range(10))

    def test_deterministic(self):
        d1 = prepare_data(TINY)
        d2 = prepare_data(TINY)
        np.testing.assert_array_equal(
            d1.client_datasets[0].X, d2.client_datasets[0].X
        )
        np.testing.assert_array_equal(
            d1.model_template.get_flat(), d2.model_template.get_flat()
        )


class TestBuilders:
    def test_both_trainers_share_data(self):
        data = prepare_data(TINY)
        abd = build_abdhfl_trainer(TINY, data)
        van = build_vanilla_trainer(TINY, data)
        np.testing.assert_array_equal(abd.global_model, van.global_model)
        assert set(abd.trainers) == set(van.trainers)

    def test_run_cell(self):
        cell = run_cell(TINY, n_runs=1)
        assert isinstance(cell, Table5Cell)
        assert 0.0 <= cell.abdhfl_accuracy <= 1.0
        assert 0.0 <= cell.vanilla_accuracy <= 1.0

    def test_format_table5(self):
        cells = [
            Table5Cell(True, "type1", 0.0, 0.9, 0.89),
            Table5Cell(True, "type1", 0.5, 0.88, 0.10),
        ]
        rendered = format_table5(cells)
        assert "ABD-HFL" in rendered and "Vanilla FL" in rendered
        assert "50.0%" in rendered and "0.0%" in rendered


class TestFigure3:
    def test_curve_structure(self):
        abd, van = run_figure3(TINY, n_runs=2)
        assert abd.mean.shape == (TINY.n_rounds,)
        assert abd.runs.shape == (2, TINY.n_rounds)
        assert np.all(abd.ci_half_width >= 0)
        assert abd.label == "ABD-HFL" and van.label == "Vanilla FL"

    def test_n_runs_validation(self):
        with pytest.raises(ValueError):
            run_figure3(TINY, n_runs=0)


class TestTheorem2Experiment:
    def test_bound_and_points(self):
        bound, points = run_theorem2(
            replace(TINY, n_levels=2, n_rounds=2),
            fractions=(0.0, 0.5),
            gamma1=0.25,
            gamma2=0.25,
        )
        # 2 levels -> bottom level 1 -> 1 - 0.75*0.75 = 0.4375
        assert bound == pytest.approx(0.4375)
        assert len(points) == 2
        assert points[0].below_bound and not points[1].below_bound


class TestSchemeComparison:
    def test_all_schemes_run(self):
        outcomes = run_scheme_comparison(
            replace(TINY, malicious_fraction=0.25, n_rounds=2)
        )
        assert [o.scheme for o in outcomes] == [1, 2, 3, 4]
        for o in outcomes:
            assert 0.0 <= o.final_accuracy <= 1.0
            assert o.analytic_model_messages > 0

    def test_cost_ordering_matches_table4(self):
        outcomes = run_scheme_comparison(
            replace(TINY, malicious_fraction=0.25, n_rounds=2)
        )
        by_scheme = {o.scheme: o.analytic_model_messages for o in outcomes}
        assert by_scheme[3] == min(by_scheme.values())
        assert by_scheme[4] == max(by_scheme.values())


class TestDefenceMatrix:
    def test_gap_metric_clean(self):
        # With no attack, averaging n honest updates leaves a gap of about
        # sqrt(dim / n) noise units (dim=64, n=20 -> ~1.8).
        gap = gradient_gap("fedavg", "none", byzantine_fraction=0.0)
        assert gap < 3.0
        # and it is far below the single-update error (~sqrt(dim) = 8)
        assert gap < 0.5 * np.sqrt(64)

    def test_fedavg_broken_by_scaling(self):
        broken = gradient_gap("fedavg", "scaling", byzantine_fraction=0.25)
        robust = gradient_gap("median", "scaling", byzantine_fraction=0.25)
        assert broken > 10 * robust

    def test_matrix_shape(self):
        spec = matrix_spec(
            defences=("fedavg", "median"),
            attacks=("sign_flip", "ipm"),
            fractions=(0.25,),
            n_trials=2,
        )
        cells = ScenarioRunner().run(spec).cells
        assert len(cells) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            gradient_gap("median", "ipm", byzantine_fraction=1.0)
