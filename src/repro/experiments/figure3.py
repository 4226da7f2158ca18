"""Figure 3: convergence curves with confidence bands.

For selected attack scenarios, train both systems for every global round,
repeat ``n_runs`` times with sibling seeds, and report per-round mean
accuracy plus a normal-approximation confidence interval — the gray bands
of the paper's figure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.setup import ExperimentConfig, paired_accuracy_histories

__all__ = ["ConvergenceCurve", "run_figure3"]


@dataclass
class ConvergenceCurve:
    """Per-round accuracy trajectory of one system in one scenario."""

    label: str
    iid: bool
    attack: str
    malicious_fraction: float
    rounds: np.ndarray           # [R]
    mean: np.ndarray             # [R]
    ci_half_width: np.ndarray    # [R] 95% normal CI half-width
    runs: np.ndarray             # [n_runs, R] raw trajectories

    @property
    def final_accuracy(self) -> float:
        return float(self.mean[-1])


def _curve(
    label: str,
    config: ExperimentConfig,
    trajectories: list[list[float]],
) -> ConvergenceCurve:
    runs = np.asarray(trajectories)
    mean = runs.mean(axis=0)
    if runs.shape[0] > 1:
        sem = runs.std(axis=0, ddof=1) / np.sqrt(runs.shape[0])
    else:
        sem = np.zeros_like(mean)
    return ConvergenceCurve(
        label=label,
        iid=config.iid,
        attack=config.attack,
        malicious_fraction=config.malicious_fraction,
        rounds=np.arange(runs.shape[1]),
        mean=mean,
        ci_half_width=1.96 * sem,
        runs=runs,
    )


def run_figure3(
    config: ExperimentConfig,
    n_runs: int = 3,
) -> tuple[ConvergenceCurve, ConvergenceCurve]:
    """One scenario's pair of curves: (ABD-HFL, vanilla FL)."""
    if n_runs <= 0:
        raise ValueError(f"n_runs must be positive, got {n_runs}")
    abd_runs, van_runs = paired_accuracy_histories(config, n_runs)
    return (
        _curve("ABD-HFL", config, abd_runs),
        _curve("Vanilla FL", config, van_runs),
    )
