"""Scheme comparison (Tables III/IV): robustness vs communication cost.

Runs the same attack scenario under all four Byzantine-resistance
schemes, recording the final accuracy (robustness) and both the measured
per-round message count and the analytic :mod:`repro.pipeline.costs`
bill — the quantitative counterpart of Table IV's qualitative entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.schemes import SCHEME_DESCRIPTIONS, scheme_config
from repro.experiments.setup import (
    ExperimentConfig,
    build_abdhfl_trainer,
    prepare_data,
)
from repro.pipeline.costs import scheme_round_cost

__all__ = ["SchemeOutcome", "run_scheme_comparison"]


@dataclass
class SchemeOutcome:
    """One scheme's measured robustness and cost."""

    scheme: int
    partial_kind: str
    global_kind: str
    final_accuracy: float
    measured_model_messages_per_round: float
    analytic_model_messages: int
    analytic_scalar_messages: int


def run_scheme_comparison(
    config: ExperimentConfig | None = None,
    schemes: tuple[int, ...] = (1, 2, 3, 4),
    cba_name: str = "voting",
) -> list[SchemeOutcome]:
    """Train under each scheme with identical data/attack; collect bills.

    The BRA/CBA building blocks follow the experiment config (Multi-Krum
    or Median partials, voting consensus) so the only varying factor is
    *where* each mechanism is deployed — exactly Table III's axis.
    """
    config = config or ExperimentConfig(malicious_fraction=0.3)
    data = prepare_data(config)
    outcomes: list[SchemeOutcome] = []
    for scheme in schemes:
        abd_config = scheme_config(
            scheme,
            bra_name=config.partial_aggregator,
            bra_options=config.partial_options,
            cba_name=cba_name,
            training=config.training_config(),
        )
        trainer = build_abdhfl_trainer(config, data, abdhfl_config=abd_config)
        trainer.run(config.n_rounds)
        measured = [r.model_messages for r in trainer.history]
        analytic = scheme_round_cost(data.hierarchy, scheme)
        desc = SCHEME_DESCRIPTIONS[scheme]
        outcomes.append(
            SchemeOutcome(
                scheme=scheme,
                partial_kind=desc["partial"].upper(),
                global_kind=desc["global"].upper(),
                final_accuracy=trainer.history[-1].test_accuracy,
                measured_model_messages_per_round=float(
                    sum(measured) / max(1, len(measured))
                ),
                analytic_model_messages=analytic.cost.model_messages,
                analytic_scalar_messages=analytic.cost.scalar_messages,
            )
        )
    return outcomes
