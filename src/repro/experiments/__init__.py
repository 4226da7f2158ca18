"""Experiment harness: builders and runners for every table and figure.

Each experiment module owns one paper artefact:

* :mod:`repro.experiments.table5` — one Table V accuracy cell and the
  paper-layout renderer;
* :mod:`repro.experiments.figure3` — convergence curves with confidence
  bands over repeated runs (Figure 3);
* :mod:`repro.experiments.theorem2` — theoretical-vs-empirical Byzantine
  tolerance (Theorem 2 and the 57.8 % worked example);
* :mod:`repro.experiments.schemes` — scheme 1–4 robustness vs
  communication cost (Tables III/IV);
* :mod:`repro.experiments.matrix` — one gradient-estimation cell of the
  attack × defence robustness matrix implied by Tables I/II.

:mod:`repro.experiments.setup` centralises construction so ABD-HFL and
vanilla FL always see identical data, models and randomness.

The Table V and matrix grids are not run here: they are scenario specs
(:func:`repro.scenario.accuracy_spec`, :func:`repro.scenario.matrix_spec`)
executed by :class:`repro.scenario.ScenarioRunner`, which imports this
package — never the reverse.
"""

from repro.experiments.setup import (
    ExperimentConfig,
    ExperimentData,
    prepare_data,
    build_abdhfl_trainer,
    build_vanilla_trainer,
)
from repro.experiments.table5 import Table5Cell, format_table5
from repro.experiments.figure3 import run_figure3, ConvergenceCurve
from repro.experiments.theorem2 import run_theorem2, TolerancePoint
from repro.experiments.schemes import run_scheme_comparison, SchemeOutcome
from repro.experiments.matrix import gradient_gap
from repro.experiments.analysis import summarize, crossover_round, auc_gap, convergence_round
from repro.experiments.backdoor import run_backdoor, attack_success_rate

__all__ = [
    "ExperimentConfig",
    "ExperimentData",
    "prepare_data",
    "build_abdhfl_trainer",
    "build_vanilla_trainer",
    "Table5Cell",
    "format_table5",
    "run_figure3",
    "ConvergenceCurve",
    "run_theorem2",
    "TolerancePoint",
    "run_scheme_comparison",
    "SchemeOutcome",
    "gradient_gap",
    "summarize",
    "crossover_round",
    "auc_gap",
    "convergence_round",
    "run_backdoor",
    "attack_success_rate",
]
