"""The four benchmark workloads, built only from the workload seed.

Every function here imports ``repro`` lazily so that the caller can time the
import itself (``setup.import_repro_s``).  The seed is the only input
that varies between runs; everything else is fixed here, so two runs
with the same seed hand the program identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

#: Workload names, in the order BENCHMARK.json lists them.
WORKLOADS = (
    "table5_serial",
    "krum_alie_wide",
    "acs_matrix_audited",
    "table5_pool2",
)

#: Global rounds per trainer job.  table5 reaches about 0.8 test
#: accuracy after 30 rounds, far above the ~0.10 collapse level.
TABLE5_ROUNDS = 30
KRUM_ALIE_ROUNDS = 20

#: Accuracy floor for table5_*: well above chance (0.10) and well
#: below what a healthy run reaches (about 0.8).
TABLE5_MIN_ACCURACY = 0.5

#: The 3 x 3 cut of the shipped ``defence_matrix_acs`` spec.
ACS_DEFENCES = ("median", "krum", "geomed")
ACS_ATTACKS = ("sign_flip", "alie", "ipm")
ACS_WORKERS = 2


@dataclass(frozen=True)
class TrainerWorkload:
    """A trainer-driven workload: one ABD-HFL training run."""

    name: str
    rounds: int
    workers: int
    experiment: dict[str, Any]
    model_attack: str | None = None
    min_accuracy: float | None = None

    kind = "trainer"

    @property
    def ops(self) -> int:
        """Operations per job: global rounds."""
        return self.rounds


@dataclass(frozen=True)
class SweepWorkload:
    """A scenario sweep driven through ``ScenarioRunner``."""

    name: str
    spec: str
    defences: tuple[str, ...]
    attacks: tuple[str, ...]
    workers: int

    kind = "sweep"

    @property
    def ops(self) -> int:
        """Operations per job: scenario cells."""
        return len(self.defences) * len(self.attacks)


_TABLE5 = dict(
    n_levels=3,
    cluster_size=4,
    n_top=4,
    image_side=12,
    hidden=(32,),
    local_iterations=5,
    batch_size=64,
    iid=True,
    attack="type1",
    malicious_fraction=0.3,
    partial_aggregator="multikrum",
    partial_options={"byzantine_fraction": 0.25},
    top_consensus="voting",
)

_KRUM_ALIE = dict(
    n_levels=2,
    cluster_size=16,
    n_top=4,
    image_side=12,
    hidden=(256,),
    local_iterations=1,
    batch_size=16,
    iid=True,
    attack="none",
    malicious_fraction=0.3,
    # Byzantine devices spread over every bottom cluster, so each Krum
    # site sees identical ALIE rows and takes its tie-break path.
    placement="spread",
    partial_aggregator="krum",
    partial_options={"byzantine_fraction": 0.3},
    top_consensus="voting",
)

SPECS: dict[str, TrainerWorkload | SweepWorkload] = {
    "table5_serial": TrainerWorkload(
        "table5_serial", TABLE5_ROUNDS, 1, _TABLE5,
        min_accuracy=TABLE5_MIN_ACCURACY,
    ),
    "krum_alie_wide": TrainerWorkload(
        "krum_alie_wide", KRUM_ALIE_ROUNDS, 1, _KRUM_ALIE, model_attack="alie"
    ),
    "acs_matrix_audited": SweepWorkload(
        "acs_matrix_audited", "defence_matrix_acs", ACS_DEFENCES, ACS_ATTACKS,
        ACS_WORKERS,
    ),
    "table5_pool2": TrainerWorkload(
        "table5_pool2", TABLE5_ROUNDS, 2, _TABLE5,
        min_accuracy=TABLE5_MIN_ACCURACY,
    ),
}


def experiment_config(workload: TrainerWorkload, seed: int) -> Any:
    """The ``ExperimentConfig`` of a trainer workload at ``seed``."""
    from repro.experiments.setup import ExperimentConfig

    return ExperimentConfig(n_rounds=workload.rounds, seed=seed, **workload.experiment)


def abdhfl_config(workload: TrainerWorkload, config: Any, workers: int) -> Any:
    """The trainer config ``build_abdhfl_trainer`` would derive, with the
    worker count always explicit so a stray ``REPRO_WORKERS`` cannot
    change a run."""
    from repro.core.config import ABDHFLConfig, LevelAggregation

    return ABDHFLConfig(
        training=config.training_config(),
        default_intermediate=LevelAggregation(
            "bra", config.partial_aggregator, config.partial_options
        ),
        default_top=LevelAggregation("cba", config.top_consensus, config.top_options),
        workers=workers,
    )


def model_attack(workload: TrainerWorkload) -> Any:
    if workload.model_attack is None:
        return None
    from repro.attacks import get_attack

    return get_attack(workload.model_attack)


def sweep_spec(workload: SweepWorkload, seed: int) -> Any:
    """The shipped spec cut to the workload's cells, re-seeded.

    Each cell derives its own seed from ``seed``: with the spec's shared
    seed all nine cells draw the same data and coin flips, so the amount
    of ACS work a run does swings with the seed about twice as much.
    """
    from repro.scenario.runner import load_shipped_spec

    spec = load_shipped_spec(workload.spec)
    return replace(
        spec,
        name=f"{spec.name}-{workload.name}",
        defences=workload.defences,
        attacks=workload.attacks,
        seed=seed,
        seed_policy="derived",
    ).validate()
