"""Grid expansion: from one :class:`ScenarioSpec` to ordered cells.

The expansion order is part of the golden-equivalence contract pinned
against the inlined oracle loops in ``tests/test_scenario_equivalence.py``:

``accuracy_grid``
    ``for distribution: for attack: for fraction`` — the paper's Table V
    row order.
``defence_matrix``
    ``for fraction: for defence: for attack`` — with a single fraction,
    ``for defence: for attack``.
``breakdown_curve``
    ``for fraction`` along the axis, one (defence, attack) pair.

Cell seeds follow the spec's ``seed_policy``: ``"shared"`` hands every
cell the root seed (cells already derive independent streams
internally), ``"derived"`` gives cell ``i`` ``derive_seed(seed, "cell",
i)``.

The ``_run_cell_task`` / ``_gap_cell_task`` functions are module-level so
:func:`repro.parallel.parallel_map` can ship ``(spec, cell)`` tuples to
spawn workers.  They call through the experiment *modules*
(``matrix.gradient_gap``) rather than bound names, which keeps the tests
that monkeypatch ``matrix.get_aggregator`` effective.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.experiments import matrix, table5
from repro.scenario.options import defence_options_for
from repro.scenario.spec import ScenarioSpec
from repro.utils.seeding import derive_seed

__all__ = ["ScenarioCell", "cell_seed", "expand_cells", "cell_task"]


@dataclass(frozen=True)
class ScenarioCell:
    """One point of the expanded grid (all axes resolved)."""

    index: int
    seed: int
    attack: str
    fraction: float
    distribution: str | None = None  # accuracy_grid only
    defence: str | None = None  # gradient-estimation kinds only


def cell_seed(spec: ScenarioSpec, index: int) -> int:
    if spec.seed_policy == "derived":
        return derive_seed(spec.seed, "cell", index)
    return spec.seed


def expand_cells(spec: ScenarioSpec) -> list[ScenarioCell]:
    """The spec's grid as an ordered, deterministically-seeded cell list."""
    points: list[dict] = []
    if spec.kind == "accuracy_grid":
        for distribution in spec.distributions:
            for attack in spec.attacks:
                for fraction in spec.fractions:
                    points.append(
                        dict(
                            distribution=distribution,
                            attack=attack,
                            fraction=fraction,
                        )
                    )
    elif spec.kind == "defence_matrix":
        for fraction in spec.fractions:
            for defence in spec.defences:
                for attack in spec.attacks:
                    points.append(
                        dict(defence=defence, attack=attack, fraction=fraction)
                    )
    else:  # breakdown_curve
        for fraction in spec.fractions:
            points.append(
                dict(
                    defence=spec.defences[0],
                    attack=spec.attacks[0],
                    fraction=fraction,
                )
            )
    return [
        ScenarioCell(index=i, seed=cell_seed(spec, i), **point)
        for i, point in enumerate(points)
    ]


def cell_task(
    spec: ScenarioSpec,
) -> Callable[
    [tuple[ScenarioSpec, ScenarioCell]], table5.Table5Cell | matrix.MatrixCell
]:
    """The spawn-safe task function evaluating one of ``spec``'s cells."""
    return _run_cell_task if spec.kind == "accuracy_grid" else _gap_cell_task


def _run_cell_task(task: tuple[ScenarioSpec, ScenarioCell]) -> table5.Table5Cell:
    """One trainer-based accuracy cell -> :class:`Table5Cell`."""
    spec, cell = task
    config = replace(
        spec.base_experiment_config().for_distribution(
            cell.distribution == "iid"
        ),
        attack=cell.attack,
        malicious_fraction=cell.fraction,
        seed=cell.seed,
    )
    return table5.run_cell(config, n_runs=spec.n_runs)


def _gap_cell_task(task: tuple[ScenarioSpec, ScenarioCell]) -> matrix.MatrixCell:
    """One gradient-estimation cell -> :class:`MatrixCell`."""
    spec, cell = task
    defence = cell.defence
    assert defence is not None
    # The clean anchor of a breakdown curve applies no attack; the cell
    # keeps the requested attack label so the curve groups together.
    attack = cell.attack
    if spec.kind == "breakdown_curve" and cell.fraction == 0:
        attack = "none"
    options = (
        dict(spec.defence_options)
        if spec.defence_options is not None
        else defence_options_for(defence, cell.fraction)
    )
    gap = matrix.gradient_gap(
        defence,
        attack,
        n_total=spec.estimation.n_total,
        byzantine_fraction=cell.fraction,
        dim=spec.estimation.dim,
        noise=spec.estimation.noise,
        n_trials=spec.estimation.n_trials,
        seed=cell.seed,
        defence_options=options,
        attack_options=dict(spec.attack_options) or None,
        consensus=spec.consensus,
        consensus_adversary=spec.consensus_adversary,
        consensus_options=dict(spec.consensus_options) or None,
        fault_plan=spec.fault_plan(),
        drop_fraction=spec.drop_fraction,
    )
    return matrix.MatrixCell(
        defence=defence,
        attack=cell.attack,
        byzantine_fraction=cell.fraction,
        gap=gap,
        consensus=spec.consensus,
        consensus_adversary=spec.consensus_adversary,
    )
