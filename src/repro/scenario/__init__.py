"""Declarative scenario layer: experiments as data, one orchestrator.

A :class:`ScenarioSpec` (TOML- or dict-described topology, data
distribution, adversary axes, consensus backend + adversary, fault plan,
metrics, seeds) is expanded into an ordered cell grid and executed by
:class:`ScenarioRunner` through the existing trainer / gradient-
estimation machinery with `repro.parallel` fan-out and `repro.obs`
tracing.  It is the only grid driver: the CLI (``table5``, ``matrix``,
``scenario run``), the benchmarks and the examples all build a spec with
:func:`accuracy_spec` / :func:`matrix_spec` (or load one of the
canonical specs shipped in ``repro/scenario/specs/*.toml``) and call
``ScenarioRunner(workers).run(spec)``.  ``tests/test_scenario_equivalence.py``
pins the runner bit-identical to plain loops over the single-cell
primitives.
"""

from repro.scenario.grid import ScenarioCell, expand_cells
from repro.scenario.io import (
    dump_scenario,
    dumps_toml,
    load_scenario,
    loads_scenario,
)
from repro.scenario.options import defence_options_for
from repro.scenario.report import render_matrix_grid, render_result
from repro.scenario.runner import (
    ScenarioResult,
    ScenarioRunner,
    load_shipped_spec,
    resolve_spec,
    shipped_spec_names,
)
from repro.scenario.spec import (
    DATA_ATTACKS,
    KIND_METRICS,
    KINDS,
    PLACEMENTS,
    SEED_POLICIES,
    DataSpec,
    EstimationSpec,
    FaultSpec,
    ScenarioSpec,
    TopologySpec,
    TrainingSpec,
    accuracy_spec,
    matrix_spec,
)

__all__ = [
    "KINDS",
    "DATA_ATTACKS",
    "PLACEMENTS",
    "SEED_POLICIES",
    "KIND_METRICS",
    "TopologySpec",
    "DataSpec",
    "TrainingSpec",
    "EstimationSpec",
    "FaultSpec",
    "ScenarioSpec",
    "ScenarioCell",
    "ScenarioResult",
    "ScenarioRunner",
    "accuracy_spec",
    "matrix_spec",
    "defence_options_for",
    "expand_cells",
    "load_scenario",
    "loads_scenario",
    "dump_scenario",
    "dumps_toml",
    "render_result",
    "render_matrix_grid",
    "shipped_spec_names",
    "load_shipped_spec",
    "resolve_spec",
]
