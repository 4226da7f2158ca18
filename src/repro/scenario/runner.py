"""The single orchestrator executing any :class:`ScenarioSpec`.

:class:`ScenarioRunner` validates the spec, expands its grid
(:func:`repro.scenario.grid.expand_cells`), fans the cells out through
:func:`repro.parallel.parallel_map` (worker count is a pure wall-clock
knob — results and merged traces are bit-identical for any value), and
renders the uniform report.  The runner adds *no* trace events of its
own: everything in a trace comes from the underlying trainer/consensus
machinery, so a spec-driven run's trace is byte-identical to the plain
loop over the same cells.

Canonical specs ship inside the package (``repro/scenario/specs/*.toml``)
and are addressable by bare name from the CLI (``scenario run table5``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any

from repro.experiments.io import (
    collect_registries,
    save_records_csv,
    save_records_json,
)
from repro.obs import audit
from repro.parallel import parallel_map
from repro.scenario.grid import ScenarioCell, cell_task, expand_cells
from repro.scenario.io import load_scenario, loads_scenario
from repro.scenario.report import render_result
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "ScenarioResult",
    "ScenarioRunner",
    "run_manifest",
    "persist_result",
    "shipped_spec_names",
    "load_shipped_spec",
    "resolve_spec",
]


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    grid: tuple[ScenarioCell, ...]
    cells: list = field(default_factory=list)

    @property
    def table(self) -> str:
        """The rendered report (lazy: rendering is pure over the cells)."""
        return render_result(self.spec, self.cells)


@dataclass(frozen=True)
class ScenarioRunner:
    """Expand-and-execute orchestrator; ``workers`` as in
    :func:`repro.parallel.parallel_map` (``None`` = ``REPRO_WORKERS`` or
    serial)."""

    workers: int | None = None

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        spec.validate()
        grid = expand_cells(spec)
        task = cell_task(spec)
        cells = parallel_map(
            task, [(spec, cell) for cell in grid], workers=self.workers
        )
        return ScenarioResult(spec=spec, grid=tuple(grid), cells=cells)


# ----------------------------------------------------------------------
# run artifacts
# ----------------------------------------------------------------------
def run_manifest(
    spec: ScenarioSpec, command: str | None = None
) -> dict[str, Any]:
    """The provenance manifest for one spec run (see
    :mod:`repro.obs.audit`): full spec dict, seed-tree root, registered
    rule/protocol/attack names, package version."""
    return audit.build_manifest(
        command=command,
        spec=spec.to_dict(),
        seed=spec.seed,
        registries=collect_registries(),
    )


def persist_result(
    result: ScenarioResult,
    out_dir: "str | Path",
    manifest: "dict[str, Any] | None" = None,
) -> dict[str, Path]:
    """Write a run's artifacts under ``out_dir`` and return their paths.

    Always: the rendered report (``report.txt``) and the result cells as
    both JSON and CSV (``cells.json`` / ``cells.csv``, via
    :mod:`repro.experiments.io`).  When ``manifest`` is given it lands in
    ``manifest.json``; when an ambient auditor holds records they land in
    ``audit.jsonl``, making the directory a self-contained forensic unit
    ``python -m repro audit <dir>`` consumes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    report_path = out / "report.txt"
    report_path.write_text(result.table + "\n", encoding="utf-8")
    paths["report"] = report_path
    if result.cells:
        paths["cells_json"] = save_records_json(out / "cells.json", result.cells)
        paths["cells_csv"] = save_records_csv(out / "cells.csv", result.cells)
    if manifest is not None:
        paths["manifest"] = audit.write_manifest(out / "manifest.json", manifest)
    auditor = audit.auditor()
    if auditor is not None and auditor.records:
        paths["audit"] = auditor.save(out / "audit.jsonl")
    return paths


# ----------------------------------------------------------------------
# shipped canonical specs
# ----------------------------------------------------------------------
def _specs_root(package: str = "repro.scenario") -> Any:
    return resources.files(package) / "specs"


def shipped_spec_names() -> list[str]:
    """Bare names of the canonical specs shipped with the package."""
    root = _specs_root()
    return sorted(
        entry.name[: -len(".toml")]
        for entry in root.iterdir()
        if entry.name.endswith(".toml")
    )


def load_shipped_spec(name: str) -> ScenarioSpec:
    """Load a shipped spec by bare name (``"table5"``)."""
    entry = _specs_root() / f"{name}.toml"
    if not entry.is_file():
        raise ValueError(
            f"unknown shipped scenario {name!r}; available: "
            f"{shipped_spec_names()}"
        )
    try:
        return loads_scenario(entry.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{name}.toml: {exc}") from None


def resolve_spec(ref: str) -> ScenarioSpec:
    """A spec from a filesystem path or a shipped bare name."""
    path = Path(ref)
    if path.suffix == ".toml" or path.exists():
        return load_scenario(path)
    return load_shipped_spec(ref)
