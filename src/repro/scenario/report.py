"""Uniform report rendering for scenario results.

One entrypoint, :func:`render_result`, turns the ordered cell list of any
scenario kind into the text table the CLI prints:

- ``accuracy_grid`` renders the paper's Table-V layout
  (:func:`repro.experiments.table5.format_table5`).
- ``defence_matrix`` renders one defence x attack grid per Byzantine
  fraction, matching the layout ``python -m repro matrix`` has always
  printed (consensus header included when a backend is composed).
- ``breakdown_curve`` renders the fraction -> gap curve of the pair.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.matrix import MatrixCell
from repro.experiments.table5 import format_table5
from repro.scenario.spec import ScenarioSpec
from repro.utils.tables import format_percent, format_table

__all__ = ["render_result", "render_matrix_grid", "render_breakdown"]


def render_result(spec: ScenarioSpec, cells: Sequence) -> str:
    """The report table for ``cells`` produced by ``spec``."""
    if spec.kind == "accuracy_grid":
        return format_table5(list(cells))
    if spec.kind == "defence_matrix":
        blocks = []
        for fraction in spec.fractions:
            subset = [c for c in cells if c.byzantine_fraction == fraction]
            title = (
                None
                if len(spec.fractions) == 1
                else f"byzantine fraction: {format_percent(fraction)}"
            )
            blocks.append(render_matrix_grid(subset, spec=spec, title=title))
        return "\n\n".join(blocks)
    return render_breakdown(cells)


def render_matrix_grid(
    cells: Sequence[MatrixCell],
    spec: ScenarioSpec | None = None,
    title: str | None = None,
) -> str:
    """One defence x attack grid (axes in first-seen cell order)."""
    defences = list(dict.fromkeys(c.defence for c in cells))
    attacks = list(dict.fromkeys(c.attack for c in cells))
    gap = {(c.defence, c.attack): c.gap for c in cells}
    rows = [
        [d] + [f"{gap[(d, a)]:.2f}" for a in attacks] for d in defences
    ]
    lines = []
    if title:
        lines.append(title)
    if spec is not None and spec.consensus:
        drop_messages = 0.0 if spec.faults is None else spec.faults.drop_probability
        lines.append(
            f"consensus backend: {spec.consensus} "
            f"(adversary: {spec.consensus_adversary}, "
            f"drop: {spec.drop_fraction:.0%}, msg loss: {drop_messages:.0%})"
        )
    lines.append(format_table(["defence \\ attack", *attacks], rows))
    return "\n".join(lines)


def render_breakdown(cells: Sequence[MatrixCell]) -> str:
    """The empirical breakdown curve of one (defence, attack) pair."""
    if not cells:
        return format_table(["fraction", "gap"], [], title="breakdown curve")
    defence = cells[0].defence
    attack = cells[0].attack
    rows = [
        [format_percent(c.byzantine_fraction), f"{c.gap:.2f}"] for c in cells
    ]
    return format_table(
        ["fraction", "gap"],
        rows,
        title=f"breakdown curve - {defence} vs {attack}",
    )
