"""Regenerate the quantitative face of Tables I/II: attacks x defences.

The paper's Tables I/II are taxonomies; this bench crosses every
implemented model-update attack with every aggregation rule on the
gradient-estimation abstraction and prints the normalised aggregate gap
(1.0 ~ honest-average quality; large ~ defence broken), confirming the
paper's summary that "each type of method is particularly effective
against some types of Byzantine attacks" — i.e. the matrix is not
uniform, and the linear rule loses everywhere.
"""

from __future__ import annotations

from repro.experiments.matrix import DEFAULT_ATTACKS, DEFAULT_DEFENCES
from repro.scenario import ScenarioRunner, matrix_spec
from repro.utils.reporting import emit_report
from repro.utils.tables import format_table


def test_defence_matrix(benchmark, workers):
    spec = matrix_spec(
        defences=DEFAULT_DEFENCES,
        attacks=DEFAULT_ATTACKS,
        fractions=(0.25,),
        n_trials=6,
    )
    cells = benchmark.pedantic(
        ScenarioRunner(workers=workers).run, args=(spec,), rounds=1, iterations=1
    ).cells
    gap = {(c.defence, c.attack): c.gap for c in cells}
    rows = []
    for defence in DEFAULT_DEFENCES:
        rows.append(
            [defence]
            + [f"{gap[(defence, attack)]:.2f}" for attack in DEFAULT_ATTACKS]
        )
    emit_report(
        "defence_matrix",
        format_table(
            ["defence \\ attack", *DEFAULT_ATTACKS],
            rows,
            title="Tables I/II: aggregate gap under 25% Byzantine "
            "(1.0 ~ honest mean; big = broken)",
        ),
    )

    # The linear rule is broken by the magnitude attacks...
    assert gap[("fedavg", "scaling")] > 20.0
    assert gap[("fedavg", "gaussian_noise")] > 5.0
    # ...while the robust rules contain them.
    for defence in ("median", "trimmed_mean", "multikrum", "geomed"):
        assert gap[(defence, "scaling")] < 5.0, defence
        assert gap[(defence, "sign_flip")] < 5.0, defence
    # ALIE is the stealthy one: it degrades but does not explode anyone.
    for defence in DEFAULT_DEFENCES:
        assert gap[(defence, "alie")] < 10.0, defence
