#!/usr/bin/env python
"""Mini Table V: sweep the malicious proportion across the Theorem-2 bound.

Reproduces the headline IID / Type I row of the paper's Table V at
reduced scale: vanilla FL (Multi-Krum at the server) collapses to ~10 %
once the poisoned updates become the plurality cluster (>= 50 %), while
ABD-HFL's layered filtering plus top-level voting holds through the
57.8 % theoretical bound.

Run:
    python examples/poisoning_sweep.py          # IID, Type I
    python examples/poisoning_sweep.py noniid   # non-IID, Median rule
"""

from __future__ import annotations

import sys

from repro.experiments import ExperimentConfig
from repro.scenario import ScenarioRunner, accuracy_spec
from repro.topology.analysis import max_byzantine_fraction
from repro.utils.tables import format_percent


def main(iid: bool = True) -> None:
    bound = max_byzantine_fraction(0.25, 0.25, 2)
    print(
        "Theorem 2 bound for gamma1=gamma2=25%, 3 levels: "
        f"{format_percent(bound, 4)}"
    )
    spec = accuracy_spec(
        ExperimentConfig(n_rounds=20),
        fractions=(0.0, 0.2, 0.4, 0.578, 0.65),
        distributions=("iid" if iid else "noniid",),
        attacks=("type1",),
    )
    print()
    print(ScenarioRunner().run(spec).table)
    print(
        "\nreduced scale (20 rounds, 12x12 synthetic digits); see "
        "ExperimentConfig.paper_scale() for the full Appendix D settings"
    )


if __name__ == "__main__":
    main(iid="noniid" not in sys.argv[1:])
