"""Defence parameterisation for the gradient-estimation scenario kinds.

:func:`defence_options_for` is the single source of truth for deriving a
rule's options from the Byzantine fraction it operates at; the grid
(:mod:`repro.scenario.grid`) applies it to every ``defence_matrix`` and
``breakdown_curve`` cell whose spec leaves ``defence_options`` unset.
"""

from __future__ import annotations

__all__ = ["defence_options_for"]


def defence_options_for(defence: str, byzantine_fraction: float) -> dict | None:
    """Rule options parameterised for the *operating* adversary share.

    Robustness guarantees are conditional on the rule knowing the
    Byzantine fraction it faces: trimmed-mean must trim at least that
    share from each tail, Krum/Multi-Krum size their neighbour sets from
    it.  Evaluating a 10 % or 40 % adversary with options hard-coded for
    a canonical 25 % would silently measure a mis-parameterised defence.
    Returns ``None`` for rules that take no fraction parameter.
    """
    if defence == "trimmed_mean":
        # beta must stay below 0.5 (both tails are trimmed); past that
        # the rule has no guarantee regardless of parameterisation.
        return {"beta": min(byzantine_fraction, 0.49)}
    if defence in ("krum", "multikrum"):
        return {"byzantine_fraction": byzantine_fraction}
    return None
