"""Aggregator protocol, input validation and the name registries.

The registry lets experiment configs refer to rules by name
(``"multikrum"``) with keyword overrides, which is how the per-level
BRA/CBA choice of Algorithm 3 is expressed in :mod:`repro.core.config`.

Two registries coexist: the *fast* registry holds the vectorised
implementations that run in production, and the *reference* registry
holds the per-vector oracles (:mod:`repro.aggregation.reference`) the
differential test suite locks them against.  ``get_aggregator(name,
reference=True)`` selects the oracle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from repro.aggregation.matrix import ParameterMatrix, as_parameter_matrix
from repro.check import sanitize
from repro.obs import audit, trace

__all__ = [
    "Aggregator",
    "register_aggregator",
    "register_reference",
    "get_aggregator",
    "available_aggregators",
    "validate_updates",
    "validate_weights",
]

_REGISTRY: dict[str, Callable[..., "Aggregator"]] = {}
_REFERENCE_REGISTRY: dict[str, Callable[..., "Aggregator"]] = {}


def validate_updates(
    updates: np.ndarray, weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Coerce and sanity-check an update stack; returns (updates, weights).

    ``weights`` defaults to uniform and is normalised to sum to 1.
    """
    updates = np.asarray(updates, dtype=np.float64)
    if updates.ndim != 2:
        raise ValueError(f"updates must be [k, d], got shape {updates.shape}")
    k = updates.shape[0]
    if k == 0:
        raise ValueError("cannot aggregate zero updates")
    if not np.isfinite(updates).all():
        raise ValueError("updates contain NaN or Inf")
    return updates, validate_weights(k, weights)


def validate_weights(k: int, weights: np.ndarray | None) -> np.ndarray:
    """Coerce/normalise a weight vector for ``k`` rows (uniform default).

    Split out of :func:`validate_updates` so the incremental matrix path
    can re-validate weights without re-scanning unchanged rows.
    """
    if weights is None:
        return np.full(k, 1.0 / k)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (k,):
        raise ValueError(f"weights shape {weights.shape} != ({k},)")
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    return weights / total


class Aggregator(ABC):
    """A Byzantine-robust (or plain) aggregation rule.

    Subclasses implement :meth:`_aggregate` over a
    :class:`~repro.aggregation.matrix.ParameterMatrix`; the public
    ``__call__`` accepts a raw ``(k, d)`` stack, a sequence of flat
    vectors, or a pre-built matrix (whose cached kernels are then
    reused), so every rule shares the same validation and stacking.
    """

    #: name under which the rule is registered (set by the decorator)
    name: str = ""

    #: Kernel plan: the :class:`ParameterMatrix` cached kernels this
    #: rule's ``_aggregate`` may consume (closure included — ``cosine``
    #: implies ``gram``/``norms``).  Rules that never touch the pairwise
    #: geometry (fedavg, median, trimmed mean, centered clipping,
    #: lipschitz) declare the empty plan and therefore never pay the
    #: Gram build — the matrix only materialises declared kernels when
    #: :meth:`plan` pre-warms and, because kernels are lazy, undeclared
    #: ones are never built by accident either.  Enforced by
    #: ``tests/test_aggregation_incremental.py``, which instruments the
    #: matrix and asserts each rule touches only its declared kernels.
    kernels: frozenset[str] = frozenset()

    def plan(self, matrix: ParameterMatrix) -> None:
        """Pre-warm exactly this rule's declared kernels on ``matrix``.

        Optional — kernels are lazy, so calling a rule cold is always
        correct — but lets a caller that runs several rules on one
        matrix (or a benchmark separating kernel cost from rule cost)
        materialise the shared geometry once, up front.
        """
        matrix.ensure(self.kernels)

    def __call__(
        self,
        updates: "np.ndarray | Sequence[np.ndarray] | ParameterMatrix",
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        matrix = as_parameter_matrix(updates, weights)
        if sanitize.enabled():
            sanitize.assert_finite(
                matrix.data, "aggregation input", rule=self.name or None
            )
            out = self._run(matrix)
            sanitize.assert_finite(
                out, "aggregation output", rule=self.name or None
            )
            return out
        return self._run(matrix)

    def _run(self, matrix: ParameterMatrix) -> np.ndarray:
        """Dispatch to :meth:`_aggregate` through the observability hooks.

        With neither tracing nor auditing active this is two ``is None``
        tests on top of the kernel — the disabled-path cost the
        ``--overhead trace`` and ``--overhead audit`` benchmark gates pin.
        """
        out = self._aggregate(matrix)
        tr = trace.tracer()
        if tr is not None:
            name = self.name or type(self).__name__
            ambient_round = sanitize.current_provenance().get("round_index")
            t = ambient_round if isinstance(ambient_round, int) else 0
            tr.instant(
                f"aggregate.{name}",
                "aggregation",
                float(t),
                round=t,
                n=matrix.data.shape[0],
                d=matrix.data.shape[1],
            )
            tr.metrics.counter(f"aggregate.{name}.calls").inc()
        au = audit.auditor()
        if au is not None:
            self._audit_decision(au, matrix, out)
        return out

    def _audit_decision(
        self, au: audit.Auditor, matrix: ParameterMatrix, out: np.ndarray
    ) -> None:
        """Emit one ``decision`` record for this invocation (auditing on).

        The rule's evidence comes from :meth:`_decision_evidence`;
        ambient provenance supplies the round and aggregating node when
        the trainer is driving.
        """
        evidence, rejected = self._decision_evidence(matrix, out)
        provenance = sanitize.current_provenance()
        ambient_round = provenance.get("round_index")
        node = provenance.get("node_id")
        fields: dict[str, object] = {
            "rule": self.name or type(self).__name__,
            "n": int(matrix.data.shape[0]),
            "evidence": evidence,
        }
        if isinstance(ambient_round, int):
            fields["step"] = ambient_round
        if isinstance(node, int):
            fields["node"] = node
        if rejected is not None:
            fields["rejected"] = [bool(r) for r in rejected]
        au.record("decision", **fields)

    def _decision_evidence(
        self, matrix: ParameterMatrix, out: np.ndarray
    ) -> tuple[dict[str, object], "np.ndarray | None"]:
        """The rule's per-input evidence and optional rejection mask.

        The default reports each input's distance to the aggregate and
        makes no accept/reject claim (``None`` mask).  Rules that select
        or exclude inputs override this to expose their actual decision
        variables — recomputed from the matrix's *cached* kernels, never
        from fresh O(n·d) passes beyond what the rule itself used.
        Only called when auditing is on.
        """
        diff = matrix.data - out[None, :]
        distances = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        return {"distance_to_output": distances}, None

    @abstractmethod
    def _aggregate(self, matrix: ParameterMatrix) -> np.ndarray:
        ...

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def _register(registry: dict, name: str, what: str) -> Callable[[type], type]:
    def deco(cls: type) -> type:
        key = name.lower()
        if key in registry:
            raise ValueError(f"{what} {name!r} already registered")
        registry[key] = cls
        cls.name = key
        return cls

    return deco


def register_aggregator(name: str) -> Callable[[type], type]:
    """Class decorator registering a fast-path aggregator under ``name``."""
    return _register(_REGISTRY, name, "aggregator")


def register_reference(name: str) -> Callable[[type], type]:
    """Class decorator registering a per-vector reference oracle."""
    return _register(_REFERENCE_REGISTRY, name, "reference aggregator")


def get_aggregator(
    name: str, reference: bool = False, **kwargs: object
) -> Aggregator:
    """Instantiate a registered rule by (case-insensitive) name.

    ``reference=True`` selects the per-vector oracle implementation the
    differential suite validates the fast path against.
    """
    registry = _REFERENCE_REGISTRY if reference else _REGISTRY
    key = name.lower()
    if key not in registry:
        kind = "reference aggregator" if reference else "aggregator"
        raise KeyError(f"unknown {kind} {name!r}; available: {sorted(registry)}")
    return registry[key](**kwargs)  # type: ignore[call-arg]


def available_aggregators(reference: bool = False) -> list[str]:
    return sorted(_REFERENCE_REGISTRY if reference else _REGISTRY)
