"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the data-only description of one experiment
grid: topology, data distribution, training knobs, the adversary axes
(attacks x defences x fractions x distributions), consensus backend and
consensus-level adversary, fault plan, metrics, and seeds.  Specs are
frozen dataclasses with a strict dict/TOML round-trip
(:mod:`repro.scenario.io`) and registry-backed validation — every name a
spec mentions (aggregator, attack, consensus backend, consensus
adversary, fault-plan field) is checked against the registry that will
ultimately construct it, and every error names the offending path
(``"fractions[2]: must be in [0, 0.5), got 0.6"``).

Three scenario kinds cover the paper's experiment families:

``accuracy_grid``
    Trainer-based Table-V cells: (distribution x attack x fraction),
    each training ABD-HFL and vanilla FL end to end
    (:func:`repro.experiments.table5.run_cell`).
``defence_matrix``
    Gradient-estimation cells (defence x attack x fraction) measuring
    the normalised gap of the aggregate from the true mean
    (:func:`repro.experiments.matrix.gradient_gap`), optionally composed
    with a CBA backend, consensus-level adversary and fault plan.
``breakdown_curve``
    One (defence, attack) pair swept along the fraction axis, with the
    defence re-parameterised per fraction.

Seed semantics: ``seed_policy="shared"`` (the default, pinned by the
golden-equivalence oracles) hands every cell the spec's root seed;
``"derived"`` gives cell ``i`` the stable child seed
``derive_seed(seed, "cell", i)`` so cells draw independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from math import isfinite
from typing import Any, Mapping

from repro.aggregation.base import available_aggregators
from repro.attacks.base import available_attacks
from repro.consensus.async_bft.adversary import ADVERSARIES
from repro.consensus.registry import CONSENSUS_NAMES
from repro.experiments.setup import ExperimentConfig
from repro.faults.plan import FaultPlan

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
    "accuracy_spec",
    "matrix_spec",
]

#: Scenario kinds understood by the runner, in documentation order.
KINDS = ("accuracy_grid", "defence_matrix", "breakdown_curve")

#: Data-poisoning attacks the trainer-based grid dispatches through
#: :func:`repro.data.poisoning.apply_poisoning` — the ones that need no
#: per-attack arguments (``label_flip`` and ``backdoor`` do).
DATA_ATTACKS = ("none", "type1", "type2")

#: Byzantine placement strategies (:func:`repro.topology.tree.assign_byzantine`).
PLACEMENTS = ("random", "prefix", "spread", "worst_case")

SEED_POLICIES = ("shared", "derived")

#: Metric names each kind can report (the first entry is the default).
KIND_METRICS: dict[str, tuple[str, ...]] = {
    "accuracy_grid": ("accuracy",),
    "defence_matrix": ("gap",),
    "breakdown_curve": ("gap",),
}

_GRADIENT_KINDS = ("defence_matrix", "breakdown_curve")


def _fail(path: str, message: str) -> None:
    raise ValueError(f"{path}: {message}")


@dataclass(frozen=True)
class TopologySpec:
    """The ECSM tree shape (Appendix D: 3 levels, cluster 4, 4 top)."""

    n_levels: int = 3
    cluster_size: int = 4
    n_top: int = 4

    def validate(self, where: str = "topology") -> None:
        if self.n_levels < 2:
            _fail(f"{where}.n_levels", f"must be >= 2, got {self.n_levels}")
        if self.cluster_size < 2:
            _fail(f"{where}.cluster_size", f"must be >= 2, got {self.cluster_size}")
        if self.n_top < 1:
            _fail(f"{where}.n_top", f"must be >= 1, got {self.n_top}")


@dataclass(frozen=True)
class DataSpec:
    """Synthetic-MNIST generation and partitioning knobs."""

    image_side: int = 12
    samples_per_client: int = 240
    n_test: int = 1_000
    noniid_kind: str = "shards"
    dirichlet_alpha: float = 0.5

    def validate(self, where: str = "data") -> None:
        for name in ("image_side", "samples_per_client", "n_test"):
            value = getattr(self, name)
            if value < 1:
                _fail(f"{where}.{name}", f"must be >= 1, got {value}")
        if self.noniid_kind not in ("shards", "dirichlet"):
            _fail(
                f"{where}.noniid_kind",
                f"unknown non-IID flavour {self.noniid_kind!r}; "
                "expected 'shards' or 'dirichlet'",
            )
        if not (isfinite(self.dirichlet_alpha) and self.dirichlet_alpha > 0):
            _fail(
                f"{where}.dirichlet_alpha",
                f"must be a positive finite float, got {self.dirichlet_alpha}",
            )


@dataclass(frozen=True)
class TrainingSpec:
    """Model and local-SGD knobs shared by both trainers."""

    hidden: tuple[int, ...] = (32,)
    n_rounds: int = 30
    local_iterations: int = 5
    batch_size: int = 64
    learning_rate: float = 0.3

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(self.hidden))

    def validate(self, where: str = "training") -> None:
        for i, width in enumerate(self.hidden):
            if width < 1:
                _fail(f"{where}.hidden[{i}]", f"must be >= 1, got {width}")
        for name in ("n_rounds", "local_iterations", "batch_size"):
            value = getattr(self, name)
            if value < 1:
                _fail(f"{where}.{name}", f"must be >= 1, got {value}")
        if not (isfinite(self.learning_rate) and self.learning_rate > 0):
            _fail(
                f"{where}.learning_rate",
                f"must be a positive finite float, got {self.learning_rate}",
            )


@dataclass(frozen=True)
class EstimationSpec:
    """Gradient-estimation abstraction knobs (defence matrix / breakdown)."""

    n_total: int = 20
    dim: int = 64
    noise: float = 0.5
    n_trials: int = 8

    def validate(self, where: str = "estimation") -> None:
        for name in ("n_total", "dim", "n_trials"):
            value = getattr(self, name)
            if value < 1:
                _fail(f"{where}.{name}", f"must be >= 1, got {value}")
        if not (isfinite(self.noise) and self.noise > 0):
            _fail(
                f"{where}.noise",
                f"must be a positive finite float, got {self.noise}",
            )


@dataclass(frozen=True)
class FaultSpec:
    """The TOML-expressible (uniform) subset of a :class:`FaultPlan`.

    Per-link overrides, partitions and crash schedules are code-level
    constructs; a declarative scenario carries the uniform link-fault
    rates plus the retry/timeout knobs, which is exactly what the CLI
    and the defence-matrix consensus axis exercise.
    """

    seed: int = 0
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    reorder_jitter: float = 0.0
    max_retries: int = 2
    retry_backoff: float = 0.5
    leader_timeout: float = 30.0

    def to_plan(self) -> FaultPlan:
        """Materialise the uniform :class:`FaultPlan` this spec describes."""
        return FaultPlan.uniform(
            drop_probability=self.drop_probability,
            duplicate_probability=self.duplicate_probability,
            reorder_jitter=self.reorder_jitter,
            seed=self.seed,
            max_retries=self.max_retries,
            retry_backoff=self.retry_backoff,
            leader_timeout=self.leader_timeout,
        )

    def validate(self, where: str = "faults") -> None:
        try:
            self.to_plan()
        except ValueError as exc:
            _fail(where, str(exc))


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment grid (see the module docstring)."""

    name: str
    kind: str
    description: str = ""
    seed: int = 0
    seed_policy: str = "shared"
    metrics: tuple[str, ...] = ()

    # grid axes (which axes apply depends on ``kind``)
    attacks: tuple[str, ...] = ()
    defences: tuple[str, ...] = ()
    fractions: tuple[float, ...] = ()
    distributions: tuple[str, ...] = ("iid",)

    # trainer-based grid (accuracy_grid)
    topology: TopologySpec = field(default_factory=TopologySpec)
    data: DataSpec = field(default_factory=DataSpec)
    training: TrainingSpec = field(default_factory=TrainingSpec)
    n_runs: int = 1
    placement: str = "prefix"
    top_consensus: str = "voting"
    top_options: dict = field(default_factory=dict)

    # gradient-estimation grids (defence_matrix / breakdown_curve)
    estimation: EstimationSpec = field(default_factory=EstimationSpec)
    defence_options: dict | None = None  # None = derive via defence_options_for
    attack_options: dict = field(default_factory=dict)
    consensus: str | None = None
    consensus_adversary: str = "none"
    consensus_options: dict = field(default_factory=dict)
    drop_fraction: float = 0.0
    faults: FaultSpec | None = None

    def __post_init__(self) -> None:
        for name in ("metrics", "attacks", "defences", "distributions"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(
            self, "fractions", tuple(float(f) for f in self.fractions)
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Check every field against its registry; returns ``self``.

        Raises :class:`ValueError` naming the offending path.
        """
        if not isinstance(self.name, str) or not self.name:
            _fail("name", "must be a non-empty string")
        if self.kind not in KINDS:
            _fail(
                "kind",
                f"unknown scenario kind {self.kind!r}; expected one of "
                f"{list(KINDS)}",
            )
        if self.seed < 0:
            _fail("seed", f"must be non-negative, got {self.seed}")
        if self.seed_policy not in SEED_POLICIES:
            _fail(
                "seed_policy",
                f"unknown seed policy {self.seed_policy!r}; expected one of "
                f"{list(SEED_POLICIES)}",
            )
        allowed_metrics = KIND_METRICS[self.kind]
        for i, metric in enumerate(self.metrics):
            if metric not in allowed_metrics:
                _fail(
                    f"metrics[{i}]",
                    f"unknown metric {metric!r} for kind {self.kind!r}; "
                    f"expected one of {list(allowed_metrics)}",
                )
        self._validate_fractions()
        self._validate_attacks()
        if self.kind == "accuracy_grid":
            self._validate_accuracy_grid()
        else:
            self._validate_gradient_grid()
        return self

    def _validate_fractions(self) -> None:
        if not self.fractions:
            _fail("fractions", "at least one Byzantine fraction is required")
        # The gradient-estimation abstraction measures robust rules that
        # assume a strict minority; the trainer-based grid deliberately
        # sweeps past the theoretical bound (Table V goes to 65 %).
        limit = 1.0 if self.kind == "accuracy_grid" else 0.5
        for i, fraction in enumerate(self.fractions):
            if not (isfinite(fraction) and 0.0 <= fraction < limit):
                _fail(
                    f"fractions[{i}]",
                    f"must be in [0, {limit}), got {fraction}",
                )

    def _validate_attacks(self) -> None:
        if not self.attacks:
            _fail("attacks", "at least one attack is required ('none' is valid)")
        if self.kind == "accuracy_grid":
            known: tuple[str, ...] = DATA_ATTACKS
            label = "data-poisoning attack"
        else:
            known = ("none", *available_attacks())
            label = "model attack"
        for i, attack in enumerate(self.attacks):
            if attack not in known:
                _fail(
                    f"attacks[{i}]",
                    f"unknown {label} {attack!r}; available: {sorted(known)}",
                )

    def _require_default(self, name: str, default: object, hint: str) -> None:
        if getattr(self, name) != default:
            _fail(name, f"only meaningful for {hint}")

    def _validate_accuracy_grid(self) -> None:
        if self.defences:
            _fail(
                "defences",
                "not used by kind 'accuracy_grid' (the paper pairing — "
                "multikrum for IID, median for non-IID — is applied per "
                "distribution)",
            )
        if not self.distributions:
            _fail("distributions", "at least one distribution is required")
        for i, dist in enumerate(self.distributions):
            if dist not in ("iid", "noniid"):
                _fail(
                    f"distributions[{i}]",
                    f"unknown distribution {dist!r}; expected 'iid' or 'noniid'",
                )
        if self.n_runs < 1:
            _fail("n_runs", f"must be >= 1, got {self.n_runs}")
        if self.placement not in PLACEMENTS:
            _fail(
                "placement",
                f"unknown placement {self.placement!r}; expected one of "
                f"{list(PLACEMENTS)}",
            )
        if self.top_consensus not in CONSENSUS_NAMES:
            _fail(
                "top_consensus",
                f"unknown consensus {self.top_consensus!r}; available: "
                f"{list(CONSENSUS_NAMES)}",
            )
        self.topology.validate()
        self.data.validate()
        self.training.validate()
        hint = "gradient-estimation kinds (defence_matrix / breakdown_curve)"
        self._require_default("estimation", EstimationSpec(), hint)
        self._require_default("defence_options", None, hint)
        self._require_default("attack_options", {}, hint)
        self._require_default("consensus", None, hint)
        self._require_default("consensus_adversary", "none", hint)
        self._require_default("consensus_options", {}, hint)
        self._require_default("drop_fraction", 0.0, hint)
        self._require_default("faults", None, hint)

    def _validate_gradient_grid(self) -> None:
        if not self.defences:
            _fail("defences", "at least one defence is required")
        known = available_aggregators()
        for i, defence in enumerate(self.defences):
            if defence not in known:
                _fail(
                    f"defences[{i}]",
                    f"unknown aggregation rule {defence!r}; available: {known}",
                )
        if self.kind == "breakdown_curve":
            if len(self.defences) != 1:
                _fail(
                    "defences",
                    "breakdown_curve sweeps one (defence, attack) pair, got "
                    f"{len(self.defences)} defences",
                )
            if len(self.attacks) != 1:
                _fail(
                    "attacks",
                    "breakdown_curve sweeps one (defence, attack) pair, got "
                    f"{len(self.attacks)} attacks",
                )
        self.estimation.validate()
        if self.consensus is not None and self.consensus not in CONSENSUS_NAMES:
            _fail(
                "consensus",
                f"unknown consensus {self.consensus!r}; available: "
                f"{list(CONSENSUS_NAMES)}",
            )
        if self.consensus_adversary not in ADVERSARIES:
            _fail(
                "consensus_adversary",
                f"unknown consensus adversary {self.consensus_adversary!r}; "
                f"available: {list(ADVERSARIES)}",
            )
        # Mirror _make_cell_consensus: adversaries and fault plans are only
        # simulated by the message-driven 'acs' backend.
        if self.consensus_adversary != "none" and self.consensus != "acs":
            _fail(
                "consensus_adversary",
                "consensus-level adversaries require consensus = 'acs', got "
                f"consensus = {self.consensus!r}",
            )
        if self.faults is not None:
            if self.consensus != "acs":
                _fail(
                    "faults",
                    "fault plans only apply to the message-driven 'acs' "
                    f"backend, got consensus = {self.consensus!r}",
                )
            self.faults.validate()
        if self.consensus_options and self.consensus is None:
            _fail(
                "consensus_options",
                "consensus options require a consensus backend",
            )
        if not (isfinite(self.drop_fraction) and 0.0 <= self.drop_fraction < 1.0):
            _fail(
                "drop_fraction",
                f"must be in [0, 1), got {self.drop_fraction}",
            )
        hint = "kind 'accuracy_grid'"
        self._require_default("topology", TopologySpec(), hint)
        self._require_default("data", DataSpec(), hint)
        self._require_default("training", TrainingSpec(), hint)
        self._require_default("n_runs", 1, hint)
        self._require_default("placement", "prefix", hint)
        self._require_default("top_consensus", "voting", hint)
        self._require_default("top_options", {}, hint)
        self._require_default("distributions", ("iid",), hint)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    @property
    def effective_metrics(self) -> tuple[str, ...]:
        """The metrics the runner reports (kind default when unset)."""
        return self.metrics or KIND_METRICS[self.kind]

    def base_experiment_config(self) -> ExperimentConfig:
        """The :class:`ExperimentConfig` every accuracy-grid cell derives
        from (per-cell attack/fraction/distribution applied on top)."""
        return ExperimentConfig(
            n_levels=self.topology.n_levels,
            cluster_size=self.topology.cluster_size,
            n_top=self.topology.n_top,
            image_side=self.data.image_side,
            samples_per_client=self.data.samples_per_client,
            n_test=self.data.n_test,
            noniid_kind=self.data.noniid_kind,
            dirichlet_alpha=self.data.dirichlet_alpha,
            hidden=self.training.hidden,
            n_rounds=self.training.n_rounds,
            local_iterations=self.training.local_iterations,
            batch_size=self.training.batch_size,
            learning_rate=self.training.learning_rate,
            placement=self.placement,
            top_consensus=self.top_consensus,
            top_options=dict(self.top_options),
            seed=self.seed,
        )

    def fault_plan(self) -> FaultPlan | None:
        return None if self.faults is None else self.faults.to_plan()

    def to_dict(self) -> dict[str, Any]:
        """The strict dict form (inverse of :meth:`from_dict`).

        Only kind-relevant fields are emitted; irrelevant fields are
        guaranteed (by :meth:`validate`) to sit at their defaults, so
        the round trip is the identity.
        """
        out: dict[str, Any] = {"name": self.name, "kind": self.kind}
        if self.description:
            out["description"] = self.description
        out["seed"] = self.seed
        out["seed_policy"] = self.seed_policy
        if self.metrics:
            out["metrics"] = list(self.metrics)
        if self.kind in _GRADIENT_KINDS:
            out["defences"] = list(self.defences)
        out["attacks"] = list(self.attacks)
        out["fractions"] = list(self.fractions)
        if self.kind == "accuracy_grid":
            out["distributions"] = list(self.distributions)
            out["n_runs"] = self.n_runs
            out["placement"] = self.placement
            out["top_consensus"] = self.top_consensus
            out["topology"] = _sub_to_dict(self.topology)
            out["data"] = _sub_to_dict(self.data)
            out["training"] = _sub_to_dict(self.training)
            if self.top_options:
                out["top_options"] = dict(self.top_options)
        else:
            if self.consensus is not None:
                out["consensus"] = self.consensus
            out["consensus_adversary"] = self.consensus_adversary
            out["drop_fraction"] = self.drop_fraction
            out["estimation"] = _sub_to_dict(self.estimation)
            if self.defence_options is not None:
                out["defence_options"] = dict(self.defence_options)
            if self.attack_options:
                out["attack_options"] = dict(self.attack_options)
            if self.consensus_options:
                out["consensus_options"] = dict(self.consensus_options)
            if self.faults is not None:
                out["faults"] = _sub_to_dict(self.faults)
        return out

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "ScenarioSpec":
        """Build and validate a spec from parsed TOML/JSON data.

        Unknown keys (at any nesting level) raise :class:`ValueError`
        naming the offending path.
        """
        if not isinstance(mapping, Mapping):
            raise ValueError(
                f"scenario spec must be a table/mapping, got {type(mapping).__name__}"
            )
        data = dict(mapping)
        kwargs: dict[str, Any] = {}

        def take(key: str) -> Any:
            return data.pop(key, None)

        for key, as_type in (
            ("name", str),
            ("kind", str),
            ("description", str),
            ("seed_policy", str),
            ("placement", str),
            ("top_consensus", str),
            ("consensus", str),
            ("consensus_adversary", str),
        ):
            if key in data:
                kwargs[key] = _as_str(take(key), key)
        for key in ("seed", "n_runs"):
            if key in data:
                kwargs[key] = _as_int(take(key), key)
        if "drop_fraction" in data:
            kwargs["drop_fraction"] = _as_float(take("drop_fraction"), "drop_fraction")
        for key in ("metrics", "attacks", "defences", "distributions"):
            if key in data:
                kwargs[key] = _as_str_tuple(take(key), key)
        if "fractions" in data:
            kwargs["fractions"] = _as_float_tuple(take("fractions"), "fractions")
        for key, sub in (
            ("topology", TopologySpec),
            ("data", DataSpec),
            ("training", TrainingSpec),
            ("estimation", EstimationSpec),
            ("faults", FaultSpec),
        ):
            if key in data:
                kwargs[key] = _sub_from_dict(sub, take(key), key)
        for key in (
            "top_options",
            "defence_options",
            "attack_options",
            "consensus_options",
        ):
            if key in data:
                kwargs[key] = _as_options(take(key), key)
        if data:
            unknown = sorted(data)
            raise ValueError(
                f"unknown key{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(repr(k) for k in unknown)} in scenario spec"
            )
        for required in ("name", "kind"):
            if required not in kwargs:
                _fail(required, "is required")
        return cls(**kwargs).validate()


# ----------------------------------------------------------------------
# typed coercion helpers (TOML integers may stand in for floats)
# ----------------------------------------------------------------------
def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    return float(value)


def _as_str_tuple(value: Any, path: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        _fail(path, f"expected a list of strings, got {value!r}")
    return tuple(_as_str(v, f"{path}[{i}]") for i, v in enumerate(value))


def _as_float_tuple(value: Any, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        _fail(path, f"expected a list of numbers, got {value!r}")
    return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))


def _as_options(value: Any, path: str) -> dict:
    if not isinstance(value, Mapping):
        _fail(path, f"expected a table of options, got {value!r}")
    return {_as_str(k, f"{path} key") : v for k, v in value.items()}


def _sub_to_dict(sub: Any) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for f in dataclass_fields(sub):
        value = getattr(sub, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def _sub_from_dict(cls: type, mapping: Any, where: str) -> Any:
    if not isinstance(mapping, Mapping):
        _fail(where, f"expected a table, got {mapping!r}")
    data = dict(mapping)
    kwargs: dict[str, Any] = {}
    for f in dataclass_fields(cls):
        if f.name not in data:
            continue
        value = data.pop(f.name)
        path = f"{where}.{f.name}"
        if f.type in ("int",):
            kwargs[f.name] = _as_int(value, path)
        elif f.type in ("float",):
            kwargs[f.name] = _as_float(value, path)
        elif f.type in ("str",):
            kwargs[f.name] = _as_str(value, path)
        elif f.type.startswith("tuple[int"):
            kwargs[f.name] = tuple(
                _as_int(v, f"{path}[{i}]")
                for i, v in enumerate(_as_list(value, path))
            )
        else:  # pragma: no cover - no other field types exist
            kwargs[f.name] = value
    if data:
        unknown = sorted(data)
        raise ValueError(
            f"unknown key{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(f'{where}.{k}' for k in unknown)} in scenario spec"
        )
    return cls(**kwargs)


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        _fail(path, f"expected a list, got {value!r}")
    return list(value)


# ----------------------------------------------------------------------
# spec builders (Python callers construct specs through these)
# ----------------------------------------------------------------------
def accuracy_spec(
    config: ExperimentConfig | None = None,
    *,
    name: str = "accuracy-grid",
    description: str = "",
    fractions: tuple[float, ...],
    distributions: tuple[str, ...] = ("iid", "noniid"),
    attacks: tuple[str, ...] = ("type1", "type2"),
    n_runs: int = 1,
    seed: int | None = None,
    seed_policy: str = "shared",
) -> ScenarioSpec:
    """A Table-V-style spec from an :class:`ExperimentConfig` template.

    Per-cell fields of ``config`` (``iid`` / ``attack`` /
    ``malicious_fraction``) and the per-distribution aggregator pairing
    are grid concerns and are ignored here: the grid sets them per cell
    (:meth:`ExperimentConfig.for_distribution` picks the paper's
    multikrum-for-IID / median-for-non-IID pairing).
    """
    config = config or ExperimentConfig()
    return ScenarioSpec(
        name=name,
        kind="accuracy_grid",
        description=description,
        seed=config.seed if seed is None else seed,
        seed_policy=seed_policy,
        attacks=tuple(attacks),
        fractions=tuple(fractions),
        distributions=tuple(distributions),
        topology=TopologySpec(
            n_levels=config.n_levels,
            cluster_size=config.cluster_size,
            n_top=config.n_top,
        ),
        data=DataSpec(
            image_side=config.image_side,
            samples_per_client=config.samples_per_client,
            n_test=config.n_test,
            noniid_kind=config.noniid_kind,
            dirichlet_alpha=config.dirichlet_alpha,
        ),
        training=TrainingSpec(
            hidden=tuple(config.hidden),
            n_rounds=config.n_rounds,
            local_iterations=config.local_iterations,
            batch_size=config.batch_size,
            learning_rate=config.learning_rate,
        ),
        n_runs=n_runs,
        placement=config.placement,
        top_consensus=config.top_consensus,
        top_options=dict(config.top_options),
    ).validate()


def matrix_spec(
    *,
    name: str = "defence-matrix",
    kind: str = "defence_matrix",
    description: str = "",
    defences: tuple[str, ...],
    attacks: tuple[str, ...],
    fractions: tuple[float, ...],
    seed: int = 0,
    seed_policy: str = "shared",
    consensus: str | None = None,
    consensus_adversary: str = "none",
    consensus_options: dict | None = None,
    n_total: int = 20,
    dim: int = 64,
    noise: float = 0.5,
    n_trials: int = 8,
    drop_fraction: float = 0.0,
    defence_options: dict | None = None,
    attack_options: dict | None = None,
    faults: FaultSpec | None = None,
) -> ScenarioSpec:
    """A gradient-estimation spec (defence matrix or breakdown curve)."""
    return ScenarioSpec(
        name=name,
        kind=kind,
        description=description,
        seed=seed,
        seed_policy=seed_policy,
        attacks=tuple(attacks),
        defences=tuple(defences),
        fractions=tuple(fractions),
        estimation=EstimationSpec(
            n_total=n_total, dim=dim, noise=noise, n_trials=n_trials
        ),
        defence_options=defence_options,
        attack_options=dict(attack_options or {}),
        consensus=consensus,
        consensus_adversary=consensus_adversary,
        consensus_options=dict(consensus_options or {}),
        drop_fraction=drop_fraction,
        faults=faults,
    ).validate()
