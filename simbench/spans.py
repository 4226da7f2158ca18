"""Wall-clock spans around the public entry points of ``repro`` modules.

The benchmark's traced run installs these wrappers from the outside:
the program itself is not touched.  Each wrapper records one span
(layer name, start, end, parent span) in memory; :meth:`Recorder.layers`
folds the spans into per-layer busy time, self time (busy time minus the
part covered by child spans) and call counts once the run is over.

:func:`install` returns a :class:`Patch` whose :meth:`Patch.remove`
puts every original attribute back, and :meth:`Patch.verify_removed`
proves it did, so untraced code runs unpatched.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0


@dataclass
class LayerStats:
    busy_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0


class Recorder:
    """In-memory span sink with a stack for parent links."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack out of order: {popped} != {index}")
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def layers(self) -> dict[str, LayerStats]:
        out: dict[str, LayerStats] = {}
        for span in self.spans:
            stats = out.setdefault(span.name, LayerStats())
            duration = span.end - span.start
            stats.busy_s += duration
            stats.self_s += duration - span.child_s
            stats.calls += 1
        return out


def _timed(recorder: Recorder, name_of: Callable[..., str], fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = recorder.begin(name_of(*args, **kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(index)

    return wrapper


class Patch:
    """The attributes :func:`install` replaced, for exact removal."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def verify_removed(self) -> list[str]:
        """Names of attributes that do not hold their original object."""
        wrong = []
        for owner, attr, original in self._saved:
            current = owner.__dict__.get(attr, _MISSING)
            if current is not original:
                wrong.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return wrong

    @property
    def targets(self) -> list[str]:
        return [f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in self._saved]


def install(recorder: Recorder) -> Patch:
    """Wrap every public layer entry point; returns the undo handle."""
    from repro.aggregation.base import Aggregator
    from repro.attacks.base import ModelAttack
    from repro.consensus.base import ConsensusProtocol
    from repro.consensus.validation import ModelValidator
    from repro.core import pool as pool_mod
    from repro.core import trainer as trainer_mod
    from repro.core.local import LocalTrainer
    from repro.experiments import setup as setup_mod
    from repro.nn.model import Sequential
    from repro.nn.optim import SGD
    from repro.scenario import runner as runner_mod
    from repro.sim.engine import Simulator

    patch = Patch()

    def wrap(
        owner: Any,
        attr: str,
        name_of: Callable[..., str] | str,
        counter: tuple[str, Callable[..., int]] | None = None,
    ) -> None:
        """Time ``owner.attr``; ``counter`` also adds ``amount_of(args)``
        to a named count on every call."""
        namer = name_of if callable(name_of) else (lambda *a, **k: name_of)
        wrapper = _timed(recorder, namer, owner.__dict__[attr])
        if counter is not None:
            wrapper = _counting(recorder, *counter, wrapper)
        patch.replace(owner, attr, wrapper)

    wrap(setup_mod, "prepare_data", "data.prepare_data")
    wrap(setup_mod, "build_abdhfl_trainer", "core.trainer_init")
    wrap(trainer_mod.ABDHFLTrainer, "run_round", "core.trainer.run_round")
    wrap(LocalTrainer, "train_round", "core.local.train_round")

    def forward_name(self: Any, x: Any, train: bool = True) -> str:
        return "nn.forward_train" if train else "nn.forward_eval"

    wrap(Sequential, "forward", forward_name)
    wrap(Sequential, "backward", "nn.backward")
    wrap(SGD, "step", "nn.sgd_step")

    # LocalTrainingPool: constructor, per-round dispatch, job/shm counts.
    init = pool_mod.LocalTrainingPool.__dict__["__init__"]

    @functools.wraps(init)
    def pool_init(self: Any, *args: Any, **kwargs: Any) -> None:
        index = recorder.begin("core.pool.init")
        try:
            init(self, *args, **kwargs)
        finally:
            recorder.end(index)
        recorder.count("core.pool.used_shm", 1 if self.uses_shm else 0)

    patch.replace(pool_mod.LocalTrainingPool, "__init__", pool_init)
    wrap(
        pool_mod.LocalTrainingPool,
        "train_round",
        "core.pool.train_round",
        counter=("core.pool.jobs", lambda self, jobs: len(jobs)),
    )

    wrap(Aggregator, "__call__", lambda self, *a, **k: f"aggregation.{self.name}")
    # The trainer binds ``incremental_from`` at import; wrap that name.
    wrap(trainer_mod, "incremental_from", "aggregation.incremental_from")
    wrap(ModelAttack, "__call__", lambda self, *a, **k: f"attacks.{self.name}")

    agree = ConsensusProtocol.__dict__["agree"]

    @functools.wraps(agree)
    def agree_counted(self: Any, *args: Any, **kwargs: Any) -> Any:
        index = recorder.begin(f"consensus.{self.name}.agree")
        try:
            result = agree(self, *args, **kwargs)
        finally:
            recorder.end(index)
        recorder.count("consensus.model_messages", result.cost.model_messages)
        recorder.count("consensus.scalar_messages", result.cost.scalar_messages)
        recorder.count("consensus.excluded", result.n_excluded)
        recorder.count("consensus.accepted", int(result.accepted.sum()))
        recorder.count("consensus.proposals", int(result.accepted.size))
        return result

    patch.replace(ConsensusProtocol, "agree", agree_counted)
    wrap(ModelValidator, "score_matrix", "consensus.validator.score_matrix")

    step = Simulator.__dict__["step"]

    @functools.wraps(step)
    def step_counted(self: Any) -> bool:
        recorder.count("sim.events")
        return step(self)

    patch.replace(Simulator, "step", step_counted)

    # ScenarioRunner.run calls the ``parallel_map`` name its module binds.
    wrap(
        runner_mod,
        "parallel_map",
        "parallel.map",
        counter=("parallel.map.tasks", lambda fn, items, **k: len(items)),
    )
    wrap(runner_mod.ScenarioRunner, "run", "scenario.run")
    return patch


def _counting(
    recorder: Recorder, name: str, amount_of: Callable[..., int], fn: Callable
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        recorder.count(name, amount_of(*args, **kwargs))
        return fn(*args, **kwargs)

    return wrapper
