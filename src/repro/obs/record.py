"""The record core shared by the trace and audit channels.

:mod:`repro.obs.trace` records *when* things happened (sim time) and
:mod:`repro.obs.audit` records *why* each defence decision was made.
Both are thin channels over this module, which owns everything they
share:

* :class:`Gate` — the process-wide switch: the installed sink (or
  ``None``), ``enable`` / ``disable``, the ``scoped`` and ``fresh``
  context managers, and the ``REPRO_<CHANNEL>`` environment variable
  (``1`` or a save path, read once at import);
* :func:`jsonable` — the deterministic JSON coercion applied to every
  recorded payload;
* :class:`Sink` — an in-memory row list with the sorted-key JSONL
  writer and saver;
* :func:`load_jsonl` — the line loader behind both channels' readers.

Each channel keeps its own record schema, validator and exception type.
When a channel is off, every emission site pays a single ``is None``
test on its gate and touches nothing else.  Recording is read-only — it
never draws randomness or changes control flow — and the output is
byte-deterministic: rows are kept in execution order, JSON keys are
sorted and non-finite floats become ``null``.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Generic, Iterator, Mapping, TypeVar, cast

__all__ = ["Gate", "Sink", "jsonable", "load_jsonl", "save_text"]

_TRUTHY = ("1", "true", "on", "yes")

_R = TypeVar("_R")
_S = TypeVar("_S", bound="Sink[Any]")


def jsonable(value: object) -> object:
    """Coerce ``value`` into deterministic JSON-safe data.

    Non-finite floats become ``None`` (strict JSON has no NaN/Inf),
    numpy arrays and scalars collapse via ``tolist`` (nested lists for
    arrays, the python value for scalars), mapping keys become strings,
    mappings and sequences recurse, and anything else falls back to
    ``str``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    tolist = getattr(value, "tolist", None)
    if callable(tolist):  # numpy array or scalar
        return jsonable(tolist())
    item = getattr(value, "item", None)
    if callable(item):  # other zero-dim duck types
        return jsonable(item())
    return str(value)


def save_text(path: "str | Path", text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8, creating parent directories."""
    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    return target


class Sink(Generic[_R]):
    """One channel's rows, appended in execution order and serialised on
    demand."""

    def __init__(self) -> None:
        self.rows: list[_R] = []

    def row_dict(self, row: _R) -> Mapping[str, object]:
        """``row`` as a JSON object; channels whose rows are not already
        JSON-safe dicts override this."""
        return cast("Mapping[str, object]", row)

    def to_jsonl(self) -> str:
        """Serialise all rows, one sorted-key JSON object per line."""
        lines = [
            json.dumps(self.row_dict(r), sort_keys=True, allow_nan=False)
            for r in self.rows
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def save(self, path: "str | Path") -> Path:
        """Write the JSONL stream to ``path`` (parents created)."""
        return save_text(path, self.to_jsonl())


class Gate(Generic[_S]):
    """A channel's process-wide switch: the installed sink, or ``None``.

    ``active`` is THE gate every emission site checks; the disabled path
    is this single attribute read.  The channel is on at import when
    its environment variable is set.
    """

    def __init__(self, env_var: str, factory: Callable[[], _S]) -> None:
        self.env_var = env_var
        self.factory = factory
        self.active: _S | None = factory() if self._env_setting() else None

    def _env_setting(self) -> str:
        return os.environ.get(self.env_var, "").strip()

    def env_path(self) -> Path | None:
        """The save path the environment variable carries (``None`` for a
        bare ``1``/``true``/``on``/``yes``, or when unset)."""
        value = self._env_setting()
        if not value or value.lower() in _TRUTHY:
            return None
        return Path(value)

    def enabled(self) -> bool:
        """Whether the channel is currently on."""
        return self.active is not None

    def enable(self, instance: _S | None = None) -> _S:
        """Install ``instance`` (or a fresh sink) process-wide."""
        self.active = instance if instance is not None else self.factory()
        return self.active

    def disable(self) -> None:
        """Turn the channel off process-wide."""
        self.active = None

    @contextmanager
    def scoped(self, instance: _S | None) -> Iterator[_S | None]:
        """Scope with ``instance`` installed; the previous sink is restored.

        ``scoped(None)`` leaves the gate untouched, so a caller holding an
        optional private sink needs no branch.
        """
        if instance is None:
            yield None
            return
        previous = self.active
        self.active = instance
        try:
            yield instance
        finally:
            self.active = previous

    @contextmanager
    def fresh(self, path: "str | Path | None" = None) -> Iterator[_S]:
        """Scope with a *fresh* sink; optionally saved to ``path`` on exit."""
        instance = self.factory()
        with self.scoped(instance):
            yield instance
        if path is not None:
            instance.save(path)


def load_jsonl(
    path: "str | Path",
    parse: Callable[[object], _R],
    error: type[ValueError],
    *,
    strict: bool = False,
    where: str = "{path}:{lineno}",
) -> tuple[list[_R], list[tuple[int, str]]]:
    """Parse a JSONL file into ``(rows, skipped)``.

    Blank lines are ignored.  Every other line is decoded and handed to
    ``parse``, which returns the row or raises ``error``.  A bad line is
    collected as ``(line_number, reason)``; with ``strict=True`` the
    first one raises ``error`` instead, prefixed with the ``where``
    template (``{path}`` and ``{lineno}`` are filled in).
    """
    rows: list[_R] = []
    skipped: list[tuple[int, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rows.append(parse(json.loads(line)))
                continue
            except json.JSONDecodeError as exc:
                reason, cause = f"invalid JSON: {exc}", exc
            except error as exc:
                reason, cause = str(exc), exc
            if strict:
                location = where.format(path=path, lineno=lineno)
                raise error(f"{location}: {reason}") from cause
            skipped.append((lineno, reason))
    return rows, skipped
