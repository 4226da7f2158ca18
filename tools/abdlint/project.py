"""Pass 1: per-file summaries; the project symbol table built from them.

The engine is a classic two-pass whole-program analyser:

1. every file is parsed **once** into a JSON-serialisable
   :class:`ModuleSummary` — its import edges, function table (params,
   local assignments), call sites with structured argument descriptors,
   RNG construction sites, registration sites and pragma lines.  The
   summary is what the mtime+hash cache stores, so a warm run never
   re-parses unchanged files;
2. the summaries are assembled into a :class:`Project` (module index +
   call-site index) over which the cross-module rules — ARCH001
   (:mod:`abdlint.arch`), DET005 (:mod:`abdlint.seedflow`) and REG001
   (:mod:`abdlint.registry`) — run.

Argument descriptors are small nested lists (JSON-stable):

``["const", value]``
    a literal (int/float/str/bool/None);
``["name", id]``
    a bare name;
``["attr", attr]``
    an attribute access, keyed by its *final* attribute
    (``config.seed`` -> ``["attr", "seed"]``);
``["call", dotted, [args...]]``
    a call, with the callee resolved through the import table where
    possible;
``["binop", [operands...]]``
    an arithmetic combination;
``["other"]``
    anything else.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any

from abdlint.findings import FileKind, Finding, module_name, suppressed_rules

#: Fully-qualified callables that construct a ``np.random.Generator``
#: (or a factory of them).  The second element names the seed keyword.
RNG_CONSTRUCTORS: dict[str, str] = {
    "repro.utils.seeding.seeded_generator": "seed",
    "repro.utils.seeding.SeedSequenceFactory": "root_seed",
    "repro.utils.seeding.spawn_rngs": "root_seed",
    "numpy.random.default_rng": "seed",
    "numpy.random.SeedSequence": "entropy",
    "numpy.random.PCG64": "seed",
}

#: Dotted suffixes whose return value is, by construction, part of the
#: seed tree: an argument produced by one of these is seed-derived.
SEED_PRODUCER_SUFFIXES: tuple[str, ...] = (
    ".derive_seed",
    ".iter_run_seeds",
    ".seed",
    ".cell_seed",
)

#: Innocuous numeric wrappers that pass their first argument through.
_TRANSPARENT_CALLS = ("int", "abs")


def describe_expr(node: ast.expr, aliases: dict[str, str], depth: int = 0) -> list:
    """The JSON argument descriptor for ``node`` (see module docstring)."""
    if depth > 6:
        return ["other"]
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, (int, float, str, bool)) or value is None:
            return ["const", value]
        return ["other"]
    if isinstance(node, ast.Name):
        return ["name", node.id]
    if isinstance(node, ast.Attribute):
        return ["attr", node.attr]
    if isinstance(node, ast.Call):
        dotted = resolve_dotted(node.func, aliases)
        args = [describe_expr(a, aliases, depth + 1) for a in node.args[:4]]
        return ["call", dotted or "", args]
    if isinstance(node, ast.BinOp):
        return [
            "binop",
            [
                describe_expr(node.left, aliases, depth + 1),
                describe_expr(node.right, aliases, depth + 1),
            ],
        ]
    if isinstance(node, ast.UnaryOp):
        return describe_expr(node.operand, aliases, depth + 1)
    return ["other"]


def resolve_dotted(func: ast.expr, aliases: dict[str, str]) -> str | None:
    """Dotted path of a name/attribute chain through the import table.

    Unresolvable bases (``self.helper``) come back as the raw chain
    (``self.helper``) so method calls remain inspectable.
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id, node.id)
    parts.append(base)
    return ".".join(reversed(parts))


@dataclass
class ModuleSummary:
    """Everything pass 2 needs to know about one file."""

    path: str
    module: str | None
    kind: FileKind
    #: [module, lineno, type_only, function_level]
    imports: list[list] = field(default_factory=list)
    #: qualname -> {"params": [...], "line": n, "assigns": {name: [desc, line]}}
    functions: dict[str, dict] = field(default_factory=dict)
    #: [callee, lineno, col, [arg descs], {kw: desc}, enclosing qualname]
    calls: list[list] = field(default_factory=list)
    #: [constructor dotted, lineno, col, seed desc or None, enclosing qualname]
    rng_sites: list[list] = field(default_factory=list)
    #: registration sites, see ``registry.py``
    registrations: dict[str, Any] = field(default_factory=dict)
    #: line -> suppressed rule list (None = all)
    pragmas: dict[int, list[str] | None] = field(default_factory=dict)
    #: serialized pass-1 findings (path/line/col/rule/message tuples)
    local_findings: list[list] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "module": self.module,
            "kind": {
                "is_tests": self.kind.is_tests,
                "is_benchmarks": self.kind.is_benchmarks,
                "is_seeding": self.kind.is_seeding,
                "is_invariants": self.kind.is_invariants,
                "is_parallel": self.kind.is_parallel,
                "is_shm_owner": self.kind.is_shm_owner,
                "is_scenario": self.kind.is_scenario,
                "in_src": self.kind.in_src,
                "is_emission": self.kind.is_emission,
            },
            "imports": self.imports,
            "functions": self.functions,
            "calls": self.calls,
            "rng_sites": self.rng_sites,
            "registrations": self.registrations,
            "pragmas": {str(k): v for k, v in self.pragmas.items()},
            "local_findings": self.local_findings,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ModuleSummary":
        return cls(
            path=data["path"],
            module=data["module"],
            kind=FileKind(**data["kind"]),
            imports=data["imports"],
            functions=data["functions"],
            calls=data["calls"],
            rng_sites=data["rng_sites"],
            registrations=data["registrations"],
            pragmas={int(k): v for k, v in data["pragmas"].items()},
            local_findings=data["local_findings"],
        )

    def findings(self) -> list[Finding]:
        return [Finding(*row) for row in self.local_findings]


class _SummaryVisitor(ast.NodeVisitor):
    """One AST walk collecting the whole :class:`ModuleSummary`."""

    def __init__(self, summary: ModuleSummary) -> None:
        self.s = summary
        self.aliases: dict[str, str] = {}
        self.func_stack: list[str] = []
        self.class_stack: list[str] = []
        self.type_only_depth = 0
        self.s.functions[""] = {"params": [], "line": 0, "assigns": {}}
        reg = self.s.registrations
        reg.setdefault("aggregators", [])
        reg.setdefault("references", [])
        reg.setdefault("consensus_factories", [])
        reg.setdefault("scenario_kinds", [])
        reg.setdefault("kind_branches", [])
        reg.setdefault("dynamic_aggregator_coverage", False)
        reg.setdefault("uses_consensus_names", False)
        if self.s.kind.is_tests:
            reg.setdefault("referenced", [])
        self._referenced: set[str] = set()

    # -- helpers -------------------------------------------------------
    @property
    def qualname(self) -> str:
        return self.func_stack[-1] if self.func_stack else ""

    def finish(self) -> None:
        if self.s.kind.is_tests:
            self.s.registrations["referenced"] = sorted(self._referenced)

    def _is_type_checking_test(self, test: ast.expr) -> bool:
        if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
            return True
        return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"

    # -- imports -------------------------------------------------------
    def visit_If(self, node: ast.If) -> None:
        if self._is_type_checking_test(node.test):
            self.type_only_depth += 1
            for child in node.body:
                self.visit(child)
            self.type_only_depth -= 1
            for child in node.orelse:
                self.visit(child)
            return
        self.generic_visit(node)

    def _record_import(self, module: str, lineno: int) -> None:
        self.s.imports.append(
            [
                module,
                lineno,
                self.type_only_depth > 0,
                len(self.func_stack) > 0,
            ]
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._record_import(alias.name, node.lineno)
            if alias.asname:
                self.aliases[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self.aliases[root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level > 0 and self.s.module is not None:
            # Resolve a relative import against this module's package.
            base = self.s.module.split(".")
            if self.s.path.endswith("__init__.py"):
                base = base + ["__init__"]
            anchor = base[: len(base) - node.level]
            module = ".".join(anchor + ([module] if module else []))
        if module:
            self._record_import(module, node.lineno)
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = f"{module}.{alias.name}"
        self.generic_visit(node)

    # -- functions / classes -------------------------------------------
    def _visit_func(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        prefix = ".".join(self.class_stack)
        qual = f"{prefix}.{node.name}" if prefix else node.name
        args = node.args
        params = [
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if a.arg not in ("self", "cls")
        ]
        self.s.functions[qual] = {
            "params": params,
            "line": node.lineno,
            "assigns": {},
        }
        self.func_stack.append(qual)
        self.generic_visit(node)
        self.func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for deco in node.decorator_list:
            self._record_registration(deco)
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _record_registration(self, deco: ast.expr) -> None:
        if not (isinstance(deco, ast.Call) and deco.args):
            return
        dotted = resolve_dotted(deco.func, self.aliases) or ""
        arg = deco.args[0]
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            return
        if dotted.endswith("register_aggregator"):
            self.s.registrations["aggregators"].append([arg.value, deco.lineno])
        elif dotted.endswith("register_reference"):
            self.s.registrations["references"].append([arg.value, deco.lineno])

    # -- assignments ---------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._note_assign(target.id, node.value, node.lineno)
                self._note_special_assign(target.id, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            self._note_assign(node.target.id, node.value, node.lineno)
            self._note_special_assign(node.target.id, node.value)
        self.generic_visit(node)

    def _note_assign(self, name: str, value: ast.expr, lineno: int) -> None:
        desc = describe_expr(value, self.aliases)
        self.s.functions[self.qualname]["assigns"][name] = [desc, lineno]

    def _note_special_assign(self, name: str, value: ast.expr) -> None:
        reg = self.s.registrations
        if name == "_FACTORIES" and isinstance(value, ast.Dict):
            for key, val in zip(value.keys, value.values):
                if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                    continue
                if isinstance(val, ast.Name):
                    cls_name = val.id
                elif isinstance(val, ast.Attribute):
                    cls_name = val.attr
                else:
                    cls_name = ""
                reg["consensus_factories"].append(
                    [key.value, cls_name, key.lineno]
                )
        elif name == "KINDS" and isinstance(value, (ast.Tuple, ast.List)):
            for elt in value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    reg["scenario_kinds"].append([elt.value, elt.lineno])

    # -- calls / comparisons / names -----------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = resolve_dotted(node.func, self.aliases)
        if dotted is not None:
            args = [describe_expr(a, self.aliases) for a in node.args]
            kwargs = {
                kw.arg: describe_expr(kw.value, self.aliases)
                for kw in node.keywords
                if kw.arg is not None
            }
            self.s.calls.append(
                [dotted, node.lineno, node.col_offset, args, kwargs, self.qualname]
            )
            if dotted.endswith("available_aggregators"):
                self.s.registrations["dynamic_aggregator_coverage"] = True
            ctor = self._match_rng_constructor(dotted)
            if ctor is not None:
                full, seed_kw = ctor
                seed_desc = None
                if node.args:
                    seed_desc = describe_expr(node.args[0], self.aliases)
                else:
                    for kw in node.keywords:
                        if kw.arg == seed_kw or (
                            kw.arg is not None and "seed" in kw.arg
                        ):
                            seed_desc = describe_expr(kw.value, self.aliases)
                            break
                self.s.rng_sites.append(
                    [full, node.lineno, node.col_offset, seed_desc, self.qualname]
                )
        self.generic_visit(node)

    @staticmethod
    def _match_rng_constructor(dotted: str) -> tuple[str, str] | None:
        """The canonical RNG constructor ``dotted`` names, if any.

        Matches the fully-resolved path, a bare imported name, or a
        module-qualified tail (``seeding.seeded_generator``).
        """
        if dotted in RNG_CONSTRUCTORS:
            return dotted, RNG_CONSTRUCTORS[dotted]
        base = dotted.rsplit(".", 1)[-1]
        for full, seed_kw in RNG_CONSTRUCTORS.items():
            if base == full.rsplit(".", 1)[-1] and (
                dotted == base or full.endswith("." + dotted)
            ):
                return full, seed_kw
        return None

    def visit_Compare(self, node: ast.Compare) -> None:
        sides = [node.left, *node.comparators]
        if any(isinstance(s, ast.Attribute) and s.attr == "kind" for s in sides):
            for side in sides:
                if isinstance(side, ast.Constant) and isinstance(side.value, str):
                    self.s.registrations["kind_branches"].append(side.value)
                elif isinstance(side, (ast.Tuple, ast.List)):
                    for elt in side.elts:
                        if isinstance(elt, ast.Constant) and isinstance(
                            elt.value, str
                        ):
                            self.s.registrations["kind_branches"].append(elt.value)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if self.s.kind.is_tests:
            self._referenced.add(node.id)
            if node.id == "CONSENSUS_NAMES":
                self.s.registrations["uses_consensus_names"] = True
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.s.kind.is_tests:
            self._referenced.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if self.s.kind.is_tests and isinstance(node.value, str):
            if len(node.value) < 64:
                self._referenced.add(node.value)


def summarize_source(path: str, source: str) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one python file."""
    summary = ModuleSummary(
        path=path,
        module=module_name(path),
        kind=FileKind.from_path(path),
        pragmas=suppressed_rules(source),
    )
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return summary  # pass 1 already reported E999
    visitor = _SummaryVisitor(summary)
    visitor.visit(tree)
    visitor.finish()
    return summary


def summarize_toml(path: str, source: str) -> ModuleSummary:
    """A stub summary for a scenario spec file (records its ``kind``)."""
    summary = ModuleSummary(
        path=path, module=None, kind=FileKind.from_path(path)
    )
    try:
        import tomllib

        data = tomllib.loads(source)
    except Exception:
        return summary
    kind = data.get("kind")
    if isinstance(kind, str):
        summary.registrations["toml_kind"] = kind
    return summary


class Project:
    """The assembled symbol table: module index + call-site index."""

    def __init__(self, summaries: list[ModuleSummary]) -> None:
        self.summaries = summaries
        self.by_module: dict[str, ModuleSummary] = {
            s.module: s for s in summaries if s.module is not None
        }
        # callee dotted name -> [(summary, call row), ...]
        self._call_index: dict[str, list[tuple[ModuleSummary, list]]] = {}
        for s in summaries:
            for call in s.calls:
                self._call_index.setdefault(call[0], []).append((s, call))

    def call_sites(self, dotted: str) -> list[tuple[ModuleSummary, list]]:
        """All recorded call sites whose resolved callee is ``dotted``."""
        return self._call_index.get(dotted, [])

    def function(self, module: str, qualname: str) -> dict | None:
        summary = self.by_module.get(module)
        if summary is None:
            return None
        return summary.functions.get(qualname)
