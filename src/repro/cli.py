"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the experiment runners:

``table5``    — run (a slice of) the Table V accuracy grid
``figure3``   — convergence curves for one scenario
``schemes``   — scheme 1-4 robustness/cost comparison
``pipeline``  — event-driven Fig. 2 timing run + overall efficiency
``tolerance`` — Theorem 2 closed form + optional empirical sweep
``matrix``    — attack x defence robustness matrix
``scenario``  — run / list / validate declarative scenario specs
``lint``      — run the abdlint static-analysis engine over the tree
``report``    — render a trace file into the Table-V-style breakdown
``audit``     — forensic detection report / cross-run diff from audit
records

Every command accepts ``--rounds``, ``--seed`` and an optional ``--out``
directory for persisted results.  Defaults are the reduced scale;
``--paper-scale`` switches to the full Appendix D configuration.
``--trace PATH`` records a :mod:`repro.obs` trace of the command to
``PATH`` (equivalent to running under ``REPRO_TRACE=PATH``); the trace
can then be inspected with ``python -m repro report PATH``.
``--audit PATH`` records :mod:`repro.obs.audit` defence decision
records to ``PATH`` (equivalent to ``REPRO_AUDIT=PATH``) and writes the
run manifest next to them; inspect with ``python -m repro audit PATH``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ABD-HFL reproduction experiment runner",
    )
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--rounds", type=int, default=None, help="global rounds")
    parser.add_argument("--out", type=Path, default=None, help="results directory")
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the full Appendix D configuration (slow)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="record an observability trace (JSONL) of the command to PATH",
    )
    parser.add_argument(
        "--audit",
        type=Path,
        default=None,
        metavar="PATH",
        help="record defence forensics (audit JSONL + run manifest) of "
        "the command to PATH",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for parallelisable commands (table5, matrix);"
        " results are bit-identical for every N (default: REPRO_WORKERS or 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t5 = sub.add_parser("table5", help="Table V accuracy grid")
    t5.add_argument("--distribution", choices=["iid", "noniid", "both"], default="iid")
    t5.add_argument("--attack", choices=["type1", "type2", "both"], default="type1")
    t5.add_argument(
        "--fractions",
        type=float,
        nargs="+",
        default=[0.0, 0.3, 0.5, 0.578, 0.65],
    )
    t5.add_argument("--repeats", type=int, default=1)

    f3 = sub.add_parser("figure3", help="convergence curves")
    f3.add_argument("--distribution", choices=["iid", "noniid"], default="iid")
    f3.add_argument("--attack", choices=["type1", "type2"], default="type1")
    f3.add_argument("--fraction", type=float, default=0.5)
    f3.add_argument("--repeats", type=int, default=2)

    sc = sub.add_parser("schemes", help="scheme 1-4 comparison")
    sc.add_argument("--fraction", type=float, default=0.3)

    pl = sub.add_parser("pipeline", help="event-driven pipeline timing")
    pl.add_argument("--flag-level", type=int, default=1)
    pl.add_argument("--global-delay", type=float, default=25.0)

    tol = sub.add_parser("tolerance", help="Theorem 2 analysis")
    tol.add_argument("--gamma1", type=float, default=0.25)
    tol.add_argument("--gamma2", type=float, default=0.25)
    tol.add_argument("--levels", type=int, default=5)
    tol.add_argument("--empirical", action="store_true")

    mx = sub.add_parser("matrix", help="attack x defence matrix")
    mx.add_argument("--byzantine-fraction", type=float, default=0.25)
    mx.add_argument(
        "--consensus",
        default=None,
        help="compose a CBA backend in front of every defence "
        "(e.g. 'acs', 'voting'); the defence aggregates only the "
        "updates the backend accepted",
    )
    mx.add_argument(
        "--consensus-adversary",
        default="none",
        choices=("none", "equivocate", "withhold", "crash_midway"),
        help="Byzantine behaviour on the consensus traffic itself "
        "('acs' backend only)",
    )
    mx.add_argument(
        "--drop",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="fraction of honest members crash-silent per cell",
    )
    mx.add_argument(
        "--drop-messages",
        type=float,
        default=0.0,
        metavar="PROB",
        help="per-message loss probability on consensus traffic "
        "('acs' backend only; retransmission applies)",
    )
    mx.add_argument("--n-total", type=int, default=20, help="members per cell")
    mx.add_argument("--dim", type=int, default=64, help="update dimension")
    mx.add_argument("--trials", type=int, default=8, help="trials per cell")

    sn = sub.add_parser(
        "scenario", help="declarative scenario specs (repro.scenario)"
    )
    sn_sub = sn.add_subparsers(dest="scenario_command", required=True)
    sn_run = sn_sub.add_parser(
        "run", help="execute a spec (TOML path or shipped name)"
    )
    sn_run.add_argument(
        "spec",
        help="path to a scenario TOML, or a shipped name (see 'scenario list')",
    )
    # SUPPRESS so this alias never clobbers the root-level --workers value
    sn_run.add_argument(
        "--workers",
        type=int,
        dest="workers",
        default=argparse.SUPPRESS,
        metavar="N",
        help="worker processes (bit-identical results for every N)",
    )
    # SUPPRESS mirrors --workers: the subcommand alias must not clobber
    # a root-level --out when only the latter is given.
    sn_run.add_argument(
        "--out",
        type=Path,
        dest="out",
        default=argparse.SUPPRESS,
        metavar="DIR",
        help="persist report/cells/manifest (+ audit stream when auditing "
        "is on) under DIR",
    )
    sn_sub.add_parser("list", help="list the shipped canonical specs")
    sn_validate = sn_sub.add_parser(
        "validate", help="validate specs without running them"
    )
    sn_validate.add_argument(
        "specs",
        nargs="*",
        help="spec paths or shipped names (default: every shipped spec)",
    )

    ln = sub.add_parser(
        "lint",
        help="run the abdlint static-analysis engine (tools/abdlint)",
    )
    ln.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src tests benchmarks tools)",
    )
    ln.add_argument(
        "--select", default=None, help="comma-separated rule subset"
    )
    ln.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="also write findings as SARIF 2.1.0 to PATH",
    )
    ln.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the .abdlint_cache incremental cache",
    )
    ln.add_argument(
        "--self-test",
        action="store_true",
        help="run the engine's fixture self-test instead of linting",
    )

    rp = sub.add_parser("report", help="render a run report from a trace file")
    rp.add_argument("trace_file", type=Path, help="JSONL trace to render")
    rp.add_argument(
        "--chrome",
        type=Path,
        default=None,
        metavar="PATH",
        help="additionally export the trace in Chrome trace_event format",
    )
    rp.add_argument(
        "--strict",
        action="store_true",
        help="fail on the first unrecognised trace line instead of "
        "skipping (and counting) it",
    )

    au = sub.add_parser(
        "audit", help="forensic detection report from audit records"
    )
    au.add_argument(
        "run",
        type=Path,
        nargs="?",
        default=None,
        help="audit JSONL file, or a run directory containing audit.jsonl",
    )
    au.add_argument(
        "--diff",
        type=Path,
        nargs=2,
        metavar=("A", "B"),
        default=None,
        help="compare two runs instead: per-cell detection/metric deltas",
    )
    au.add_argument(
        "--check",
        action="store_true",
        help="with --diff: exit 1 when any delta exceeds --tol or the "
        "cell sets differ",
    )
    au.add_argument(
        "--tol",
        type=float,
        default=1e-9,
        help="absolute delta tolerance for --check (default: 1e-9)",
    )
    au.add_argument(
        "--strict",
        action="store_true",
        help="fail on the first invalid record line instead of skipping it",
    )
    au.add_argument(
        "--no-timelines",
        action="store_true",
        help="omit the per-device suspicion timelines",
    )
    return parser


def _base_config(args: argparse.Namespace):
    from repro.experiments import ExperimentConfig

    cfg = (
        ExperimentConfig.paper_scale(seed=args.seed)
        if args.paper_scale
        else ExperimentConfig(seed=args.seed)
    )
    if args.rounds is not None:
        cfg = replace(cfg, n_rounds=args.rounds)
    return cfg


def _cmd_table5(args: argparse.Namespace) -> int:
    from repro.experiments.table5 import format_table5, run_table5
    from repro.experiments.io import save_cells_json

    cfg = _base_config(args)
    distributions = {
        "iid": (True,),
        "noniid": (False,),
        "both": (True, False),
    }[args.distribution]
    attacks = ("type1", "type2") if args.attack == "both" else (args.attack,)
    cells = run_table5(
        cfg,
        fractions=tuple(args.fractions),
        distributions=distributions,
        attacks=attacks,
        n_runs=args.repeats,
        workers=args.workers,
    )
    print(format_table5(cells))
    if args.out:
        path = save_cells_json(args.out / "table5.json", cells)
        print(f"saved {path}")
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from repro.experiments import run_figure3
    from repro.experiments.io import save_curves_npz
    from repro.utils.tables import format_percent

    cfg = replace(
        _base_config(args).for_distribution(args.distribution == "iid"),
        attack=args.attack,
        malicious_fraction=args.fraction,
    )
    abd, van = run_figure3(cfg, n_runs=args.repeats)
    for r in range(0, len(abd.mean), max(1, len(abd.mean) // 12)):
        print(
            f"round {r:4d}: ABD-HFL {format_percent(abd.mean[r])} "
            f"vanilla {format_percent(van.mean[r])}"
        )
    print(
        f"final: ABD-HFL {format_percent(abd.final_accuracy)} vs "
        f"vanilla {format_percent(van.final_accuracy)}"
    )
    if args.out:
        path = save_curves_npz(
            args.out / "figure3.npz",
            rounds=abd.rounds,
            abdhfl_mean=abd.mean,
            abdhfl_ci=abd.ci_half_width,
            vanilla_mean=van.mean,
            vanilla_ci=van.ci_half_width,
        )
        print(f"saved {path}")
    return 0


def _cmd_schemes(args: argparse.Namespace) -> int:
    from repro.experiments.schemes import run_scheme_comparison
    from repro.utils.tables import format_percent, format_table

    cfg = replace(_base_config(args), malicious_fraction=args.fraction)
    outcomes = run_scheme_comparison(cfg)
    rows = [
        [
            o.scheme,
            f"{o.partial_kind}/{o.global_kind}",
            format_percent(o.final_accuracy),
            o.analytic_model_messages,
            o.analytic_scalar_messages,
        ]
        for o in outcomes
    ]
    print(
        format_table(
            ["scheme", "partial/global", "accuracy", "model msgs", "scalar msgs"],
            rows,
        )
    )
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.pipeline.event_run import EventDrivenRun, TimingConfig
    from repro.pipeline.overall import overall_efficiency
    from repro.sim.latency import FixedLatency, LogNormalLatency
    from repro.topology.tree import build_ecsm

    hierarchy = build_ecsm(n_levels=3, cluster_size=4, n_top=4)
    config = TimingConfig(
        local_compute=LogNormalLatency(median=10.0, sigma=0.3),
        partial_aggregate=FixedLatency(1.0),
        global_aggregate=FixedLatency(args.global_delay),
        link=FixedLatency(0.2),
    )
    run = EventDrivenRun(
        hierarchy, config, flag_level=args.flag_level, seed=args.seed
    )
    timings = run.run(args.rounds or 15)
    result = overall_efficiency(timings)
    print(f"overall efficiency (time-weighted): {result.time_weighted:.3f}")
    print(f"plain mean of per-cluster nu:       {result.unweighted_mean:.3f}")
    print(f"total waiting / overlapped time:    {result.total_waiting:.1f} / "
          f"{result.total_overlapped:.1f}")
    print("network traffic:")
    print(run.channel.stats.summary())
    return 0


def _cmd_tolerance(args: argparse.Namespace) -> int:
    from repro.experiments.theorem2 import run_theorem2
    from repro.topology.analysis import max_byzantine_fraction
    from repro.utils.tables import format_percent, format_table

    rows = [
        [
            level,
            format_percent(
                max_byzantine_fraction(args.gamma1, args.gamma2, level), 4
            ),
        ]
        for level in range(args.levels)
    ]
    print(
        format_table(
            ["bottom level", "max tolerated Byzantine"],
            rows,
            title=f"Theorem 2 (gamma1={args.gamma1}, gamma2={args.gamma2})",
        )
    )
    if args.empirical:
        cfg = _base_config(args)
        bound, points = run_theorem2(
            cfg, gamma1=args.gamma1, gamma2=args.gamma2
        )
        print(f"\nempirical sweep (bound {format_percent(bound, 4)}):")
        for p in points:
            marker = "" if p.below_bound else "  <-- above bound"
            print(
                f"  {format_percent(p.malicious_fraction):>6}: "
                f"{format_percent(p.accuracy)}{marker}"
            )
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.experiments.matrix import DEFAULT_ATTACKS, DEFAULT_DEFENCES
    from repro.scenario import FaultSpec, ScenarioRunner, matrix_spec

    faults = None
    if args.drop_messages > 0:
        faults = FaultSpec(seed=args.seed, drop_probability=args.drop_messages)
    spec = matrix_spec(
        name="matrix-cli",
        defences=DEFAULT_DEFENCES,
        attacks=DEFAULT_ATTACKS,
        fractions=(args.byzantine_fraction,),
        seed=args.seed,
        consensus=args.consensus,
        consensus_adversary=args.consensus_adversary,
        faults=faults,
        drop_fraction=args.drop,
        n_total=args.n_total,
        dim=args.dim,
        n_trials=args.trials,
    )
    result = ScenarioRunner(workers=args.workers).run(spec)
    print(result.table)
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenario import (
        ScenarioRunner,
        load_shipped_spec,
        resolve_spec,
        shipped_spec_names,
    )

    if args.scenario_command == "list":
        for name in shipped_spec_names():
            spec = load_shipped_spec(name)
            summary = spec.description or spec.kind
            print(f"{name:24s} {spec.kind:16s} {summary}")
        return 0
    if args.scenario_command == "validate":
        refs = args.specs or shipped_spec_names()
        failures = 0
        for ref in refs:
            try:
                spec = resolve_spec(ref)
            except ValueError as exc:
                print(f"{ref}: INVALID - {exc}")
                failures += 1
            else:
                print(f"{ref}: ok ({spec.kind}, {len(spec.fractions)} fractions)")
        return 1 if failures else 0
    spec = resolve_spec(args.spec)
    result = ScenarioRunner(workers=getattr(args, "workers", None)).run(spec)
    print(result.table)
    if args.out:
        from repro.scenario.runner import persist_result, run_manifest

        paths = persist_result(
            result,
            args.out,
            manifest=run_manifest(spec, command=f"scenario run {args.spec}"),
        )
        for path in paths.values():
            print(f"saved {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # The engine lives in tools/abdlint (it lints the repo, it is not
    # part of the library); locate it from the source checkout layout.
    root = Path(__file__).resolve().parents[2]
    tools_dir = root / "tools"
    if not (tools_dir / "abdlint" / "__init__.py").is_file():
        print(
            "repro lint: tools/abdlint not found (requires a source "
            f"checkout; looked in {tools_dir})",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(tools_dir))
    from abdlint.cli import main as abdlint_main

    argv: list[str] = list(args.paths)
    if not argv and not args.self_test:
        argv = [
            str(root / name)
            for name in ("src", "tests", "benchmarks", "tools")
            if (root / name).is_dir()
        ]
    if args.select:
        argv += ["--select", args.select]
    if args.sarif:
        argv += ["--sarif", args.sarif]
    if args.no_cache:
        argv += ["--no-cache"]
    if args.self_test:
        argv += ["--self-test"]
    return abdlint_main(argv)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import (
        TraceSchemaError,
        load_trace,
        load_trace_lenient,
        render_report,
        write_chrome_trace,
    )

    if args.strict:
        try:
            events = load_trace(args.trace_file)
        except TraceSchemaError as exc:
            print(f"repro report: {exc}", file=sys.stderr)
            return 2
    else:
        events, skipped = load_trace_lenient(args.trace_file)
        if skipped:
            lineno, reason = skipped[0]
            print(
                f"warning: {args.trace_file}: skipped "
                f"{len(skipped)} unrecognised line(s), first at line "
                f"{lineno}: {reason} (use --strict to fail instead)",
                file=sys.stderr,
            )
    print(render_report(events))
    if args.chrome is not None:
        path = write_chrome_trace(args.chrome, events)
        print(f"saved Chrome trace {path}")
    return 0


def _resolve_audit_run(ref: Path) -> tuple[Path, Path | None]:
    """Resolve a run reference to ``(audit JSONL, manifest or None)``.

    A directory means a scenario/CLI artifact directory (``audit.jsonl``
    next to ``manifest.json``); a file means the JSONL itself, with the
    manifest looked up at its conventional sibling path.
    """
    from repro.obs import audit as _audit

    if ref.is_dir():
        jsonl = ref / "audit.jsonl"
        if not jsonl.is_file():
            raise FileNotFoundError(f"{ref} contains no audit.jsonl")
    else:
        jsonl = ref
    if not jsonl.is_file():
        raise FileNotFoundError(f"no such audit file: {jsonl}")
    for candidate in (
        _audit.manifest_path_for(jsonl),
        jsonl.parent / "manifest.json",
    ):
        if candidate.is_file():
            return jsonl, candidate
    return jsonl, None


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.obs import audit as _audit
    from repro.obs.audit_report import (
        build_audit_report,
        diff_audit,
        render_audit_report,
        render_diff,
    )

    def load(
        ref: Path,
    ) -> tuple[list[dict[str, object]], "dict[str, object] | None"]:
        jsonl, manifest_path = _resolve_audit_run(ref)
        records, skipped = _audit.load_audit(jsonl, strict=args.strict)
        if skipped:
            lineno, reason = skipped[0]
            print(
                f"warning: {jsonl}: skipped {len(skipped)} invalid "
                f"line(s), first at line {lineno}: {reason} "
                "(use --strict to fail instead)",
                file=sys.stderr,
            )
        manifest = (
            _audit.load_manifest(manifest_path)
            if manifest_path is not None
            else None
        )
        return records, manifest

    try:
        if args.diff is not None:
            records_a, _ = load(args.diff[0])
            records_b, _ = load(args.diff[1])
            diff = diff_audit(records_a, records_b)
            print(render_diff(diff, tol=args.tol))
            return 1 if args.check and diff.exceeds(args.tol) else 0
        if args.run is None:
            print(
                "repro audit: a run path (or --diff A B) is required",
                file=sys.stderr,
            )
            return 2
        records, manifest = load(args.run)
    except (FileNotFoundError, _audit.AuditSchemaError) as exc:
        print(f"repro audit: {exc}", file=sys.stderr)
        return 2
    if manifest is not None:
        package = manifest.get("package")
        parts = [f"schema {manifest.get('schema')}"]
        if isinstance(package, dict):
            parts.append(f"{package.get('name')} {package.get('version')}")
        for key in ("command", "seed"):
            if key in manifest:
                parts.append(f"{key} {manifest[key]}")
        print("manifest: " + ", ".join(parts) + "\n")
    report = build_audit_report(records)
    print(render_audit_report(report, timelines=not args.no_timelines))
    return 0


_COMMANDS = {
    "table5": _cmd_table5,
    "figure3": _cmd_figure3,
    "schemes": _cmd_schemes,
    "pipeline": _cmd_pipeline,
    "tolerance": _cmd_tolerance,
    "matrix": _cmd_matrix,
    "scenario": _cmd_scenario,
    "lint": _cmd_lint,
    "report": _cmd_report,
    "audit": _cmd_audit,
}

#: Pure consumers: recording their own activity would be noise.
_ANALYSIS_COMMANDS = ("report", "audit", "lint")


def _command_manifest(args: argparse.Namespace) -> "dict[str, object]":
    """A provenance manifest for one CLI invocation (``--audit`` mode)."""
    from repro.experiments.io import collect_registries
    from repro.obs import audit as _audit

    return _audit.build_manifest(
        command=args.command,
        spec=dict(sorted(vars(args).items())),
        seed=getattr(args, "seed", None),
        registries=collect_registries(),
    )


def main(argv: list[str] | None = None) -> int:
    from contextlib import ExitStack

    from repro.obs import audit as _audit
    from repro.obs import trace as _trace

    args = build_parser().parse_args(argv)
    # Each record channel: its gate and the --trace/--audit save path.
    channels: list[tuple[str, Any, Path | None]] = (
        []
        if args.command in _ANALYSIS_COMMANDS
        else [
            ("trace", _trace.gate, getattr(args, "trace", None)),
            ("audit", _audit.gate, getattr(args, "audit", None)),
        ]
    )
    with ExitStack() as stack:
        sinks = [
            stack.enter_context(gate.fresh()) if path is not None else None
            for _, gate, path in channels
        ]
        status = _COMMANDS[args.command](args)
    for (name, gate, path), sink in zip(channels, sinks):
        if path is None:
            # REPRO_TRACE/REPRO_AUDIT=<path> installed a process-wide sink
            # at import time; persist what it collected.
            sink, path = gate.active, gate.env_path()
        if sink is None or path is None:
            continue
        sink.save(path)
        if name == "audit":
            _audit.write_manifest(
                _audit.manifest_path_for(path), _command_manifest(args)
            )
        print(f"saved {name} {path}")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
