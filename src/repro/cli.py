"""Command-line front end: ``repro-bus`` (or ``python -m repro``).

Subcommands
-----------

* ``list-codecs``            — registered bus codes
* ``table N``                — regenerate paper table N (1–9): ``tables N``
                               at ``--jobs 1`` with no cache
* ``tables [N ...]``         — regenerate paper tables through the batch
                               engine (worker pool, result cache)
* ``serve``                  — run the codec-evaluation service: an
                               HTTP/JSON API over the sharded engine
                               with dedupe and backpressure
* ``analyze``                — compare codes on a benchmark stream or file
* ``generate``               — write a synthetic benchmark trace to a file
* ``kernel NAME``            — run a CPU kernel and summarize its traces
* ``sweep {stride,seq}``     — run an ablation sweep
* ``power``                  — gate-level codec power for a given load
* ``timing``                 — codec circuit critical paths (STA)
* ``lint``                   — static analysis: netlist lint, activity
                               agreement, codec contract checking
* ``prove``                  — formal verification: symbolic equivalence
                               against the paper specs plus k-induction
                               proofs of ``decode(encode(a)) == a``
* ``profile``                — run a workload under tracing and print a
                               per-stage wall-time breakdown (with
                               ``--flame`` / ``--tree`` span analytics)
* ``bench report``           — compare the latest benchmark history
                               records against declarative budgets

Every subcommand also accepts the observability flags ``--trace FILE``
(JSONL span events), ``--stats`` (counter deltas on stderr) and
``--manifest FILE`` (JSON provenance record of the run).

Argument contract
-----------------

Every bad value prints exactly one stderr line,
``repro-bus <command>: error: <message>``, and exits 2 — before any
trace is generated.  Each kind of value is checked once, at parse time,
by a shared ``type=`` callable (positive int, non-negative length,
existing file, table number, codec name) or by ``choices=``; only a
check that relates two flags runs in a handler, through
:func:`_usage_error`.  ``--length 0`` always means the stream's default
length.
"""

from __future__ import annotations

import argparse
import io
import sys
import time
from pathlib import Path
from typing import Any, Callable, List, NoReturn, Optional, Sequence

from repro.core import available_codecs, make_codec
from repro.metrics import compare_codecs, render_table
from repro.tracegen import (
    AddressTrace,
    BENCHMARK_NAMES,
    data_trace,
    get_profile,
    instruction_trace,
    kernel_names,
    multiplexed_trace,
    trace_kernel,
)

_TRACE_MAKERS = {
    "instruction": instruction_trace,
    "data": data_trace,
    "multiplexed": multiplexed_trace,
}


class _Parser(argparse.ArgumentParser):
    """Every parse error is one stderr line and exit 2.  Subparsers are
    built of the parent's class, so every command inherits this."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def _usage_error(command: str, message: str) -> int:
    """A bad flag combination, reported as the parser reports one value."""
    print(f"repro-bus {command}: error: {message}", file=sys.stderr)
    return 2


def _checked(
    convert: Callable[[str], Any],
    accept: Callable[[Any], bool],
    complaint: Callable[[Any], str],
) -> Callable[[str], Any]:
    """An argparse ``type=``: ``convert`` the text, then reject the value
    with ``complaint(value)`` unless ``accept(value)``."""

    def check(text: str) -> Any:
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(complaint(value))
        return value

    check.__name__ = convert.__name__  # argparse: "invalid int value: 'x'"
    return check


def _formal_codecs() -> List[str]:
    from repro.analysis.formal import FORMAL_CODECS

    return FORMAL_CODECS


_positive = _checked(int, lambda v: v > 0, lambda v: f"must be positive, got {v}")
_length = _checked(
    int,
    lambda v: v >= 0,
    lambda v: f"must be non-negative (0 means the stream's default), got {v}",
)
_table_number = _checked(
    int,
    lambda v: 1 <= v <= 9,
    lambda v: f"no such table: {v} (paper tables are 1-9)",
)
_codec_name = _checked(
    str,
    lambda name: name in available_codecs(),
    lambda name: f"unknown codec {name!r} "
    f"(registered: {', '.join(available_codecs())})",
)
_formal_codec = _checked(
    str,
    lambda name: name in _formal_codecs(),
    lambda name: f"no formal spec for codec(s): {name} "
    f"(provable: {', '.join(_formal_codecs())})",
)


def _existing_file(what: str) -> Callable[[str], str]:
    """An argparse ``type=`` accepting only the path of an existing file."""
    return _checked(
        str, lambda path: Path(path).is_file(), lambda path: f"no {what} file at {path}"
    )


def _load_trace(args: argparse.Namespace) -> AddressTrace:
    if getattr(args, "trace_file", None):
        return AddressTrace.load(args.trace_file)
    return _TRACE_MAKERS[args.kind](get_profile(args.benchmark), args.length)


def _cmd_list_codecs(args: argparse.Namespace) -> int:
    for name in available_codecs():
        print(name)
    return 0


def _execution_config(args: argparse.Namespace) -> Any:
    """Build the :class:`~repro.engine.ExecutionConfig` the shared
    execution flags (``--jobs``/``--cache``/…) describe."""
    from repro.engine import ExecutionConfig

    return ExecutionConfig(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache,
        kernels=not args.no_kernels,
        refresh=args.refresh,
        cache_max_bytes=args.cache_max_bytes,
    )


def _print_table(number: int, length: int, width: Optional[int], config: Any) -> None:
    """Print one paper table; the output is identical under every config."""
    from repro import experiments

    if number == 1:
        print(experiments.table1_text(width=32 if width is None else width))
        return
    if 2 <= number <= 7:
        table = experiments.TABLE_BUILDERS[number](length, config=config)
        print(table.render())
        print()
        print(experiments.compare_with_paper(number, table))
        return
    runs = experiments.simulate_codecs(length=length or 1500, config=config)
    if number == 8:
        print(experiments.render_table8(experiments.table8(runs)))
    else:
        print(experiments.render_table9(experiments.table9(runs)))


def _cmd_tables(args: argparse.Namespace) -> int:
    """``tables`` and ``table`` (which runs at ``--jobs 1``, no cache and
    prints no engine line)."""
    numbers = args.numbers or list(range(2, 8))
    if args.width is not None and set(numbers) != {1}:
        return _usage_error(
            args.command,
            "--width applies to Table 1 only "
            "(Tables 2-9 are defined on the paper's 32-bit bus)",
        )
    config = _execution_config(args)
    for position, number in enumerate(numbers):
        if position:
            print()
        _print_table(number, args.length, args.width, config)
    if args.command == "tables":
        print(f"engine: {config.engine().stats.summary()}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import TraceCorpus, run_server

    config = _execution_config(args)
    corpus = TraceCorpus(args.corpus) if args.corpus else TraceCorpus()
    try:
        asyncio.run(
            run_server(
                host=args.host,
                port=args.port,
                config=config,
                corpus=corpus,
                max_pending=args.max_pending,
            )
        )
    except KeyboardInterrupt:
        pass
    print(f"engine: {config.engine().stats.summary()}", file=sys.stderr)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    names = args.codecs or ["gray", "bus-invert", "t0", "t0bi", "dualt0", "dualt0bi"]
    codecs = []
    for name in names:
        if name in ("binary", "bus-invert", "offset"):
            codecs.append(make_codec(name, trace.width))
        elif name == "beach":
            codecs.append(
                make_codec(name, trace.width, training=list(trace.addresses[:2000]))
            )
        else:
            codecs.append(make_codec(name, trace.width, stride=trace.stride))
    row = compare_codecs(
        codecs, trace.addresses, trace.effective_sels(), stride=trace.stride
    )
    print(f"stream: {trace.name}  ({len(trace)} cycles)")
    print(f"statistics: {trace.statistics()}")
    body = [
        [r.name, str(r.transitions), f"{r.savings:.2%}"] for r in row.results
    ]
    body.insert(0, ["binary", str(row.binary_transitions), "0.00%"])
    print(render_table(["code", "transitions", "savings"], body))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    trace.save(args.output)
    print(f"wrote {len(trace)} cycles to {args.output}")
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    instruction, data, multiplexed = trace_kernel(args.name)
    for trace in (instruction, data, multiplexed):
        print(f"{trace.name}: {len(trace)} cycles, {trace.statistics()}")
    if args.output:
        multiplexed.save(args.output)
        print(f"wrote multiplexed trace to {args.output}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro import experiments

    if args.which == "stride":
        points = experiments.stride_sweep()
        column, title = "stride", "Ablation A — stride sensitivity"
    else:
        points = experiments.sequentiality_sweep()
        column, title = "in-seq", "Ablation B — sequentiality sweep"
    print(experiments.render_sweep(points, column, title))
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from repro.experiments import simulate_codecs
    from repro.rtl.power import estimate_from_simulation

    runs = simulate_codecs(
        benchmark=args.benchmark, length=args.length, codes=tuple(args.codecs)
    )
    load = args.load_pf * 1e-12
    body = []
    for name, run in runs.items():
        encoder = estimate_from_simulation(run.encoder_result, output_load=load)
        decoder = estimate_from_simulation(run.decoder_result, output_load=load)
        body.append(
            [
                name,
                f"{encoder.total * 1e3:.3f}",
                f"{decoder.total * 1e3:.3f}",
                f"{run.encoded_transitions_per_cycle:.2f}",
            ]
        )
    print(
        render_table(
            ["codec", "encoder (mW)", "decoder (mW)", "bus activity (t/cycle)"],
            body,
            title=(
                f"Codec power at {args.load_pf} pF per line "
                f"({args.benchmark} multiplexed stream, 100 MHz, 3.3 V)"
            ),
        )
    )
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    from repro.rtl.codecs import DECODER_BUILDERS, ENCODER_BUILDERS

    body = []
    for name in sorted(ENCODER_BUILDERS):
        encoder = ENCODER_BUILDERS[name](args.width)
        decoder = DECODER_BUILDERS[name](args.width)
        body.append(
            [
                name,
                f"{encoder.netlist.critical_path_ns():.2f}",
                str(encoder.netlist.gate_count),
                f"{encoder.netlist.area_nand2():.0f}",
                f"{decoder.netlist.critical_path_ns():.2f}",
                str(decoder.netlist.gate_count),
            ]
        )
    print(
        render_table(
            ["codec", "enc path (ns)", "enc gates", "enc NAND2-eq",
             "dec path (ns)", "dec gates"],
            body,
            title=f"Codec circuit timing/area, {args.width}-bit bus "
            "(paper: dual T0_BI encoder 5.36 ns in 0.35 um)",
        )
    )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.reliability import run_fault_campaign

    trace = _load_trace(args)
    body = []
    for name in args.codecs:
        codec = make_codec(name, trace.width)
        campaign = run_fault_campaign(
            codec,
            trace.addresses,
            trace.effective_sels(),
            injections=args.injections,
            seed=args.seed,
        )
        body.append(
            [
                name,
                f"{campaign.mean_corrupted_cycles:.2f}",
                str(campaign.max_corrupted_cycles),
                f"{campaign.detected_fraction:.0%}",
                f"{campaign.masked_fraction:.0%}",
            ]
        )
    print(
        render_table(
            ["code", "mean corrupted cycles", "max", "detected", "masked"],
            body,
            title=f"Fault injection: {args.injections} single-wire flips "
            f"on {trace.name}",
        )
    )
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.explore import explore_design_space, pareto_front, recommend

    trace = _load_trace(args)
    load = args.load_pf * 1e-12
    points = explore_design_space(trace, [load])
    body = [
        [
            p.codec_name,
            f"{p.global_power_w * 1e3:.1f}",
            f"{p.codec_power_w * 1e3:.2f}",
            str(p.area_gates),
            f"{p.critical_path_ns:.2f}",
        ]
        for p in sorted(points, key=lambda p: p.global_power_w)
    ]
    print(
        render_table(
            ["code", "global (mW)", "codec (mW)", "gates", "path (ns)"],
            body,
            title=f"Design space at {args.load_pf} pF per line ({trace.name})",
        )
    )
    front = pareto_front(points)
    print(
        "\npareto front (power vs area): "
        + ", ".join(p.codec_name for p in front)
    )
    best, margin = recommend(trace, load)
    print(
        f"recommendation: {best.codec_name} "
        f"({margin * 1e3:.1f} mW ahead of the runner-up)"
    )
    return 0


def _report_findings(
    args: argparse.Namespace,
    reports: List[Any],
    summary: Callable[[dict], str],
    **json_extra: Any,
) -> int:
    """Print analysis reports (``--json`` or text, ``--verbose``) and
    return the exit status: 1 on errors, or on warnings under ``--strict``."""
    import json

    from repro.analysis import Severity, summarize

    totals = summarize(reports)
    if args.json:
        document = {"reports": [r.to_dict() for r in reports], "summary": totals}
        print(json.dumps({**document, **json_extra}, indent=2))
    else:
        for report in reports:
            if args.verbose or any(
                f.severity != Severity.INFO for f in report.findings
            ):
                print(report.render(verbose=args.verbose))
        print(summary(totals))
    return 1 if totals["errors"] or (args.strict and totals["warnings"]) else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import check_agreement, check_codec, lint_circuit
    from repro.rtl.codecs import DECODER_BUILDERS, ENCODER_BUILDERS

    circuit_names = sorted(ENCODER_BUILDERS)
    codec_names = available_codecs()
    if args.codecs:
        circuit_names = [n for n in circuit_names if n in args.codecs]
        codec_names = [n for n in codec_names if n in args.codecs]

    reports = []
    if not args.skip_netlint:
        for name in circuit_names:
            reports.append(lint_circuit(ENCODER_BUILDERS[name](args.width)))
            reports.append(lint_circuit(DECODER_BUILDERS[name](args.width)))
    if not args.skip_activity:
        for name in circuit_names:
            for builders in (ENCODER_BUILDERS, DECODER_BUILDERS):
                netlist = builders[name](args.width).netlist
                reports.append(
                    check_agreement(
                        netlist, cycles=args.cycles, seed=args.seed
                    )
                )
    if not args.skip_contracts:
        for name in codec_names:
            reports.append(
                check_codec(
                    name,
                    width=args.contract_width,
                    max_states=args.max_states,
                )
            )

    return _report_findings(
        args,
        reports,
        lambda totals: f"lint: {totals['targets']} targets — "
        f"{totals['errors']} errors, {totals['warnings']} warnings, "
        f"{totals['info']} info",
    )


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.report import Severity
    from repro.analysis.static import (
        BaselineEntry,
        ProjectError,
        rule_catalog,
        run_check,
        save_baseline,
    )

    if args.list_rules:
        if args.json:
            print(json.dumps({"rules": rule_catalog()}, indent=2))
        else:
            for entry in rule_catalog():
                print(
                    f"{entry['rule']}  {entry['severity']:>7}  "
                    f"[{entry['family']}] {entry['title']}"
                )
        return 0

    package_dir = Path(__file__).resolve().parent
    root = Path(args.root) if args.root else package_dir
    repo_root = root.resolve().parent.parent
    baseline = Path(args.baseline or repo_root / "sa-baseline.json")

    try:
        result = run_check(
            root,
            package=root.resolve().name,
            baseline_path=baseline,
            rules=args.rules,
        )
    except ProjectError as error:
        return _usage_error("check", str(error))

    if args.write_baseline:
        entries = [
            BaselineEntry(
                rule=f.rule,
                module=f.module,
                subject=f.subject,
                justification="TODO: justify or fix",
            )
            for f in result.new_findings
            if f.severity >= Severity.ERROR
        ]
        entries.extend(entry for _, entry in result.grandfathered)
        save_baseline(baseline, entries)
        print(
            f"wrote {baseline} with {len(entries)} entries "
            "(fill in the TODO justifications)"
        )
        return 0

    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        output = result.render(verbose=args.verbose)
        if output:
            print(output)

    if not result.ok:
        return 1
    has_warnings = result.stale_entries or any(
        f.severity == Severity.WARNING for f in result.new_findings
    )
    if args.strict and has_warnings:
        return 1
    return 0


def _cmd_prove(args: argparse.Namespace) -> int:
    from repro.analysis.contracts import replay_formal_counterexamples
    from repro.analysis.formal import (
        FORMAL_CODECS,
        ProveOptions,
        collect_replays,
        prove_codec,
    )
    from repro.obs import metrics as obs_metrics

    names = [n for n in FORMAL_CODECS if not args.codecs or n in args.codecs]

    width = 8 if args.fast else args.width
    options = ProveOptions(
        width=width,
        stride=args.stride,
        backend=args.backend,
        bmc_depth=args.bmc_depth,
        k_max=args.k_max,
        crosscheck=not args.no_crosscheck,
    )

    reports = [prove_codec(name, options) for name in names]

    # Every formally found counterexample doubles as a concrete regression
    # vector: replay it against the behavioural models (CC008/CC009).
    replays = collect_replays(reports)
    if replays:
        reports.append(replay_formal_counterexamples(replays))

    def summary(totals: dict) -> str:
        verdict = "all proofs hold" if not totals["errors"] else "DISPROVED"
        return (
            f"prove: {len(names)} codecs at width {width} — "
            f"{totals['errors']} errors, {totals['warnings']} warnings, "
            f"{totals['info']} info ({verdict})"
        )

    # Engine-internal counters (BDD node budget hits, SAT conflicts/
    # decisions/restarts, induction cut points) of this invocation.
    metrics = obs_metrics.snapshot("formal.")["counters"]
    return _report_findings(args, reports, summary, metrics=metrics)


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.engine import ExecutionConfig
    from repro.obs import run_profile

    # Built before the profiled window: the execution layer's one-time
    # import is set-up, not part of the workload being broken down.
    config = ExecutionConfig()
    workload = args.workload
    if workload == "table":
        from repro import experiments

        number = args.number
        length = args.length or (400 if args.fast else 0)
        params: dict = {"number": number, "length": length}

        def fn() -> Any:
            return experiments.TABLE_BUILDERS[number](length, config=config)

    elif workload == "power":
        from repro.experiments import simulate_codecs

        length = args.length or (300 if args.fast else 1000)
        params = {"benchmark": args.benchmark, "length": length}

        def fn() -> Any:
            return simulate_codecs(
                benchmark=args.benchmark, length=length, config=config
            )

    else:  # prove
        from repro.analysis.formal import (
            FORMAL_CODECS,
            ProveOptions,
            prove_codec,
        )

        width = 8 if args.fast else args.width
        names = args.codecs or list(FORMAL_CODECS)
        options = ProveOptions(width=width)
        params = {"width": width, "codecs": ",".join(names)}

        def fn() -> Any:
            return [prove_codec(name, options) for name in names]

    _, result = run_profile(workload, fn, params=params)
    if args.flame:
        from repro.obs import write_flame

        stacks = write_flame(args.flame, result.captured_events)
        print(
            f"repro-bus profile: wrote {stacks} collapsed stacks to "
            f"{args.flame}",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.render())
        if args.tree:
            from repro.obs import build_profile_tree, render_tree

            print()
            print(render_tree(build_profile_tree(result.captured_events)))
    if result.error:
        print(
            f"repro-bus profile: workload failed: {result.error}",
            file=sys.stderr,
        )
        return 1
    if result.schema_errors:
        print(
            f"repro-bus profile: {len(result.schema_errors)} schema-invalid "
            "trace events",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.obs import run_report

    # action is constrained to "report" by the parser; the positional
    # exists so future actions (e.g. "bench prune") slot in naturally.
    report = run_report(
        Path(args.history), Path(args.budgets), against=args.against
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return report.exit_code(strict=args.strict)


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments import export_all

    export_all(
        args.output,
        stream_length=args.length,
        include_power=not args.no_power,
        include_sweeps=not args.no_sweeps,
    )
    print(f"wrote results to {args.output}")
    return 0


def _stream_flags(length: int, trace_file: bool = True) -> argparse.ArgumentParser:
    """The stream flags of ``analyze``/``generate``/``faults``/``explore``.

    One parent per command, so each keeps its own ``--length`` default:
    argparse shares a parent's action objects among its children, and
    ``set_defaults`` on one child would rewrite the default of all.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("stream")
    group.add_argument("--benchmark", choices=BENCHMARK_NAMES, default="gzip")
    group.add_argument("--kind", choices=tuple(_TRACE_MAKERS), default="multiplexed")
    group.add_argument(
        "--length",
        type=_length,
        default=length,
        help="stream length; 0 means the stream's default (default %(default)s)",
    )
    if trace_file:
        group.add_argument(
            "--trace-file",
            type=_existing_file("trace"),
            help="use a saved trace instead",
        )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro-bus",
        description=(
            "Low-power address bus encoding (DATE 1998 reproduction): "
            "T0, bus-invert, T0_BI, dual T0, dual T0_BI and friends."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags shared by every subcommand (see repro.obs).
    obs_parent = argparse.ArgumentParser(add_help=False)
    obs_group = obs_parent.add_argument_group("observability")
    obs_group.add_argument(
        "--trace",
        metavar="FILE",
        help="write span events to FILE as JSONL while the command runs",
    )
    obs_group.add_argument(
        "--stats",
        action="store_true",
        help="print the run's counter increments to stderr on exit",
    )
    obs_group.add_argument(
        "--manifest",
        metavar="FILE",
        help="write a JSON run manifest (git sha, stages, result digest)",
    )

    # Execution flags shared by every engine-backed subcommand (tables,
    # serve) — they populate one repro.engine.ExecutionConfig.
    exec_parent = argparse.ArgumentParser(add_help=False)
    exec_group = exec_parent.add_argument_group("execution")
    exec_group.add_argument(
        "--jobs",
        type=_positive,
        default=1,
        help="worker processes for cell execution (default 1: in-process)",
    )
    exec_group.add_argument(
        "--cache",
        metavar="DIR",
        default=".repro-cache",
        help="result cache directory (default .repro-cache)",
    )
    exec_group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache for this run",
    )
    exec_group.add_argument(
        "--refresh",
        action="store_true",
        help="recompute every cell and overwrite its cache entry",
    )
    exec_group.add_argument(
        "--no-kernels",
        action="store_true",
        help=(
            "force the per-cycle reference encoder instead of the "
            "columnar numpy kernels (output is identical; see docs/kernels.md)"
        ),
    )
    exec_group.add_argument(
        "--cache-max-bytes",
        type=_positive,
        default=None,
        metavar="N",
        help=(
            "LRU-evict cache entries past this total size "
            "(default: unbounded)"
        ),
    )

    # --json for the commands that print reports.
    json_parent = argparse.ArgumentParser(add_help=False)
    json_parent.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    # The flags _report_findings reads (lint, prove).
    findings_parent = argparse.ArgumentParser(add_help=False, parents=[json_parent])
    findings_parent.add_argument(
        "--strict", action="store_true", help="warnings also fail (nonzero exit)"
    )
    findings_parent.add_argument(
        "--verbose",
        action="store_true",
        help="also show clean targets and info-level findings",
    )

    def add_command(name: str, **kwargs: Any) -> argparse.ArgumentParser:
        parents = [obs_parent] + kwargs.pop("extra_parents", [])
        return sub.add_parser(name, parents=parents, **kwargs)

    add_command("list-codecs", help="list registered bus codes").set_defaults(
        func=_cmd_list_codecs
    )

    # The flags `table` and `tables` share; --width reaches Table 1 only.
    table_parent = argparse.ArgumentParser(add_help=False)
    table_parent.add_argument(
        "--length", type=_length, default=0, help="stream length override"
    )
    table_parent.add_argument(
        "--width",
        type=_positive,
        help="bus width of Table 1 (Tables 2-9: the paper's 32 bits)",
    )

    p_table = add_command(
        "table",
        help="regenerate a paper table (1-9)",
        extra_parents=[table_parent],
        description=(
            "Regenerate one paper table: `tables N` at --jobs 1 with no "
            "cache and no engine line on stderr."
        ),
    )
    p_table.add_argument("numbers", type=_table_number, nargs=1, metavar="number")
    # `tables`' default execution flags, minus the cache.
    execution = {**vars(exec_parent.parse_args([])), "no_cache": True}
    p_table.set_defaults(func=_cmd_tables, **execution)

    p_tables = add_command(
        "tables",
        help="regenerate paper tables through the batch engine",
        extra_parents=[exec_parent, table_parent],
        description=(
            "Regenerate one or more paper tables via repro.engine: the "
            "(trace, codec, metric) cells fan out over a worker pool "
            "(--jobs) and memoize in a content-addressed cache (--cache), "
            "so a warm rerun performs zero encode work.  Output is "
            "byte-identical to running `table N` (which is `tables N` at "
            "--jobs 1 with no cache) for each number; engine statistics "
            "go to stderr.  See docs/engine.md."
        ),
    )
    p_tables.add_argument(
        "numbers",
        type=_table_number,
        nargs="*",
        help="paper tables to regenerate (default: 2-7)",
    )
    p_tables.set_defaults(func=_cmd_tables)

    p_serve = add_command(
        "serve",
        help="run the codec-evaluation service (HTTP/JSON)",
        extra_parents=[exec_parent],
        description=(
            "Serve codec evaluations over a minimal HTTP/JSON API: clients "
            "POST traces (inline or by sha256 digest) to /v1/jobs, the "
            "service shards the cells across the batch engine, dedupes "
            "identical in-flight work, and serves deterministic results "
            "plus per-job manifests.  See docs/service.md."
        ),
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8765, help="bind port (default 8765)"
    )
    p_serve.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="trace corpus directory (default: in-memory, inline traces only)",
    )
    p_serve.add_argument(
        "--max-pending",
        type=_positive,
        default=64,
        help="queue high-water mark before new jobs get 429 (default 64)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_analyze = add_command(
        "analyze",
        help="compare codes on a stream",
        extra_parents=[_stream_flags(length=0)],
    )
    p_analyze.add_argument(
        "--codecs", nargs="*", type=_codec_name, help="codec names to compare"
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_generate = add_command(
        "generate",
        help="write a synthetic trace",
        extra_parents=[_stream_flags(length=0, trace_file=False)],
    )
    p_generate.add_argument("output")
    p_generate.set_defaults(func=_cmd_generate)

    p_kernel = add_command("kernel", help="run a CPU kernel")
    p_kernel.add_argument("name", choices=kernel_names())
    p_kernel.add_argument("--output", help="save the multiplexed trace here")
    p_kernel.set_defaults(func=_cmd_kernel)

    p_sweep = add_command("sweep", help="run an ablation sweep")
    p_sweep.add_argument("which", choices=("stride", "seq"))
    p_sweep.set_defaults(func=_cmd_sweep)

    p_power = add_command("power", help="gate-level codec power")
    p_power.add_argument("--benchmark", choices=BENCHMARK_NAMES, default="gzip")
    p_power.add_argument("--length", type=_length, default=1000)
    p_power.add_argument("--load-pf", type=float, default=0.4)
    p_power.add_argument(
        "--codecs",
        nargs="*",
        default=["binary", "t0", "dualt0bi"],
        choices=["binary", "t0", "bus-invert", "dualt0", "dualt0bi"],
    )
    p_power.set_defaults(func=_cmd_power)

    p_timing = add_command("timing", help="codec circuit critical paths")
    p_timing.add_argument("--width", type=_positive, default=32)
    p_timing.set_defaults(func=_cmd_timing)

    p_faults = add_command(
        "faults",
        help="fault-injection campaign",
        extra_parents=[_stream_flags(length=800)],
    )
    p_faults.add_argument("--injections", type=_positive, default=100)
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.add_argument(
        "--codecs",
        nargs="*",
        type=_codec_name,
        default=["binary", "bus-invert", "t0", "dualt0bi", "offset", "wze"],
    )
    p_faults.set_defaults(func=_cmd_faults)

    p_explore = add_command(
        "explore",
        help="design-space exploration",
        extra_parents=[_stream_flags(length=600)],
    )
    p_explore.add_argument("--load-pf", type=float, default=50.0)
    p_explore.set_defaults(func=_cmd_explore)

    p_lint = add_command(
        "lint",
        extra_parents=[findings_parent],
        help="static analysis: netlist lint, activity agreement, contracts",
        description=(
            "Run the three static passes of repro.analysis over the "
            "gate-level codec circuits and the codec registry.  With no "
            "flags (or --all) every built-in circuit is linted and "
            "activity-checked and every registered codec is "
            "contract-checked; exits nonzero on any error-level finding."
        ),
    )
    p_lint.add_argument(
        "--all",
        action="store_true",
        help="lint everything (the default; spelled out for scripts)",
    )
    p_lint.add_argument(
        "--codecs", nargs="*", type=_codec_name, help="restrict to these codec names"
    )
    p_lint.add_argument(
        "--width", type=_positive, default=32, help="netlist width (default 32)"
    )
    p_lint.add_argument(
        "--contract-width",
        type=_positive,
        default=4,
        help="exhaustive state-exploration width (default 4)",
    )
    p_lint.add_argument(
        "--max-states",
        type=_positive,
        default=4096,
        help="joint-state cap for the contract exploration",
    )
    p_lint.add_argument(
        "--cycles",
        type=_positive,
        default=400,
        help="random cycles for the activity agreement check",
    )
    p_lint.add_argument("--seed", type=int, default=0)
    p_lint.add_argument("--skip-netlint", action="store_true")
    p_lint.add_argument("--skip-activity", action="store_true")
    p_lint.add_argument("--skip-contracts", action="store_true")
    p_lint.set_defaults(func=_cmd_lint)

    p_check = add_command(
        "check",
        extra_parents=[json_parent],
        help="source-level static analysis: the SA rule catalog",
        description=(
            "Run the whole-project SA analyzer (repro.analysis.static) "
            "over the package source: purity of codec classes, "
            "fork-safety of worker-reachable code, determinism of cache "
            "keys and manifests, and registry completeness.  AST-based — "
            "nothing is imported or executed.  Exits nonzero on any new "
            "(non-baseline) error-level finding; see docs/analysis.md "
            "for the catalog and the suppression/baseline workflow."
        ),
    )
    p_check.add_argument(
        "--root",
        help="package directory to analyze (default: the installed "
        "repro package source)",
    )
    p_check.add_argument(
        "--baseline",
        help="baseline file for grandfathered findings "
        "(default: sa-baseline.json next to the source tree)",
    )
    p_check.add_argument(
        "--rules",
        nargs="*",
        metavar="SA0xx",
        help="restrict to these rule ids",
    )
    p_check.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    p_check.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current error findings to the baseline file "
        "(justifications left as TODO)",
    )
    p_check.add_argument(
        "--strict",
        action="store_true",
        help="stale baseline entries and warnings also fail",
    )
    p_check.add_argument(
        "--verbose",
        action="store_true",
        help="show grandfathered (info-level) findings",
    )
    p_check.set_defaults(func=_cmd_check)

    p_prove = add_command(
        "prove",
        extra_parents=[findings_parent],
        help="formal verification: equivalence + k-induction proofs",
        description=(
            "Symbolically verify the gate-level codec circuits: prove "
            "each encoder/decoder netlist equivalent to an independent "
            "word-level spec (BDD with SAT fallback), prove "
            "decode(encode(a)) == a from every reachable state by "
            "k-induction, and check the redundant-line protocols.  "
            "Disproofs carry concrete counterexample vectors and exit "
            "nonzero."
        ),
    )
    p_prove.add_argument(
        "--codecs",
        nargs="*",
        type=_formal_codec,
        help="restrict to these codec names",
    )
    p_prove.add_argument(
        "--width",
        type=_positive,
        default=32,
        help="bus width to prove at (default 32, the paper's)",
    )
    p_prove.add_argument(
        "--fast",
        action="store_true",
        help="prove at width 8 instead (seconds, for CI)",
    )
    p_prove.add_argument(
        "--stride",
        type=_positive,
        default=4,
        help="word stride for the T0-family in-sequence increment",
    )
    p_prove.add_argument(
        "--backend",
        choices=("auto", "bdd", "sat"),
        default="auto",
        help="decision procedure for equivalence (auto: BDD, SAT on blowup)",
    )
    p_prove.add_argument(
        "--bmc-depth",
        type=int,
        default=3,
        help="bounded-model-checking horizon from reset (default 3)",
    )
    p_prove.add_argument(
        "--k-max",
        type=int,
        default=2,
        help="largest induction depth to attempt (default 2)",
    )
    p_prove.add_argument(
        "--no-crosscheck",
        action="store_true",
        help="skip co-simulating the specs against the behavioural models",
    )
    p_prove.set_defaults(func=_cmd_prove)

    p_export = add_command("export", help="write all results as JSON")
    p_export.add_argument("output")
    p_export.add_argument("--length", type=_length, default=0)
    p_export.add_argument("--no-power", action="store_true")
    p_export.add_argument("--no-sweeps", action="store_true")
    p_export.set_defaults(func=_cmd_export)

    p_profile = add_command(
        "profile",
        extra_parents=[json_parent],
        help="per-stage wall-time breakdown of a pipeline workload",
        description=(
            "Replay a workload under tracing and report where the time "
            "goes: per-stage wall seconds (tracegen/encode/count for "
            "tables, tracegen/simulate/count for power, "
            "crosscheck/equivalence/sequential for prove), the counter "
            "increments the run caused, and a schema check over every "
            "captured trace event (nonzero exit on violations)."
        ),
    )
    p_profile.add_argument(
        "workload", choices=("table", "power", "prove"), help="what to profile"
    )
    p_profile.add_argument(
        "--number",
        type=int,
        choices=range(2, 8),  # experiments.TABLE_BUILDERS, not imported here
        default=4,
        help="paper table to profile (2-7, table workload only)",
    )
    p_profile.add_argument(
        "--length", type=_length, default=0, help="stream length override"
    )
    p_profile.add_argument(
        "--benchmark",
        choices=BENCHMARK_NAMES,
        default="gzip",
        help="benchmark stream for the power workload",
    )
    p_profile.add_argument(
        "--width", type=_positive, default=32, help="bus width for prove"
    )
    p_profile.add_argument(
        "--codecs",
        nargs="*",
        type=_formal_codec,
        help="restrict the prove workload to these",
    )
    p_profile.add_argument(
        "--fast",
        action="store_true",
        help="small workload (CI smoke: short streams, prove at width 8)",
    )
    p_profile.add_argument(
        "--flame",
        metavar="FILE",
        help=(
            "write the captured spans as collapsed stacks "
            "(flamegraph.pl / speedscope format) to FILE"
        ),
    )
    p_profile.add_argument(
        "--tree",
        action="store_true",
        help="also print the self/cumulative-time profile tree",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_bench = add_command(
        "bench",
        extra_parents=[json_parent],
        help="benchmark history: compare runs against declarative budgets",
        description=(
            "Evaluate the latest benchmarks/results/history.jsonl records "
            "against the budgets in benchmarks/budgets.toml: absolute "
            "floors on structured result rows, and latest/baseline ratio "
            "bounds for time-like metrics.  The baseline is the previous "
            "record of each benchmark name, or --against <sha-prefix | "
            "history-file>.  Exits nonzero on any budget violation; "
            "--strict also fails on unresolvable budget paths."
        ),
    )
    p_bench.add_argument(
        "action", choices=("report",), help="bench subaction"
    )
    p_bench.add_argument(
        "--against",
        metavar="SHA|FILE",
        help="baseline: a git sha prefix in the history, or another "
        "history file (default: the previous run of each benchmark)",
    )
    benchmarks = Path(__file__).resolve().parent.parent.parent / "benchmarks"
    p_bench.add_argument(
        "--history",
        metavar="FILE",
        default=str(benchmarks / "results" / "history.jsonl"),
        help="history file (default benchmarks/results/history.jsonl)",
    )
    p_bench.add_argument(
        "--budgets",
        metavar="FILE",
        type=_existing_file("budgets"),
        default=str(benchmarks / "budgets.toml"),
        help="budget file (default benchmarks/budgets.toml)",
    )
    p_bench.add_argument(
        "--strict",
        action="store_true",
        help="unresolvable budget paths also fail (nonzero exit)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    return parser


class _Tee(io.TextIOBase):
    """Copies everything written to stdout so manifests can digest it."""

    def __init__(self, stream: Any):
        self.stream = stream
        self._parts: List[str] = []

    def write(self, text: str) -> int:
        self._parts.append(text)
        return self.stream.write(text)

    def flush(self) -> None:
        self.stream.flush()

    def getvalue(self) -> str:
        return "".join(self._parts)


def _run_observed(args: argparse.Namespace, raw_argv: Sequence[str]) -> int:
    """Run a subcommand with the requested observability plumbing."""
    from repro.obs import manifest as obs_manifest
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    trace_path, manifest_path = args.trace, args.manifest
    sinks: List[Any] = []
    if trace_path:
        sinks.append(obs_trace.JsonlSink(trace_path))
    memory: Optional[obs_trace.MemorySink] = None
    if manifest_path:
        memory = obs_trace.MemorySink()
        sinks.append(memory)
    before = obs_metrics.snapshot()
    tee: Optional[_Tee] = None
    if manifest_path:
        tee = _Tee(sys.stdout)
        sys.stdout = tee  # type: ignore[assignment]
    if sinks:
        obs_trace.enable(*sinks)
    started = time.perf_counter()
    status: Optional[int] = None
    try:
        status = args.func(args)
        return status
    finally:
        wall_s = time.perf_counter() - started
        if sinks:
            obs_trace.disable()
        if tee is not None:
            sys.stdout = tee.stream
        if manifest_path:
            assert memory is not None and tee is not None
            obs_manifest.write_manifest(
                manifest_path,
                obs_manifest.collect_manifest(
                    command=args.command,
                    argv=raw_argv,
                    seed=getattr(args, "seed", None),
                    stream_length=getattr(args, "length", None),
                    wall_s=wall_s,
                    stages=obs_manifest.aggregate_stages(memory.events),
                    result_text=tee.getvalue(),
                    extra={"exit_status": status},
                ),
            )
        if args.stats:
            deltas = obs_metrics.counter_deltas(before, obs_metrics.snapshot())
            for item in deltas:
                labels = sorted((item.get("labels") or {}).items())
                suffix = "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
                print(
                    f"{item['name']}{suffix if labels else ''} = {item['value']}",
                    file=sys.stderr,
                )


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = build_parser().parse_args(raw_argv)
    except SystemExit as done:  # a usage error (exit 2) or --help (exit 0)
        return int(done.code or 0)
    if not (args.trace or args.stats or args.manifest):
        return args.func(args)
    return _run_observed(args, raw_argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
