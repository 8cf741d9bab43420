"""Command-line interface for the repro library.

Subcommands::

    repro generate  -- generate a benchmark instance file (named circuit or
                       synthetic scenario family, optionally with blockages)
    repro route     -- route an instance file and print a summary
                       (``--benchmark`` parses ISPD-CNS-style files;
                       ``--repair`` runs the post-construction optimizer)
    repro optimize  -- route an instance, repair it, report before/after
    repro eco       -- incrementally re-route a routed spec after a small
                       change order (sink moves/adds/removes, new blockages)
                       by rebuilding only the dirty cone
    repro batch     -- execute a JSON list of run specs (optionally parallel)
    repro routers   -- list the routers available in the registry
    repro serve     -- run the routing service (async HTTP server with a
                       content-addressed RunSpec -> RunResult cache)
    repro bench     -- run the service load test and its gates, write
                       BENCH_service.json
    repro table1    -- reproduce Table I (clustered sink groups)
    repro table2    -- reproduce Table II (intermingled sink groups)
    repro figure1   -- reproduce Figure 1 (zero vs bounded skew)
    repro figure2   -- reproduce Figure 2 (separate vs cross-group merging)

All routing goes through the :mod:`repro.api` facade: algorithms are looked up
in the router registry (so plugged-in third-party routers appear in
``--algorithm`` automatically), ``route --json`` emits the machine-readable
:class:`~repro.api.spec.RunResult` summary, and ``batch`` executes declarative
:class:`~repro.api.spec.RunSpec` lists with the parallel
:class:`~repro.api.batch.BatchRunner`.

All experiment commands accept ``--circuits`` and ``--groups`` so that quick
subsets can be run during development; the defaults match the paper.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis.report import format_table, rows_to_csv
from repro.api.batch import BatchRunner
from repro.api.registry import RouterSpec, available_routers, router_description
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunResult, RunSpec
from repro.opt.config import OptConfig
from repro.circuits.benchmarks import available_families
from repro.circuits.io import save_instance
from repro.circuits.r_circuits import available_circuits
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure2 import run_figure2
from repro.experiments.runner import ExperimentConfig
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2

__all__ = ["main", "build_parser"]


class OutputWriter:
    """Routes CLI output to the right stream.

    Three channels, so scripts can consume stdout while humans read stderr:

    * :meth:`out` -- the report channel (tables, summaries).  Goes to stdout;
      dropped with ``--quiet``, and dropped in JSON mode, where stdout must
      carry nothing but the JSON document.
    * :meth:`info` -- progress notes ("wrote FILE").  Goes to stderr; dropped
      with ``--quiet``.
    * :meth:`warn` -- warnings and validation issues.  Always printed, always
      on stderr.
    * :meth:`emit_json` -- the JSON document itself, always on stdout.
    """

    def __init__(self, quiet: bool = False, json_mode: bool = False) -> None:
        self.quiet = quiet
        self.json_mode = json_mode

    def out(self, text: str = "") -> None:
        if not self.quiet and not self.json_mode:
            print(text)

    def info(self, text: str) -> None:
        if not self.quiet:
            print(text, file=sys.stderr)

    def warn(self, text: str) -> None:
        print(text, file=sys.stderr)

    def emit_json(self, payload) -> None:
        print(json.dumps(payload, indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro`` command."""
    import repro

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Associative skew clock routing (AST-DME) reproduction",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + repro.__version__
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress reports and progress notes; warnings, validation "
        "issues and requested JSON documents still print",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a benchmark instance file")
    gen.add_argument(
        "circuit",
        nargs="?",
        choices=available_circuits(),
        help="named r-benchmark circuit (omit when using --family)",
    )
    gen.add_argument("output", help="path of the instance file to write")
    gen.add_argument(
        "--family",
        choices=available_families(),
        help="generate a synthetic scenario family instead of a named circuit",
    )
    gen.add_argument(
        "--sinks", type=int, default=200, help="sink count for --family instances"
    )
    gen.add_argument(
        "--blockages",
        type=int,
        default=None,
        help="routing blockage count for --family instances (family default otherwise)",
    )
    gen.add_argument(
        "--layout-size",
        type=float,
        default=100_000.0,
        help="layout side for --family instances (micrometres)",
    )
    gen.add_argument("--groups", type=int, default=1, help="number of sink groups")
    gen.add_argument(
        "--grouping",
        choices=("clustered", "intermingled"),
        default="intermingled",
        help="how to assign sinks to groups when --groups > 1",
    )
    gen.add_argument("--seed", type=int, default=7, help="instance + grouping seed")

    route = sub.add_parser("route", help="route an instance file and print a summary")
    route.add_argument("instance", help="instance file written by 'repro generate'")
    route.add_argument(
        "--benchmark",
        action="store_true",
        help="treat the instance file as an ISPD-CNS-style benchmark "
        "(sinks + blockages + source) instead of the repro v1 format",
    )
    route.add_argument(
        "--algorithm",
        choices=available_routers(),
        default="ast-dme",
    )
    route.add_argument(
        "--bound-ps",
        type=float,
        default=None,
        help="intra-group skew bound (default: 10.0; only passed to the router "
        "when given, so routers without that option still work)",
    )
    route.add_argument(
        "--trunk-levels",
        type=int,
        default=None,
        help="H-tree trunk recursion depth (only meaningful with "
        "--algorithm h-tree; default: 2)",
    )
    route.add_argument("--validate", action="store_true", help="run full validation")
    route.add_argument(
        "--repair",
        action="store_true",
        help="run the post-construction optimizer (skew repair via wire "
        "snaking, detour-aware re-embedding, wirelength recovery) on the "
        "routed tree",
    )
    route.add_argument(
        "--max-cap",
        type=float,
        default=None,
        help="capacitance limit (fF) any single driver may see; enables the "
        "buffer-insertion optimizer pass (implies --repair)",
    )
    route.add_argument(
        "--buffer-library",
        default=None,
        metavar="PATH",
        help="JSON buffer library for --max-cap (default: the built-in "
        "three-cell library)",
    )
    route.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="off-locus placement tolerance for validation, in micrometres "
        "(default: 0.001)",
    )
    route.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON summary"
    )
    route.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record a span trace of the run and write it as NDJSON "
        "(one event per line; summarize with 'repro trace summarize FILE')",
    )

    optimize = sub.add_parser(
        "optimize",
        help="route an instance, repair it with the optimizer and report "
        "before/after quality",
    )
    optimize.add_argument("instance", help="instance file written by 'repro generate'")
    optimize.add_argument(
        "--benchmark",
        action="store_true",
        help="treat the instance file as an ISPD-CNS-style benchmark",
    )
    optimize.add_argument(
        "--algorithm", choices=available_routers(), default="ast-dme"
    )
    optimize.add_argument(
        "--bound-ps",
        type=float,
        default=None,
        help="intra-group skew bound the router and the repair target "
        "(default: 10.0)",
    )
    optimize.add_argument(
        "--max-iterations", type=int, default=None, help="optimizer iteration cap"
    )
    optimize.add_argument(
        "--passes",
        nargs="+",
        default=None,
        metavar="PASS",
        help="optimization passes to run, in order (default: reembed "
        "skew-repair wirelength-recovery)",
    )
    optimize.add_argument(
        "--max-cap",
        type=float,
        default=None,
        help="capacitance limit (fF) any single driver may see; adds the "
        "buffer-insertion pass in front of the pipeline unless --passes "
        "names one explicitly",
    )
    optimize.add_argument(
        "--buffer-library",
        default=None,
        metavar="PATH",
        help="JSON buffer library for --max-cap (default: the built-in "
        "three-cell library)",
    )
    optimize.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="off-locus placement tolerance for validation, in micrometres",
    )
    optimize.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON summary"
    )
    optimize.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record a span trace of the run and write it as NDJSON",
    )

    eco = sub.add_parser(
        "eco",
        help="incrementally re-route a routed spec after an engineering "
        "change order: rebuild only the dirty cone around the changed "
        "sinks, stitch the untouched subtrees back verbatim",
    )
    eco.add_argument(
        "--base",
        required=True,
        help="JSON file with the RunSpec of the base routing "
        "(same shape as one 'repro batch' entry)",
    )
    eco.add_argument(
        "--delta",
        required=True,
        help="JSON file with the EcoDelta: sink adds/moves/removes and new "
        "blockages ({'add': [...], 'move': [...], 'remove': [...], "
        "'add_blockages': [...]})",
    )
    eco.add_argument(
        "--validate", action="store_true", help="validate the stitched tree"
    )
    eco.add_argument(
        "--repair",
        action="store_true",
        help="run the local post-stitch repair when the stitched tree "
        "violates a skew bound; it holds every group to its bound",
    )
    eco.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON summary"
    )
    eco.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record a span trace of the re-route and write it as NDJSON",
    )

    batch = sub.add_parser(
        "batch", help="execute a JSON file of run specs through the BatchRunner"
    )
    batch.add_argument(
        "specs",
        help="JSON file: a list of RunSpec dicts, or an object with a 'runs' list",
    )
    batch.add_argument(
        "--workers", type=int, default=None, help="worker processes (default: auto)"
    )
    batch.add_argument(
        "--json", action="store_true", help="emit the full JSON results instead of a table"
    )

    sub.add_parser("routers", help="list the routers available in the registry")

    serve = sub.add_parser(
        "serve",
        help="run the routing service: an asyncio HTTP server with a "
        "content-addressed RunSpec -> RunResult cache in front of the "
        "router registry",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8343, help="TCP port (0 binds an ephemeral port)"
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the on-disk cache tier (default: memory-only cache)",
    )
    serve.add_argument(
        "--memory-capacity",
        type=int,
        default=256,
        help="in-memory LRU cache capacity, entries (default: 256)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="routing worker processes; <= 1 routes in server threads "
        "(default: 1)",
    )
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=4,
        help="maximum route computes in flight at once (default: 4)",
    )

    bench = sub.add_parser(
        "bench",
        help="run the service load test and its gates and write "
        "BENCH_service.json",
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI-sized run: same schema, latency threshold waived",
    )
    bench.add_argument(
        "--sizes",
        nargs="+",
        type=int,
        default=None,
        help="sink counts to load-test (default: 500 2000, or 120 with --smoke)",
    )
    bench.add_argument("--seed", type=int, default=1, help="instance seed")
    bench.add_argument(
        "--out",
        default="BENCH_service.json",
        help="path of the JSON payload to write (default: BENCH_service.json)",
    )
    bench.add_argument(
        "--json", action="store_true", help="also print the full JSON payload"
    )

    trace = sub.add_parser(
        "trace", help="work with NDJSON span traces written by --trace-out"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="aggregate an NDJSON trace into a per-span table (count, "
        "cumulative and self seconds, p50/p99)",
    )
    summarize.add_argument("file", help="NDJSON trace file written by --trace-out")
    summarize.add_argument(
        "--json", action="store_true", help="emit the summary rows as JSON"
    )

    for name, help_text in (
        ("table1", "reproduce Table I (clustered sink groups)"),
        ("table2", "reproduce Table II (intermingled sink groups)"),
    ):
        table = sub.add_parser(name, help=help_text)
        table.add_argument(
            "--circuits",
            nargs="+",
            default=["r1", "r2", "r3"],
            choices=available_circuits(),
            help="benchmark circuits to run (default: r1 r2 r3)",
        )
        table.add_argument(
            "--groups",
            nargs="+",
            type=int,
            default=[4, 6, 8, 10],
            help="group counts to sweep",
        )
        table.add_argument("--bound-ps", type=float, default=10.0)
        table.add_argument("--csv", action="store_true", help="emit CSV instead of a table")

    sub.add_parser("figure1", help="reproduce Figure 1 (zero vs bounded skew)")
    sub.add_parser("figure2", help="reproduce Figure 2 (separate vs cross-group merging)")
    return parser


def _cmd_generate(args: argparse.Namespace, writer: OutputWriter) -> int:
    if (args.circuit is None) == (args.family is None):
        raise SystemExit("generate needs exactly one of a circuit name or --family")
    if args.family is not None:
        spec = InstanceSpec.from_family(
            args.family,
            num_sinks=args.sinks,
            seed=args.seed,
            layout_size=args.layout_size,
            num_blockages=args.blockages,
            groups=args.groups,
            grouping=args.grouping,
            grouping_seed=args.seed,
        )
    else:
        spec = InstanceSpec.from_circuit(
            args.circuit, groups=args.groups, grouping=args.grouping, grouping_seed=args.seed
        )
    instance = spec.build()
    save_instance(instance, args.output)
    writer.out(
        "wrote %s (%d sinks, %d groups, %d blockages)"
        % (args.output, instance.num_sinks, instance.num_groups, len(instance.obstacles))
    )
    return 0


def _print_run_result(writer: OutputWriter, result: RunResult) -> None:
    writer.out("instance       : %s (%d sinks, %d groups)"
               % (result.instance_name, result.num_sinks, result.num_groups))
    writer.out("algorithm      : %s" % result.spec.router.name)
    writer.out("wirelength     : %.0f" % result.wirelength)
    writer.out("global skew    : %.1f ps" % result.global_skew_ps)
    writer.out("intra-group    : %.1f ps (worst group)" % result.max_intra_group_skew_ps)
    writer.out("cpu            : %.2f s" % result.route_seconds)


def _instance_spec_from_args(args: argparse.Namespace) -> InstanceSpec:
    return (
        InstanceSpec.from_benchmark(args.instance)
        if args.benchmark
        else InstanceSpec.from_file(args.instance)
    )


def _write_trace(trace, path: str, writer: OutputWriter) -> None:
    from repro.obs.trace import write_ndjson

    write_ndjson(trace, path)
    writer.info("wrote %d trace event(s) to %s" % (len(trace), path))


def _run_and_print(
    spec: RunSpec,
    as_json: bool,
    writer: OutputWriter,
    trace_out: Optional[str] = None,
) -> int:
    """Execute ``spec`` and print the summary (shared by route / optimize)."""
    result = run(spec, trace=trace_out is not None)
    if trace_out is not None:
        _write_trace(result.trace, trace_out, writer)
    if as_json:
        writer.emit_json(result.to_dict())
        return 0 if result.ok else 1
    _print_run_result(writer, result)
    if result.opt is not None:
        _print_opt_report(writer, result.opt)
    if spec.validate:
        if result.issues:
            for issue in result.issues:
                writer.warn("VALIDATION: %s" % issue)
            return 1
        writer.out("validation     : ok")
    return 0


def _cmd_route(args: argparse.Namespace, writer: OutputWriter) -> int:
    # Only forward the bound when the user asked for one: third-party routers
    # need not understand skew_bound_ps, and the built-ins default to 10 ps
    # anyway.  Validation uses RunSpec.effective_bound_ps(), which falls back
    # to the same 10 ps default.
    options = {} if args.bound_ps is None else {"skew_bound_ps": args.bound_ps}
    if args.trunk_levels is not None:
        options["trunk_levels"] = args.trunk_levels
    opt = OptConfig(enabled=True) if args.repair else None
    if args.max_cap is not None:
        from repro.opt.config import BUFFERED_PASSES

        opt = OptConfig(
            enabled=True,
            passes=BUFFERED_PASSES,
            max_cap=args.max_cap,
            buffer_library=args.buffer_library,
        )
    spec = RunSpec(
        instance=_instance_spec_from_args(args),
        router=RouterSpec(args.algorithm, options),
        validate=args.validate,
        opt=opt,
        locus_tolerance=args.tolerance,
    )
    return _run_and_print(spec, args.json, writer, trace_out=args.trace_out)


def _print_opt_report(writer: OutputWriter, report) -> None:
    writer.out("repair         : %s after %d iteration(s)"
               % ("converged" if report.converged else "NOT converged", report.iterations))
    writer.out("  skew         : %.2f -> %.2f ps (bound %.1f ps)"
               % (report.max_intra_skew_before_ps, report.max_intra_skew_after_ps,
                  report.bound_ps))
    writer.out("  violations   : %d -> %d group(s)"
               % (report.skew_violations_before, report.skew_violations_after))
    writer.out("  wirelength   : %.0f -> %.0f (%+.2f%%)"
               % (report.wirelength_before, report.wirelength_after,
                  100.0 * report.wire_added / report.wirelength_before
                  if report.wirelength_before else 0.0))
    buffers = sum(outcome.buffers_inserted for outcome in report.passes)
    if buffers:
        writer.out("  buffers      : %d inserted" % buffers)


def _cmd_optimize(args: argparse.Namespace, writer: OutputWriter) -> int:
    # `repro optimize` is `repro route --repair --validate` plus the optimizer
    # knobs that only make sense when repairing is the point.
    options = {} if args.bound_ps is None else {"skew_bound_ps": args.bound_ps}
    opt_kwargs = {"enabled": True}
    if args.max_iterations is not None:
        opt_kwargs["max_iterations"] = args.max_iterations
    if args.passes is not None:
        from repro.opt import available_passes

        unknown = sorted(set(args.passes) - set(available_passes()))
        if unknown:
            raise SystemExit(
                "unknown optimization pass(es) %s; available: %s"
                % (", ".join(unknown), ", ".join(available_passes()))
            )
        opt_kwargs["passes"] = tuple(args.passes)
    if args.max_cap is not None:
        opt_kwargs["max_cap"] = args.max_cap
        opt_kwargs["buffer_library"] = args.buffer_library
        if args.passes is None:
            from repro.opt.config import BUFFERED_PASSES

            opt_kwargs["passes"] = BUFFERED_PASSES
    spec = RunSpec(
        instance=_instance_spec_from_args(args),
        router=RouterSpec(args.algorithm, options),
        validate=True,
        opt=OptConfig(**opt_kwargs),
        locus_tolerance=args.tolerance,
    )
    return _run_and_print(spec, args.json, writer, trace_out=args.trace_out)


def _load_json_object(path: str, what: str) -> dict:
    """One JSON object from ``path`` (missing file / bad JSON raise with a
    message naming the file, so the top-level handler prints one clean line)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError("%s file %s is not valid JSON: %s" % (what, path, exc)) from exc
    if not isinstance(data, dict):
        raise ValueError("%s file %s must contain one JSON object" % (what, path))
    return data


def _cmd_eco(args: argparse.Namespace, writer: OutputWriter) -> int:
    from repro.api.eco import EcoSpec, run_eco
    from repro.eco import EcoDelta, EcoDeltaError

    base = RunSpec.from_dict(_load_json_object(args.base, "base spec"))
    try:
        delta = EcoDelta.from_dict(_load_json_object(args.delta, "delta"))
    except (KeyError, TypeError) as exc:
        # Normalise structural mistakes to the same error type EcoDelta's own
        # validation raises, so the caller sees one line either way.
        raise EcoDeltaError("malformed delta file %s: %s" % (args.delta, exc)) from exc
    spec = EcoSpec(
        base=base,
        delta=delta,
        validate=args.validate,
        repair=OptConfig(enabled=True) if args.repair else None,
    )
    result = run_eco(spec, trace=args.trace_out is not None)
    if args.trace_out is not None:
        _write_trace(result.trace, args.trace_out, writer)
    if args.json:
        writer.emit_json(result.to_dict())
        return 0 if result.ok else 1
    writer.out("instance       : %s (%d sinks, %d groups)"
               % (result.instance_name, result.num_sinks, result.num_groups))
    writer.out("algorithm      : %s" % spec.base.router.name)
    writer.out("delta          : +%d sinks, %d moved, -%d sinks, +%d blockages"
               % (len(delta.add), len(delta.move), len(delta.remove), len(delta.add_blockages)))
    writer.out("wirelength     : %.0f" % result.wirelength)
    writer.out("global skew    : %.1f ps" % result.global_skew_ps)
    writer.out("intra-group    : %.1f ps (worst group)" % result.max_intra_group_skew_ps)
    if result.eco is not None:
        writer.out("dirty cone     : %d node(s), %d preserved subtree(s)"
                   % (result.eco.cone_nodes, result.eco.frontier_subtrees))
        writer.out("nodes          : %d reused, %d rebuilt%s"
                   % (result.eco.reused_nodes, result.eco.rebuilt_nodes,
                      ", repaired" if result.eco.repaired else ""))
    writer.out("cpu            : %.3f s eco (base route %.3f s)"
               % (result.eco_seconds, result.base_seconds))
    if spec.validate:
        if result.issues:
            for issue in result.issues:
                writer.warn("VALIDATION: %s" % issue)
            return 1
        writer.out("validation     : ok")
    return 0


def _load_batch_specs(path: str) -> List[RunSpec]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict):
        data = data.get("runs")
    if not isinstance(data, list) or not data:
        raise SystemExit(
            "batch file must contain a non-empty list of run specs (or {'runs': [...]})"
        )
    specs = []
    for index, entry in enumerate(data):
        try:
            specs.append(RunSpec.from_dict(entry))
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit("bad run spec at index %d: %s" % (index, exc)) from exc
    return specs


def _cmd_batch(args: argparse.Namespace, writer: OutputWriter) -> int:
    specs = _load_batch_specs(args.specs)
    results = BatchRunner(workers=args.workers).run(specs)
    if args.json:
        writer.emit_json([r.to_dict() for r in results])
    else:
        for index, result in enumerate(results):
            label = result.spec.label or result.instance_name or ("run-%d" % index)
            if result.error is not None:
                status = "ERROR %s" % result.error.splitlines()[0]
            elif result.issues:
                status = "INVALID (%d issues)" % len(result.issues)
            else:
                status = "ok"
            writer.out(
                "%-24s %-12s wl %12.0f  intra %6.2f ps  global %8.2f ps  %s"
                % (
                    label,
                    result.spec.router.name,
                    result.wirelength,
                    result.max_intra_group_skew_ps,
                    result.global_skew_ps,
                    status,
                )
            )
    # Validation failures and per-run errors surface in the exit code so that
    # batch mode can gate CI jobs.
    return 0 if all(result.ok for result in results) else 1


def _cmd_serve(args: argparse.Namespace, _writer: OutputWriter) -> int:
    from repro.service.server import ServiceConfig, serve

    serve(
        ServiceConfig(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            memory_capacity=args.memory_capacity,
            workers=args.workers,
            max_concurrency=args.max_concurrency,
        )
    )
    return 0


def _cmd_bench(args: argparse.Namespace, writer: OutputWriter) -> int:
    from repro.service.loadtest import format_rows, run_service_suite

    def progress(row):
        status = "ok" if row["ok"] else "ERROR"
        writer.info("bench %-36s %9.3f s  %s" % (row["label"], row["cold_seconds"], status))

    payload = run_service_suite(
        sizes=args.sizes, seed=args.seed, smoke=args.smoke, progress=progress
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    writer.out(format_rows(payload))
    writer.info("wrote %s" % args.out)
    if args.json:
        writer.emit_json(payload)
    # Row errors and failed gates surface in the exit code so CI can gate on
    # `repro bench --smoke` directly.
    ok = all(row["ok"] for row in payload["rows"]) and all(
        gate["passed"] for gate in payload["gates"]
    )
    return 0 if ok else 1


def _cmd_routers(_: argparse.Namespace, writer: OutputWriter) -> int:
    for name in available_routers():
        writer.out("%-12s %s" % (name, router_description(name)))
    return 0


def _cmd_trace(args: argparse.Namespace, writer: OutputWriter) -> int:
    from repro.obs.summarize import format_summary, load_ndjson, summarize_events

    if args.trace_command == "summarize":
        rows = summarize_events(load_ndjson(args.file))
        if args.json:
            writer.emit_json(rows)
        else:
            writer.out(format_summary(rows))
        return 0
    raise SystemExit("unknown trace subcommand %r" % args.trace_command)


def _cmd_table(args: argparse.Namespace, which: str, writer: OutputWriter) -> int:
    config = ExperimentConfig(group_counts=tuple(args.groups), skew_bound_ps=args.bound_ps)
    runner = run_table1 if which == "table1" else run_table2
    rows = runner(circuits=args.circuits, config=config)
    if args.csv:
        writer.out(rows_to_csv(rows))
    else:
        title = "Table I (clustered groups)" if which == "table1" else "Table II (intermingled groups)"
        writer.out(format_table(rows, title=title))
    return 0


def _cmd_figure1(_: argparse.Namespace, writer: OutputWriter) -> int:
    result = run_figure1()
    writer.out("zero-skew tree    : wirelength %.0f, skew %.2f ps" % (result.zero_skew_wirelength, result.zero_skew_ps))
    writer.out("bounded-skew tree : wirelength %.0f, skew %.2f ps (bound %.1f ps)"
               % (result.bounded_wirelength, result.bounded_skew_ps, result.bound_ps))
    writer.out("wire saved        : %.0f" % result.wirelength_saving)
    return 0


def _cmd_figure2(_: argparse.Namespace, writer: OutputWriter) -> int:
    result = run_figure2()
    writer.out("separate per-group trees : wirelength %.0f" % result.separate_wirelength)
    writer.out("cross-group AST-DME tree : wirelength %.0f" % result.merged_wirelength)
    writer.out("reduction                : %.1f%%" % result.reduction_pct)
    return 0


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    writer = OutputWriter(
        quiet=getattr(args, "quiet", False),
        json_mode=bool(getattr(args, "json", False)),
    )
    if args.command == "generate":
        return _cmd_generate(args, writer)
    if args.command == "route":
        return _cmd_route(args, writer)
    if args.command == "optimize":
        return _cmd_optimize(args, writer)
    if args.command == "eco":
        return _cmd_eco(args, writer)
    if args.command == "batch":
        return _cmd_batch(args, writer)
    if args.command == "routers":
        return _cmd_routers(args, writer)
    if args.command == "serve":
        return _cmd_serve(args, writer)
    if args.command == "bench":
        return _cmd_bench(args, writer)
    if args.command == "trace":
        return _cmd_trace(args, writer)
    if args.command in ("table1", "table2"):
        return _cmd_table(args, args.command, writer)
    if args.command == "figure1":
        return _cmd_figure1(args, writer)
    if args.command == "figure2":
        return _cmd_figure2(args, writer)
    parser.error("unknown command %r" % args.command)  # pragma: no cover
    return 2  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro`` console script.

    Anticipated failures -- a missing instance/spec/delta file, malformed
    JSON, a bad spec or delta -- surface as one ``repro: error: ...`` line on
    stderr and exit code 2, never a traceback.  Genuine bugs still raise.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except BrokenPipeError:
        # ``repro ... | head`` closing stdout early is not an error; exit
        # quietly like any well-behaved pipeline stage (os.devnull swap keeps
        # the interpreter from re-raising EPIPE while flushing at shutdown).
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0
    except (OSError, ValueError) as exc:
        print("repro: error: %s" % exc, file=sys.stderr)
        return 2
    except KeyError as exc:
        print("repro: error: missing required field %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
