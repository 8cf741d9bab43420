"""Run one workload of the CTS flow benchmark and print its metrics.

Usage, from the repository root::

    python3 flowbench/run.py --workload uniform-50k --seed 1 --seconds 15 --trace 0

One process, one thread, a closed loop of one caller: each op starts when the
previous one has returned.  The run first times ``import repro`` in several
fresh interpreters and the workload's set-up (the base route on
``eco-stream-10k``) several times, and reports the sum of the two medians as
``setup_s``.  Then it runs flows until ``--seconds`` have passed (at least the
workload's minimum).  With ``--trace 1`` it alternates untraced and traced
flows of the same input, checks that both give identical outputs, and reports
the per-layer metrics of the traced flow, writing its spans as NDJSON.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 2,
with no result printed, when the library cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]

#: How many fresh interpreters import the library, for the median import time.
IMPORTS = 3
#: How many times a run sets up its workload, for the median set-up time.
SETUPS = 3


def load_library(root: Path = ROOT) -> None:
    """Import ``repro`` from ``<root>/src``, and nothing else.

    Raises ImportError when the sources are missing, or when another copy of
    the package would be measured instead.
    """
    src = root / "src"
    for path in (str(root), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    location = Path(repro.__file__).resolve()
    if src.resolve() not in location.parents:
        raise ImportError("repro imported from %s, not from %s" % (location, src))


def time_import() -> float:
    """Wall time of ``import repro`` in a fresh interpreter.

    The child times the import itself, so the interpreter's own start-up,
    which no change to the library can move, stays out of the figure.
    """
    code = (
        "import sys, time; sys.path.insert(0, %r); start = time.perf_counter(); "
        "import repro; print(repr(time.perf_counter() - start))" % str(ROOT / "src")
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=str(ROOT),
        check=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _closed_loop(seconds: float, minimum: int, op):
    """``op(0)``, ``op(1)``, ... until ``seconds`` pass and ``minimum`` ops are done."""
    done = []
    start = time.perf_counter()
    while len(done) < minimum or time.perf_counter() - start < seconds:
        done.append(op(len(done)))
    return done


def _problems(flows) -> List[str]:
    """Every failed check, plus any flow whose outputs differ from the others'.

    Flows of the same input, traced or not, must agree bit for bit on
    wirelength and skew.
    """
    problems = [p for flow in flows for p in flow.problems]
    for instance in sorted({flow.instance for flow in flows}):
        outputs = {f.outputs for f in flows if f.instance == instance and not f.failed}
        if len(outputs) > 1:
            problems.append("outputs differ between flows of input %d: %s" % (instance, sorted(outputs)))
    return problems


def end_to_end(flows, setup_s: float) -> Dict[str, dict]:
    """The end-to-end metrics; ``wirelength_um`` only if some flow succeeded."""
    ops = [s for flow in flows for s in flow.op_seconds] or [f.seconds for f in flows]
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "flow_s": _metric(statistics.median(f.seconds for f in flows), "s"),
        "delta_p50_ms": _metric(1000.0 * percentile(ops, 50), "ms"),
        "delta_p90_ms": _metric(1000.0 * percentile(ops, 90), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }
    good = [f for f in flows if not f.failed]
    if good:
        metrics["wirelength_um"] = _metric(good[0].wirelength_um, "um")
    return metrics


def per_layer(recorder, traced, plain_flows, traced_flows) -> Dict[str, dict]:
    """Per-layer metrics of one traced flow, plus the run's residuals."""
    self_s = recorder.self_seconds
    total_s = recorder.total_seconds
    calls = recorder.calls

    def seconds(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    passes = ("BufferInsertPass.run", "ReembedPass.run", "SkewRepairPass.run", "WirelengthRecoveryPass.run")
    opt_total = total_s.get("optimize_routing", 0.0)
    values = {
        "circuits.build_s": seconds("InstanceSpec.build"),
        "core.route_s": seconds("AstDme.route"),
        "core.select_s": seconds("MergePairSelector.pairs_for_pass_arrays"),
        "core.select_calls": count("MergePairSelector.pairs_for_pass_arrays"),
        "core.plan_s": seconds("plan_merges"),
        "core.resolve_s": seconds("resolve_split"),
        "core.resolve_calls": count("resolve_split"),
        "cts.materialize_s": seconds("ClockTree.add_internal", "ClockTree.add_sink"),
        "cts.nodes_added": count("ClockTree.add_internal", "ClockTree.add_sink"),
        "cts.as_arena_s": seconds("ClockTree.as_arena"),
        "cts.as_arena_calls": count("ClockTree.as_arena"),
        "cts.copy_subtree_s": seconds("ClockTree.copy_subtree_from"),
        "delay.elmore_s": seconds("sink_delays", "elmore_delays", "subtree_capacitances"),
        "delay.elmore_calls": count("sink_delays", "elmore_delays", "subtree_capacitances"),
        "delay.rc_oracle_s": seconds("oracle_delays"),
        "geometry.detour_s": seconds("ObstacleSet.detour_distance"),
        "geometry.detour_calls": count("ObstacleSet.detour_distance"),
        "geometry.route_s": seconds("ObstacleSet.route"),
        "geometry.route_calls": count("ObstacleSet.route"),
        "geometry.blocks_segment_calls": count("ObstacleSet.blocks_segment"),
        "geometry.blocks_point_calls": count("ObstacleSet.blocks_point"),
        "opt.s": opt_total,
        "opt.buffer-insert_s": total_s.get(passes[0], 0.0),
        "opt.reembed_s": total_s.get(passes[1], 0.0),
        "opt.skew-repair_s": total_s.get(passes[2], 0.0),
        "opt.wirelength-recovery_s": total_s.get(passes[3], 0.0),
        "opt.glue_s": opt_total - sum(total_s.get(p, 0.0) for p in passes),
        "analysis.skew_s": seconds("skew_report"),
        "analysis.wire_s": seconds("wirelength_report"),
        "analysis.validate_s": seconds("validate_result"),
        "eco.reroute_s": seconds("eco_reroute"),
    }
    for name in (
        "core.passes",
        "opt.iterations",
        "opt.reverted",
        "opt.buffers_inserted",
        "opt.violations_pre",
        "opt.violations_post",
        "eco.cone_nodes",
        "eco.rebuilt_nodes",
        "eco.reused_nodes",
        "eco.frontier_subtrees",
    ):
        values[name] = traced.counts.get(name, 0)
    for layer, layer_s in recorder.layer_self_seconds().items():
        values["%s.self_s" % layer] = layer_s
    plain_s = statistics.median(f.seconds for f in plain_flows)
    traced_s = statistics.median(f.seconds for f in traced_flows)
    values["traced_flow_s"] = traced.seconds
    values["other_s"] = traced.seconds - recorder.root_seconds
    values["trace_overhead_frac"] = traced_s / plain_s - 1.0
    values["max_intra_skew_ps"] = traced.max_intra_skew_ps
    flows = list(plain_flows) + list(traced_flows)
    values["error_rate"] = sum(f.failed for f in flows) / max(1, sum(f.attempted for f in flows))
    return {name: _metric(value, _unit(name)) for name, value in values.items()}


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ps"):
        return "ps"
    if name.endswith("_frac") or name == "error_rate":
        return "frac"
    return "count"


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    trace_out: Optional[Path] = None,
    imports: int = IMPORTS,
    setups: int = SETUPS,
) -> dict:
    """Set up, run and check one workload; return the result object."""
    from flowbench.workloads import make_workload

    workload = make_workload(workload_name, scale)
    import_s = statistics.median(time_import() for _ in range(imports))
    setup_s = import_s + statistics.median(workload.setup(seed) for _ in range(setups))
    minimum = workload.min_flows
    if not trace:
        flows = _closed_loop(seconds, minimum, workload.flow)
        problems = _problems(flows)
        metrics = end_to_end(flows, setup_s)
    else:
        from flowbench.spans import Recorder, install, write_ndjson

        def pair(index):
            plain = workload.flow(index)
            recorder = Recorder()
            with install(recorder):
                origin = time.perf_counter()
                traced = workload.flow(index)
            return plain, traced, recorder, origin

        pairs = _closed_loop(seconds, 1, pair)
        plain_flows = [p[0] for p in pairs]
        traced_flows = [p[1] for p in pairs]
        flows = plain_flows + traced_flows
        problems = _problems(flows)
        # The traced flow whose time is the median stands for the run.
        _, traced, recorder, origin = sorted(pairs, key=lambda p: p[1].seconds)[(len(pairs) - 1) // 2]
        for missing in recorder.missing:
            # A renamed or removed target leaves its metrics at 0; the
            # outputs are still checked, so this is no failure.
            print("flowbench: not traced, no such target: %s" % missing, file=sys.stderr)
        metrics = per_layer(recorder, traced, plain_flows, traced_flows)
        path = trace_out or ROOT / ".flowbench" / ("trace-%s.ndjson" % workload_name)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_ndjson(path, recorder, origin)
    for problem in problems[:20]:
        print("flowbench: %s" % problem, file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(f.attempted for f in flows),
        "failed": sum(f.failed for f in flows),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_library()
    except ImportError as exc:
        print("flowbench: cannot import the library from %s: %s" % (ROOT / "src", exc), file=sys.stderr)
        return 2
    from flowbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
