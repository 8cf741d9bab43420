"""Record result sets of the flow benchmark and compare two of them.

Record: run the benchmark once per seed and append one JSON line per run
(``{"workload", "seed", "trace", "result"}``) to a result-set file::

    python3 flowbench/compare.py record old.jsonl --seeds 1-10
    python3 flowbench/compare.py record old.jsonl --seeds 1-3 --workload eco-stream-10k --trace 1

Compare: per workload and metric, the median and quartiles of each side and a
verdict for every end-to-end metric against its bound in BENCHMARK.json::

    python3 flowbench/compare.py diff old.jsonl new.jsonl

``worse``      the new median is worse than the old one by more than the bound;
``unresolved`` either side's quartile spread (as a share of its median) is
               wider than the bound, so the runs cannot tell;
``better``     the new median is better by more than the old side's spread;
``same``       otherwise.

Per-layer metrics (traced runs) are listed without a verdict.  A workload is
also ``worse`` when any new run is incorrect or the new runs fail more ops
than the old ones, whatever its metrics read.  ``diff`` exits with 1 when
anything is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]


def load_spec(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 for a zero median)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


#: Per-run outcome fields of a result, kept beside the metric values.
OUTCOME = ("correct", "attempted", "failed")


def load(path: Path) -> Dict[Tuple[str, int], Dict[str, List[float]]]:
    """``(workload, trace) -> metric -> values`` of one result-set file.

    Each run's ``correct``, ``attempted`` and ``failed`` are kept under those
    names too, one value per run.
    """
    table: Dict[Tuple[str, int], Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            row = json.loads(line)
            result = row["result"]
            metrics = table[(row["workload"], int(row.get("trace", 0)))]
            for name in OUTCOME:
                metrics[name].append(float(result[name]))
            for name, metric in result["metrics"].items():
                metrics[name].append(float(metric["value"]))
    return table


def failures(runs: Dict[str, List[float]]) -> Tuple[int, int]:
    """``(incorrect runs, failed ops)`` of one workload's runs."""
    return sum(1 for ok in runs["correct"] if not ok), int(sum(runs["failed"]))


def verdict(old: List[float], new: List[float], bound: float, better: str) -> Tuple[str, float]:
    """The verdict and the signed change (positive = worse) of one metric."""
    _, old_median, _ = quartiles(old)
    _, new_median, _ = quartiles(new)
    change = (new_median - old_median) / abs(old_median) if old_median else 0.0
    if better == "higher":
        change = -change
    if max(spread(old), spread(new)) > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if -change > spread(old):
        return "better", change
    return "same", change


def diff(old_path: Path, new_path: Path, spec: dict) -> Tuple[List[str], bool]:
    """Report lines, and whether any workload or end-to-end metric got worse.

    A workload is worse outright when a new run is incorrect or the new runs
    fail more ops than the old ones: an absolute test, since a healthy
    baseline fails none and a change relative to 0 reads 0.
    """
    old, new = load(old_path), load(new_path)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines = []
    any_worse = False
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        lines.append("%s (trace %d): %d old runs, %d new runs" % (
            workload, trace, len(old[key]["correct"]), len(new[key]["correct"])))
        (old_bad, old_failed), (new_bad, new_failed) = failures(old[key]), failures(new[key])
        row = "  %-32s old %d incorrect runs, %d failed ops  new %d, %d" % (
            "outputs", old_bad, old_failed, new_bad, new_failed)
        if new_bad or new_failed > old_failed:
            any_worse = True
            row += "  worse"
        lines.append(row)
        for name in sorted(set(old[key]) & set(new[key]) - set(OUTCOME)):
            o_q1, o_med, o_q3 = quartiles(old[key][name])
            n_q1, n_med, n_q3 = quartiles(new[key][name])
            row = "  %-32s old %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]" % (
                name, o_med, o_q1, o_q3, n_med, n_q1, n_q3)
            if name in bounds:
                label, change = verdict(
                    old[key][name], new[key][name], bounds[name]["bound"], bounds[name]["better"])
                any_worse = any_worse or label == "worse"
                row += "  %+.1f%% (bound %.0f%%) %s" % (100.0 * change, 100.0 * bounds[name]["bound"], label)
            lines.append(row)
    return lines, any_worse


def _seeds(text: str) -> List[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def record(out: Path, seeds: List[int], workloads: List[str], trace: int, seconds: int) -> None:
    with open(out, "a", encoding="utf-8") as handle:
        for workload in workloads:
            for seed in seeds:
                proc = subprocess.run(
                    [sys.executable, str(ROOT / "flowbench" / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                    cwd=str(ROOT), stdout=subprocess.PIPE, text=True, check=True,
                )
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                handle.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, "result": result}) + "\n")
                handle.flush()
                print("%s seed %d: correct=%s failed=%d" % (workload, seed, result["correct"], result["failed"]),
                      file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the benchmark per seed into a result-set file")
    rec.add_argument("out", type=Path)
    rec.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    rec.add_argument("--workload", action="append", help="repeatable; default: every workload")
    rec.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cmp_ = sub.add_parser("diff", help="compare two result-set files")
    cmp_.add_argument("old", type=Path)
    cmp_.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.command == "record":
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        record(args.out, args.seeds, workloads, args.trace, spec["run_seconds"])
        return 0
    lines, any_worse = diff(args.old, args.new, spec)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
