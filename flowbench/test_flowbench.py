"""Smoke tests of the flow benchmark: tiny instances, every workload, both modes.

Run with ``python -m pytest flowbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from flowbench.run import ROOT, end_to_end, load_library, measure

load_library()

from flowbench.compare import diff, load_spec, verdict  # noqa: E402
from flowbench.workloads import WORKLOADS, FlowOutcome  # noqa: E402

SPEC = load_spec()
#: Small enough for a few seconds per workload, large enough to exercise the
#: merge passes, the blockage detours and a non-trivial ECO cone.
SCALE = {"uniform-50k": 0.01, "blocked-buffered-8k": 0.01, "eco-stream-10k": 0.01}
GEOMETRY_COUNTS = (
    "geometry.detour_calls",
    "geometry.route_calls",
    "geometry.blocks_segment_calls",
    "geometry.blocks_point_calls",
)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def results(request, tmp_path_factory):
    name = request.param
    out = tmp_path_factory.mktemp("trace") / "spans.ndjson"
    plain = measure(name, seed=3, seconds=0.0, trace=False, scale=SCALE[name], imports=1, setups=1)
    traced = measure(
        name, seed=3, seconds=0.0, trace=True, scale=SCALE[name], imports=1, setups=1, trace_out=out
    )
    return name, plain, traced, out


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_metric_appears_with_its_unit(results):
    _, plain, traced, _ = results
    for mode, result, declared in ((0, plain, "end_to_end"), (1, traced, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[declared]}
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert got == expected, "trace %d" % mode
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for metric in plain["metrics"].values():
        assert metric["value"] > 0


def test_no_op_fails(results):
    _, plain, traced, _ = results
    for result in (plain, traced):
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert result["failed"] == 0
    assert traced["metrics"]["error_rate"]["value"] == 0


def test_geometry_is_idle_without_blockages(results):
    name, _, traced, _ = results
    counts = [traced["metrics"][c]["value"] for c in GEOMETRY_COUNTS]
    if name == "blocked-buffered-8k":
        assert all(c > 0 for c in counts)
    else:
        assert counts == [0, 0, 0, 0]


def test_layer_self_times_and_residual_close_the_books(results):
    _, _, traced, _ = results
    metrics = {name: m["value"] for name, m in traced["metrics"].items()}
    layers = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert layers + metrics["other_s"] == pytest.approx(metrics["traced_flow_s"], abs=1e-9)
    assert metrics["other_s"] >= -1e-9
    assert metrics["opt.glue_s"] >= -1e-9
    assert "trace_overhead_frac" in metrics


def test_spans_are_written_as_linked_ndjson(results):
    _, _, _, out = results
    spans = [json.loads(line) for line in out.read_text().splitlines()]
    assert spans
    ids = {span["span_id"] for span in spans}
    for span in spans:
        assert span["end"] >= span["start"]
        assert span["parent_id"] is None or span["parent_id"] in ids
        assert set(span) == {"span_id", "parent_id", "name", "layer", "start", "end"}


def test_failed_flows_report_no_wirelength():
    failed = FlowOutcome(seconds=0.5, attempted=1, failed=1, problems=["RuntimeError: boom"])
    assert "wirelength_um" not in end_to_end([failed], setup_s=1.0)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "flowbench", tmp_path / "flowbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:],
         "--workload", "uniform-50k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _rows(path, workload, values, failed=0):
    with open(path, "w") as handle:
        for seed, value in enumerate(values):
            result = {"correct": not failed, "attempted": 1, "failed": failed,
                      "metrics": {"flow_s": {"value": value, "unit": "s"}}}
            handle.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")


def test_compare_flags_worse_and_unresolved(tmp_path):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "flow_s")
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95]
    assert verdict(steady, [v * (1 + 2 * bound) for v in steady], bound, "lower")[0] == "worse"
    assert verdict(steady, [v * 0.5 for v in steady], bound, "lower")[0] == "better"
    assert verdict(steady, steady, bound, "lower")[0] == "same"
    noisy = [5.0, 15.0, 8.0, 20.0, 10.0, 3.0]
    assert verdict(steady, noisy, bound, "lower")[0] == "unresolved"
    _rows(tmp_path / "old.jsonl", "uniform-50k", steady)
    _rows(tmp_path / "new.jsonl", "uniform-50k", [v * (1 + 2 * bound) for v in steady])
    lines, any_worse = diff(tmp_path / "old.jsonl", tmp_path / "new.jsonl", SPEC)
    assert any_worse and any("worse" in line for line in lines)


def test_compare_flags_failed_runs_despite_faster_metrics(tmp_path):
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95]
    _rows(tmp_path / "old.jsonl", "uniform-50k", steady)
    _rows(tmp_path / "new.jsonl", "uniform-50k", [v * 0.5 for v in steady], failed=1)
    lines, any_worse = diff(tmp_path / "old.jsonl", tmp_path / "new.jsonl", SPEC)
    assert any_worse
    assert any(line.split()[0] == "outputs" and line.endswith("worse") for line in lines)
    assert any(line.split()[0] == "flow_s" and line.endswith("better") for line in lines)
