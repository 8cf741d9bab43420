"""Tests for ``repro bench``: the service load test and its v8 payload, and
the routing gates its former smoke suite asserted, now on plain runs."""

from __future__ import annotations

import json

import pytest

from repro.api.registry import RouterSpec
from repro.api.runner import run
from repro.api.spec import InstanceSpec, RunSpec
from repro.cli import build_parser, main
from repro.opt import BUFFERED_PASSES, OptConfig
from repro.service.loadtest import SCHEMA, format_rows, run_service_suite
from tests.reference_neighbors import use_selector
from tests.test_cts_strategy_equivalence import tree_signature

#: Sink count and seed of the routing smoke rows.
SMOKE_N = 60
SMOKE_SEED = 1

#: Run fields the strategy rows must agree on exactly.
IDENTITY_KEYS = ("wirelength", "global_skew_ps", "max_intra_group_skew_ps", "num_nodes")


@pytest.fixture(scope="module")
def service_payload():
    """One tiny load test shared by the payload and gate tests."""
    return run_service_suite(sizes=(40,), smoke=True)


def _smoke_specs():
    """The routing smoke rows by label: strict single-merge greedy-dme once
    per pair-selection engine, and the repaired blocked scenario through every
    router, the cap-limited buffered pipeline and the h-tree trunk hybrid."""
    def blocked(groups):
        return InstanceSpec.from_family("blocked", SMOKE_N, seed=SMOKE_SEED, groups=groups)

    specs = {}
    for strategy in ("scalar", "rebuild", "incremental"):
        specs["greedy-dme-single-%s" % strategy] = (
            strategy,
            RunSpec(
                instance=InstanceSpec.from_random(SMOKE_N, seed=SMOKE_SEED),
                router=RouterSpec("greedy-dme", {"multi_merge": False}),
            ),
        )
    for router, groups in (("ast-dme", 8), ("greedy-dme", 1), ("ext-bst", 1)):
        specs["%s-blocked" % router] = (
            "incremental",
            RunSpec(
                instance=blocked(groups),
                router=RouterSpec(router, {"skew_bound_ps": 10.0}),
                opt=OptConfig(enabled=True),
            ),
        )
    specs["ast-dme-buffered-blocked"] = (
        "incremental",
        RunSpec(
            instance=blocked(8),
            router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
            validate=True,
            opt=OptConfig(enabled=True, passes=BUFFERED_PASSES, max_cap=8000.0),
        ),
    )
    specs["h-tree-blocked"] = (
        "incremental",
        RunSpec(
            instance=blocked(8),
            router=RouterSpec("h-tree", {"skew_bound_ps": 10.0, "trunk_levels": 2}),
            validate=True,
            opt=OptConfig(enabled=True),
        ),
    )
    return specs


@pytest.fixture(scope="module")
def smoke_rows():
    """Every routing smoke row, routed once with its selection engine."""
    rows = {}
    for label, (strategy, spec) in _smoke_specs().items():
        with pytest.MonkeyPatch.context() as patch:
            use_selector(patch, strategy)
            rows[label] = run(spec, keep_tree=True)
        assert rows[label].error is None, (label, rows[label].error)
    return rows


class TestRunSuite:
    """The strategy-identity and repair gates of the routing smoke rows."""

    def test_gates_identical_results(self, smoke_rows):
        baseline = smoke_rows["greedy-dme-single-scalar"]
        for label in ("greedy-dme-single-incremental", "greedy-dme-single-rebuild"):
            for key in IDENTITY_KEYS:
                assert getattr(smoke_rows[label], key) == getattr(baseline, key), (label, key)

    def test_repair_gates_pass(self, smoke_rows):
        blocked = [row for label, row in smoke_rows.items() if label.endswith("-blocked")]
        assert len(blocked) == 5
        pre = sum(row.opt.skew_violations_before for row in blocked)
        post = sum(row.opt.skew_violations_after for row in blocked)
        # The routers leave violations on this instance; the repair must
        # eliminate at least 90% of them.
        assert pre > 0
        assert post <= 0.1 * pre, (pre, post)

    def test_single_merge_strategies_agree_exactly(self, smoke_rows):
        reference = tree_signature(smoke_rows["greedy-dme-single-scalar"].routing)
        for strategy in ("rebuild", "incremental"):
            routing = smoke_rows["greedy-dme-single-%s" % strategy].routing
            assert tree_signature(routing) == reference, strategy


class TestV7BufferedSchema:
    """The buffered smoke row: cap-limited insertion on the blocked scenario."""

    def test_buffered_row_inserts_and_validates(self, smoke_rows):
        row = smoke_rows["ast-dme-buffered-blocked"]
        assert sum(outcome.buffers_inserted for outcome in row.opt.passes) >= 1
        assert row.routing.tree.num_buffers() >= 1
        assert row.issues == []


class TestServiceSuite:
    """The service load test (``repro bench``)."""

    def test_payload_schema(self, service_payload):
        assert SCHEMA == "repro-bench/v8"
        assert set(service_payload) == {"schema", "smoke", "seed", "sizes", "rows", "gates"}
        assert service_payload["schema"] == SCHEMA
        assert service_payload["smoke"] is True
        assert service_payload["seed"] == 1
        assert service_payload["sizes"] == [40]
        json.dumps(service_payload)

    def test_row_measures_hot_path(self, service_payload):
        (row,) = service_payload["rows"]
        assert row["kind"] == "service"
        assert row["ok"], row["error"]
        assert row["hits"] == row["requests"] - 1  # everything after the cold miss
        assert row["hit_rate"] >= 0.9
        assert row["identical_results"] is True
        assert row["requests_per_sec"] > 0.0
        assert 0.0 < row["p50_ms"] <= row["p99_ms"]

    def test_gates_pass(self, service_payload):
        gates = [g for g in service_payload["gates"] if g["kind"] == "service"]
        assert len(gates) == 1
        assert gates[0]["passed"], gates[0]
        # Smoke mode waives the latency threshold, never the hit-rate bar.
        assert gates[0]["speedup_threshold"] == 0.0
        assert gates[0]["min_hit_rate"] == 0.9

    def test_format_rows_has_service_table(self, service_payload):
        text = format_rows(service_payload)
        assert "service-n40" in text
        assert "hit rate" in text
        assert "PASS" in text


class TestCli:
    def test_bench_arguments(self):
        args = build_parser().parse_args(
            ["bench", "--smoke", "--sizes", "60", "120", "--seed", "3", "--out", "B.json"]
        )
        assert args.command == "bench"
        assert args.smoke is True
        assert args.sizes == [60, 120]
        assert args.seed == 3
        assert args.out == "B.json"
        assert args.json is False
        assert build_parser().parse_args(["bench"]).out == "BENCH_service.json"

    @pytest.mark.parametrize(
        "removed",
        [["--suite", "scaling"], ["--profile"], ["--trace-out", "x"], ["--eco-sizes", "1"]],
        ids=["suite", "profile", "trace-out", "eco-sizes"],
    )
    def test_removed_bench_flags_rejected(self, removed, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--smoke"] + removed)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: %s" % " ".join(removed) in capsys.readouterr().err

    def test_bench_smoke_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_smoke.json"
        assert main(["bench", "--smoke", "--sizes", "40", "--out", str(out)]) == 0
        with open(out, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["schema"] == "repro-bench/v8"
        assert payload["smoke"] is True
        assert payload["sizes"] == [40]
        assert all(row["ok"] and row["identical_results"] for row in payload["rows"])
        assert all(gate["passed"] for gate in payload["gates"])
        captured = capsys.readouterr()
        # The row table is the report (stdout); "wrote FILE" is a progress
        # note on stderr.
        assert "service-n40" in captured.out
        assert "wrote %s" % out in captured.err

    def test_bench_service_smoke_cli(self, tmp_path, capsys, monkeypatch):
        """``--json`` prints the written payload; a failed gate exits 1."""
        import repro.service.loadtest as loadtest

        out = tmp_path / "BENCH_service.json"
        real = loadtest.run_service_suite

        def failing_gate(**kwargs):
            payload = real(**kwargs)
            payload["gates"][0]["passed"] = False
            return payload

        monkeypatch.setattr(loadtest, "run_service_suite", failing_gate)
        assert main(["bench", "--smoke", "--sizes", "40", "--json", "--out", str(out)]) == 1
        # --json keeps stdout pure: the document and nothing else.
        printed = json.loads(capsys.readouterr().out)
        with open(out, "r", encoding="utf-8") as handle:
            assert json.load(handle) == printed
        assert printed["gates"][0]["passed"] is False
