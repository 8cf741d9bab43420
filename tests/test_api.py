"""Tests for the repro.api facade: registry, RunSpec/RunResult, BatchRunner."""

import json
from dataclasses import fields

import pytest

from repro.api import (
    BatchRunner,
    InstanceSpec,
    RouterSpec,
    RunResult,
    RunSpec,
    available_routers,
    get_router,
    register_router,
    run,
    run_batch,
    run_safe,
    unregister_router,
)
from repro.core.ast_dme import AstDme, AstDmeConfig
from repro.cts.bst import ExtBst
from repro.cts.dme import GreedyDme


# ----------------------------------------------------------------------
# Router registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_routers_registered(self):
        assert {"ast-dme", "ext-bst", "greedy-dme"} <= set(available_routers())

    def test_get_router_constructs_each_builtin(self):
        assert isinstance(get_router("ast-dme", {"skew_bound_ps": 5.0}), AstDme)
        assert isinstance(get_router("ext-bst", {"skew_bound_ps": 5.0}), ExtBst)
        assert isinstance(get_router("greedy-dme"), GreedyDme)

    def test_options_reach_the_config(self):
        router = get_router("ast-dme", {"skew_bound_ps": 7.5, "multi_merge": False})
        assert router.config.skew_bound_ps == 7.5
        assert router.config.multi_merge is False
        # Unspecified options keep their defaults.
        assert router.config.sdr_skew_budget == AstDmeConfig().sdr_skew_budget

    def test_get_router_accepts_a_spec(self):
        spec = RouterSpec("ext-bst", {"skew_bound_ps": 3.0})
        router = get_router(spec)
        assert isinstance(router, ExtBst)
        assert router.config.skew_bound_ps == 3.0
        assert spec.build().config.skew_bound_ps == 3.0

    def test_unknown_router_name_lists_available(self):
        with pytest.raises(KeyError, match="ast-dme"):
            get_router("no-such-router")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            get_router("ast-dme", {"bogus": 1})

    def test_spec_plus_separate_options_rejected(self):
        with pytest.raises(ValueError):
            get_router(RouterSpec("ast-dme"), {"skew_bound_ps": 1.0})

    def test_register_and_unregister_custom_router(self):
        class EchoRouter:
            def __init__(self, options):
                self.options = options

            def route(self, instance):
                raise NotImplementedError

        register_router("echo-test", EchoRouter, description="test router")
        try:
            assert "echo-test" in available_routers()
            router = get_router("echo-test", {"x": 1})
            assert router.options == {"x": 1}
            with pytest.raises(ValueError, match="already registered"):
                register_router("echo-test", EchoRouter)
            register_router("echo-test", EchoRouter, overwrite=True)
        finally:
            unregister_router("echo-test")
        assert "echo-test" not in available_routers()

    def test_per_group_bounds_shorthand(self):
        router = get_router(
            "ast-dme",
            {"per_group_bounds_ps": {"0": 5.0, 1: 20.0}, "default_bound_ps": 10.0},
        )
        constraints = router._constraints
        assert constraints is not None
        # String group keys (as produced by JSON) are coerced back to ints.
        assert constraints.bound_for(0) < constraints.bound_for(1)

    def test_per_group_bounds_default_falls_back_to_skew_bound(self):
        # Groups without an explicit bound must inherit skew_bound_ps, not
        # silently collapse to a 0 ps zero-skew constraint.
        router = get_router(
            "ast-dme", {"skew_bound_ps": 10.0, "per_group_bounds_ps": {0: 5.0}}
        )
        constraints = router._constraints
        assert constraints.bound_for(0) < constraints.bound_for(7)
        assert constraints.bound_for(7) == pytest.approx(
            get_router("ast-dme", {"skew_bound_ps": 10.0}).config.constraints().bound_for(7)
        )


# ----------------------------------------------------------------------
# Specs and JSON round-tripping
# ----------------------------------------------------------------------
class TestSpecs:
    def test_instance_spec_kinds_validate(self):
        with pytest.raises(ValueError):
            InstanceSpec(kind="nope")
        with pytest.raises(ValueError):
            InstanceSpec(kind="file")  # missing path
        with pytest.raises(ValueError):
            InstanceSpec(kind="circuit")  # missing circuit
        with pytest.raises(ValueError):
            InstanceSpec(kind="random")  # missing num_sinks
        with pytest.raises(ValueError):
            InstanceSpec.from_circuit("r1", groups=4, grouping="diagonal")

    def test_instance_spec_builds_grouped_circuit(self):
        instance = InstanceSpec.from_circuit("r1", groups=4).build()
        assert instance.num_groups == 4

    def test_instance_spec_file_applies_grouping(self, tmp_path):
        from repro.circuits.generator import random_instance
        from repro.circuits.io import save_instance

        path = tmp_path / "inst.txt"
        save_instance(random_instance("disk", num_sinks=20, seed=1), path)
        spec = InstanceSpec(kind="file", path=str(path), groups=4)
        assert spec.build().num_groups == 4
        restored = InstanceSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_instance_spec_builds_random(self):
        spec = InstanceSpec.from_random(30, seed=5, groups=3)
        a, b = spec.build(), spec.build()
        assert a.num_sinks == 30 and a.num_groups == 3
        assert a == b  # deterministic for a given spec

    def test_instance_spec_kind_family_validates(self):
        with pytest.raises(ValueError, match="num_sinks"):
            InstanceSpec(kind="family", family="blocked")
        with pytest.raises(ValueError, match="unknown generator family"):
            InstanceSpec(kind="family", family="swirl", num_sinks=10)
        with pytest.raises(ValueError, match="path"):
            InstanceSpec(kind="benchmark")

    def test_instance_spec_builds_family_deterministically(self):
        spec = InstanceSpec.from_family("blocked", 40, seed=9, groups=2)
        a, b = spec.build(), spec.build()
        assert a == b
        assert a.num_sinks == 40 and a.num_groups == 2
        assert a.has_obstacles
        restored = InstanceSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.build() == a

    def test_instance_spec_family_num_blockages_round_trips(self):
        spec = InstanceSpec.from_family("ring", 25, seed=3, num_blockages=2)
        assert spec.to_dict()["num_blockages"] == 2
        assert InstanceSpec.from_dict(spec.to_dict()) == spec
        assert len(spec.build().obstacles) == 2

    def test_instance_spec_builds_benchmark_file(self, tmp_path):
        from repro.circuits.benchmarks import blocked_instance, save_benchmark

        original = blocked_instance("bench", 20, seed=4, layout_size=5_000.0)
        path = tmp_path / "bench.cns"
        save_benchmark(original, path)
        spec = InstanceSpec.from_benchmark(path)
        loaded = spec.build()
        assert loaded.sinks == original.sinks
        assert loaded.obstacles == original.obstacles
        restored = InstanceSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_benchmark_spec_applies_grouping(self, tmp_path):
        from repro.circuits.benchmarks import blocked_instance, save_benchmark

        save_benchmark(
            blocked_instance("bench", 20, seed=4, layout_size=5_000.0),
            tmp_path / "b.cns",
        )
        spec = InstanceSpec(kind="benchmark", path=str(tmp_path / "b.cns"), groups=4)
        grouped = spec.build()
        assert grouped.num_groups == 4
        assert grouped.has_obstacles  # grouping preserves blockages

    def test_specs_are_hashable_cache_keys(self):
        spec = RunSpec(
            instance=InstanceSpec.from_circuit("r1", groups=4),
            router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
        )
        same = RunSpec.from_dict(spec.to_dict())
        cache = {spec: "hit"}
        assert cache[same] == "hit"
        assert len({spec, same}) == 1

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="group"):
            InstanceSpec.from_dict({"kind": "circuit", "circuit": "r1", "group": 8})
        with pytest.raises(ValueError, match="labels"):
            RunSpec.from_dict(
                {"instance": {"kind": "circuit", "circuit": "r1"}, "labels": "x"}
            )
        with pytest.raises(ValueError, match="option"):
            RouterSpec.from_dict({"name": "ast-dme", "option": {}})

    def test_run_spec_json_round_trip(self):
        spec = RunSpec(
            instance=InstanceSpec.from_circuit("r2", groups=6, grouping="clustered"),
            router=RouterSpec("ext-bst", {"skew_bound_ps": 12.5}),
            validate=True,
            intra_bound_ps=12.5,
            label="case-a",
        )
        restored = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_effective_bound_falls_back_to_router_option(self):
        spec = RunSpec(
            instance=InstanceSpec.from_circuit("r1"),
            router=RouterSpec("ast-dme", {"skew_bound_ps": 4.0}),
        )
        assert spec.effective_bound_ps() == 4.0
        assert RunSpec(instance=spec.instance).effective_bound_ps() == 10.0

    def test_effective_bound_uses_loosest_per_group_shorthand(self):
        spec = RunSpec(
            instance=InstanceSpec.from_circuit("r1", groups=4),
            router=RouterSpec(
                "ast-dme",
                {"skew_bound_ps": 10.0, "per_group_bounds_ps": {0: 5.0, 1: 40.0}},
            ),
        )
        assert spec.effective_bound_ps() == 40.0
        loose = RunSpec(
            instance=spec.instance,
            router=RouterSpec("ast-dme", {"default_bound_ps": 100.0}),
        )
        assert loose.effective_bound_ps() == 100.0

    def test_validation_respects_loose_per_group_bounds(self):
        # A run routed against a loose default_bound_ps must not be flagged
        # against the 10 ps fallback.
        result = run(
            RunSpec(
                instance=InstanceSpec.from_random(30, seed=4, groups=3),
                router=RouterSpec("ast-dme", {"default_bound_ps": 100.0}),
                validate=True,
            )
        )
        assert result.ok, [str(i) for i in result.issues]

    def test_run_result_json_round_trip(self):
        spec = RunSpec(
            instance=InstanceSpec.from_random(25, seed=2, groups=2),
            router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
            validate=True,
        )
        result = run(spec)
        restored = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result
        assert restored.skew == result.skew
        assert restored.wire == result.wire
        assert restored.ok is result.ok


# ----------------------------------------------------------------------
# run / run_safe
# ----------------------------------------------------------------------
class TestRun:
    def test_run_populates_summary_and_reports(self):
        result = run(
            RunSpec(
                instance=InstanceSpec.from_random(30, seed=4, groups=3),
                router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
                validate=True,
            )
        )
        assert result.num_sinks == 30
        assert result.num_groups == 3
        assert result.wirelength > 0.0
        assert result.wire.total == pytest.approx(result.wirelength)
        assert result.max_intra_group_skew_ps <= 10.0 + 1e-6
        assert result.issues == []
        assert result.ok
        assert result.route_seconds > 0.0
        assert result.total_seconds >= result.route_seconds
        assert result.routing is None

    def test_run_keep_tree_attaches_routing_but_not_to_dict(self):
        result = run(
            RunSpec(instance=InstanceSpec.from_random(10, seed=1)), keep_tree=True
        )
        assert result.routing is not None
        assert result.routing.wirelength == pytest.approx(result.wirelength)
        assert "routing" not in result.to_dict()

    def test_run_safe_captures_errors(self):
        bad = RunSpec(
            instance=InstanceSpec.from_random(10, seed=1),
            router=RouterSpec("no-such-router"),
        )
        result = run_safe(bad)
        assert result.error is not None
        assert "no-such-router" in result.error
        assert not result.ok


# ----------------------------------------------------------------------
# BatchRunner
# ----------------------------------------------------------------------
class TestBatchRunner:
    def test_empty_batch(self):
        assert BatchRunner(workers=2).run([]) == []

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            BatchRunner(workers=-1)

    def test_parallel_matches_serial_on_r1(self):
        # The acceptance criterion: workers=2 must be bit-identical to the
        # serial path on r1 with 4 intermingled groups.
        specs = [
            RunSpec(
                instance=InstanceSpec.from_circuit("r1", groups=4, grouping="intermingled"),
                router=RouterSpec(name, {"skew_bound_ps": 10.0}),
            )
            for name in ("ast-dme", "ext-bst")
        ]
        serial = BatchRunner(workers=1).run(specs)
        parallel = BatchRunner(workers=2).run(specs)
        assert [r.spec for r in parallel] == specs  # deterministic ordering
        for s, p in zip(serial, parallel):
            assert p.wirelength == s.wirelength
            assert p.skew.global_skew == s.skew.global_skew
            assert p.skew.per_group_skew == s.skew.per_group_skew
            assert p.wire == s.wire

    def test_custom_router_reaches_spawn_workers(self, tmp_path):
        # Runtime registrations must be mirrored into worker processes even
        # under the spawn start method (the macOS / Windows default).
        import subprocess
        import sys

        script = tmp_path / "spawn_batch.py"
        script.write_text(
            "import multiprocessing as mp\n"
            "from repro.api import register_router, run_batch\n"
            "from repro.api import InstanceSpec, RouterSpec, RunSpec\n"
            "from repro.cts.dme import GreedyDme\n"
            "\n"
            "def factory(options):\n"
            "    return GreedyDme()\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    mp.set_start_method('spawn', force=True)\n"
            "    register_router('spawn-test-router', factory, description='t')\n"
            "    spec = RunSpec(instance=InstanceSpec.from_random(10, seed=1),\n"
            "                   router=RouterSpec('spawn-test-router'))\n"
            "    results = run_batch([spec, spec], workers=2)\n"
            "    assert all(r.error is None for r in results), results[0].error\n"
            "    print('SPAWN-OK %.0f' % results[0].wirelength)\n"
        )
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert "SPAWN-OK" in proc.stdout

    def test_per_run_error_capture_preserves_order(self):
        good = RunSpec(instance=InstanceSpec.from_random(12, seed=3))
        bad = RunSpec(
            instance=InstanceSpec.from_random(12, seed=3),
            router=RouterSpec("no-such-router"),
        )
        results = run_batch([good, bad, good], workers=2)
        assert len(results) == 3
        assert results[0].ok and results[2].ok
        assert results[1].error is not None
        assert results[0].wirelength == results[2].wirelength

    @pytest.mark.parametrize("workers", [1, 2])
    def test_on_result_streams_every_run_once(self, workers):
        # The server-side streaming hook: every spec's (index, result) must be
        # reported exactly once, in completion order, without disturbing the
        # deterministic ordering of the returned list.
        specs = [
            RunSpec(
                instance=InstanceSpec.from_random(12, seed=seed),
                router=RouterSpec("greedy-dme"),
                label="run-%d" % seed,
            )
            for seed in (1, 2, 3)
        ]
        events = []
        results = BatchRunner(workers=workers).run(
            specs, on_result=lambda i, r: events.append((i, r))
        )
        assert sorted(i for i, _ in events) == [0, 1, 2]
        for index, result in events:
            assert result is results[index]
        assert [r.spec for r in results] == specs
        if workers <= 1:
            # The serial path completes in submission order by construction.
            assert [i for i, _ in events] == [0, 1, 2]

    def test_results_identical_with_and_without_on_result(self):
        specs = [
            RunSpec(instance=InstanceSpec.from_random(14, seed=seed))
            for seed in (4, 5)
        ]
        plain = BatchRunner(workers=2).run(specs)
        streamed = BatchRunner(workers=2).run(specs, on_result=lambda i, r: None)

        def stable(result):
            # Wall-clock timings vary run to run; everything else must not.
            d = result.to_dict()
            d.pop("route_seconds"), d.pop("total_seconds"), d.pop("stats")
            return d

        assert [stable(r) for r in streamed] == [stable(r) for r in plain]

    def test_on_result_reports_captured_errors_too(self):
        bad = RunSpec(
            instance=InstanceSpec.from_random(12, seed=3),
            router=RouterSpec("no-such-router"),
        )
        events = []
        BatchRunner(workers=1).run([bad], on_result=lambda i, r: events.append((i, r)))
        assert len(events) == 1
        assert events[0][0] == 0
        assert events[0][1].error is not None


# ----------------------------------------------------------------------
# Content-addressed cache keys
# ----------------------------------------------------------------------
class TestCacheKey:
    @staticmethod
    def _spec(**overrides):
        from repro.opt import OptConfig

        kwargs = dict(
            instance=InstanceSpec.from_random(50, seed=2, groups=4),
            router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0}),
            validate=True,
            opt=OptConfig(enabled=True),
        )
        kwargs.update(overrides)
        return RunSpec(**kwargs)

    def test_is_a_sha256_hex_digest(self):
        key = self._spec().cache_key()
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_equal_specs_share_a_key(self):
        # Two independently constructed but identical specs must collide --
        # that is what makes the key content-addressed rather than per-object.
        assert self._spec().cache_key() == self._spec().cache_key()

    def test_round_trip_preserves_the_key(self):
        spec = self._spec()
        restored = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored.cache_key() == spec.cache_key()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"instance": InstanceSpec.from_random(51, seed=2, groups=4)},
            {"instance": InstanceSpec.from_random(50, seed=3, groups=4)},
            {"router": RouterSpec("ext-bst", {"skew_bound_ps": 10.0})},
            {"router": RouterSpec("ast-dme", {"skew_bound_ps": 12.5})},
            {"validate": False},
            {"intra_bound_ps": 8.0},
            {"label": "tagged"},
            {"opt": None},
            {"locus_tolerance": 0.5},
        ],
    )
    def test_any_field_change_changes_the_key(self, overrides):
        assert self._spec(**overrides).cache_key() != self._spec().cache_key()

    def test_nested_opt_option_changes_the_key(self):
        from repro.opt import OptConfig

        base = self._spec()
        tweaked = self._spec(opt=OptConfig(enabled=True, repair_sweeps=7))
        assert tweaked.cache_key() != base.cache_key()

    def test_nested_router_option_changes_the_key(self):
        base = self._spec()
        tweaked = self._spec(
            router=RouterSpec("ast-dme", {"skew_bound_ps": 10.0, "multi_merge": False})
        )
        assert tweaked.cache_key() != base.cache_key()

    def test_instance_technology_changes_the_key(self):
        tech = {
            "unit_resistance": 0.006,
            "unit_capacitance": 0.04,
            "source_resistance": 100.0,
        }
        tweaked = self._spec(
            instance=InstanceSpec.from_random(50, seed=2, groups=4, technology=tech)
        )
        assert tweaked.cache_key() != self._spec().cache_key()
        # The spec round-trips with its technology, key intact.
        restored = RunSpec.from_dict(json.loads(json.dumps(tweaked.to_dict())))
        assert restored.cache_key() == tweaked.cache_key()

    def test_technology_free_spec_omits_the_field(self):
        # Pre-v7 serialised specs carry no technology key; the field must not
        # appear (and so not shift cache keys) unless explicitly set.
        assert "technology" not in self._spec().instance.to_dict()

    def test_spec_technology_is_applied_to_the_built_instance(self):
        tech = {
            "unit_resistance": 0.006,
            "unit_capacitance": 0.04,
            "source_resistance": 100.0,
        }
        spec = InstanceSpec.from_family("blocked", 40, seed=1, groups=2, technology=tech)
        instance = spec.build()
        assert instance.technology.unit_resistance == 0.006
        assert instance.technology.source_resistance == 100.0


# ----------------------------------------------------------------------
# Config copying regressions (the ast_config / shim bug class)
# ----------------------------------------------------------------------
#: Non-default values for choice-valued (string) and structured config fields.
def _changed_choices():
    from repro.opt import OptConfig

    return {
        "neighbor_strategy": "scalar",
        "tree_backend": "object",
        "opt": OptConfig(enabled=True, max_iterations=2),
    }


def _config_with_every_field_changed() -> AstDmeConfig:
    """An AstDmeConfig whose every field differs from the default."""
    defaults = AstDmeConfig()
    choices = _changed_choices()
    changed = {}
    for field_ in fields(AstDmeConfig):
        value = getattr(defaults, field_.name)
        if field_.name in choices:
            assert choices[field_.name] != value
            changed[field_.name] = choices[field_.name]
        elif isinstance(value, bool):
            changed[field_.name] = not value
        elif isinstance(value, float):
            changed[field_.name] = value + 1.0
        elif isinstance(value, int):
            changed[field_.name] = value + 1
        else:  # pragma: no cover - future non-numeric fields need a rule here
            raise AssertionError("unhandled field type for %s" % field_.name)
    return AstDmeConfig(**changed)


class TestConfigPropagation:
    def test_experiment_ast_config_preserves_every_field(self):
        from repro.experiments.runner import ExperimentConfig

        base = _config_with_every_field_changed()
        config = ExperimentConfig(skew_bound_ps=3.25, router_config=base)
        derived = config.ast_config()
        for field_ in fields(AstDmeConfig):
            expected = 3.25 if field_.name == "skew_bound_ps" else getattr(base, field_.name)
            assert getattr(derived, field_.name) == expected, field_.name

    def test_ext_bst_shim_preserves_every_field(self):
        base = _config_with_every_field_changed()
        shim = ExtBst(skew_bound_ps=2.5, config=base)
        for field_ in fields(AstDmeConfig):
            if field_.name == "skew_bound_ps":
                assert shim.config.skew_bound_ps == 2.5
            elif field_.name == "allow_snaking":
                assert shim.config.allow_snaking is True  # forced for exactness
            else:
                assert getattr(shim.config, field_.name) == getattr(base, field_.name), field_.name

    def test_greedy_dme_shim_preserves_every_field(self):
        base = _config_with_every_field_changed()
        shim = GreedyDme(config=base)
        for field_ in fields(AstDmeConfig):
            if field_.name == "skew_bound_ps":
                assert shim.config.skew_bound_ps == 0.0
            elif field_.name == "allow_snaking":
                assert shim.config.allow_snaking is True
            else:
                assert getattr(shim.config, field_.name) == getattr(base, field_.name), field_.name

    def test_experiment_router_specs_round_trip_through_registry(self):
        from repro.experiments.runner import ExperimentConfig

        config = ExperimentConfig(skew_bound_ps=6.0)
        ast = get_router(config.ast_spec())
        baseline = get_router(config.baseline_spec())
        assert isinstance(ast, AstDme) and ast.config == config.ast_config()
        assert isinstance(baseline, ExtBst)
        assert baseline.config.skew_bound_ps == 6.0


class TestRunResultStats:
    """The shared resource-measurement path (RunResult.stats / repro.obs.metrics)."""

    @pytest.fixture(scope="class")
    def result(self):
        return run(RunSpec(instance=InstanceSpec.from_random(80, seed=2, groups=2)))

    def test_run_populates_measurements(self, result):
        stats = result.stats
        for key in ("wall_seconds", "peak_rss_mb", "route_seconds", "delay_seconds"):
            assert key in stats, key
        assert stats["wall_seconds"] > 0.0
        assert stats["peak_rss_mb"] > 0.0
        assert stats["wall_seconds"] >= stats["route_seconds"] > 0.0

    def test_stage_seconds_come_from_the_router(self, result):
        # The construction stages the router timed are surfaced verbatim.
        for key in ("select_seconds", "merge_seconds", "embed_seconds"):
            assert result.stats[key] > 0.0

    def test_stats_round_trip_serialisation(self, result):
        data = json.loads(json.dumps(result.to_dict()))
        assert RunResult.from_dict(data).stats == result.stats

    def test_stats_excluded_from_equality(self):
        from dataclasses import replace

        spec = RunSpec(instance=InstanceSpec.from_random(40, seed=9))
        a, b = run(spec), run(spec)
        # The timing columns have always varied run to run; once those are
        # normalised, the differing stats dicts must not break equality.
        assert a.stats["wall_seconds"] != b.stats["wall_seconds"]
        assert replace(a, route_seconds=0.0, total_seconds=0.0) == replace(
            b, route_seconds=0.0, total_seconds=0.0
        )

    def test_validate_stage_timed_only_when_requested(self):
        with_validate = run(
            RunSpec(instance=InstanceSpec.from_random(40, seed=9), validate=True)
        )
        without = run(RunSpec(instance=InstanceSpec.from_random(40, seed=9)))
        assert "validate_seconds" in with_validate.stats
        assert "validate_seconds" not in without.stats

    def test_run_safe_errors_still_measure(self):
        result = run_safe(
            RunSpec(
                instance=InstanceSpec.from_random(10, seed=1),
                router=RouterSpec("ast-dme", {"tree_backend": "no-such-backend"}),
            )
        )
        assert result.error is not None
        assert result.stats["wall_seconds"] > 0.0
        assert result.stats["peak_rss_mb"] > 0.0

    def test_peak_rss_mb_is_positive_and_stable(self):
        from repro.obs.metrics import peak_rss_mb

        first = peak_rss_mb()
        second = peak_rss_mb()
        assert first > 0.0
        assert second >= first  # a high-water mark never shrinks

    def test_service_stats_payload_reports_rss(self):
        from repro.service.server import RoutingService, ServiceConfig

        service = RoutingService(ServiceConfig(port=0))
        try:
            payload = service.stats_payload()
            assert payload["resources"]["peak_rss_mb"] > 0.0
        finally:
            service.close()
