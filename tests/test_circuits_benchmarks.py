"""Tests for benchmark ingestion (ISPD-CNS-style files) and generator families."""

import numpy as np
import pytest

from repro.circuits import benchmarks
from repro.circuits.benchmarks import (
    BenchmarkFormatError,
    GENERATOR_FAMILIES,
    available_families,
    blocked_instance,
    clustered_instance,
    generate_instance,
    load_benchmark,
    ring_instance,
    save_benchmark,
)
from repro.circuits.io import load_instance, save_instance
from repro.geometry.obstacles import Rect
from repro.geometry.point import Point

BENCH_TEXT = """\
# a tiny hand-written CNS benchmark
num sink 3
num blockage 1
source 500.0 500.0
sink 0 100.0 200.0 35.0 1
sink 1 900.0 200.0 42.5
sink 2 500.0 900.0 18.0 0
blockage 200.0 550.0 800.0 800.0
"""


class TestLoadBenchmark:
    def test_parses_sinks_blockages_source(self, tmp_path):
        path = tmp_path / "tiny.cns"
        path.write_text(BENCH_TEXT)
        instance = load_benchmark(path)
        assert instance.name == "tiny"
        assert instance.num_sinks == 3
        assert instance.source == Point(500.0, 500.0)
        assert instance.obstacles == (Rect(200.0, 550.0, 800.0, 800.0),)
        assert instance.sinks[0].group == 1
        assert instance.sinks[1].group == 0  # group defaults to 0
        assert instance.sinks[1].cap == pytest.approx(42.5)

    def test_name_override(self, tmp_path):
        path = tmp_path / "tiny.cns"
        path.write_text(BENCH_TEXT)
        assert load_benchmark(path, name="custom").name == "custom"

    @pytest.mark.parametrize(
        "mutation, match",
        [
            (lambda t: t.replace("num sink 3", "num sink 4"), "declares 4 sinks"),
            (lambda t: t.replace("num blockage 1", "num blockage 2"), "declares 2 blockage"),
            (lambda t: t.replace("source 500.0 500.0\n", ""), "missing a source"),
            (lambda t: t + "source 1.0 1.0\n", "duplicate source"),
            (lambda t: t + "wires 4\n", "unrecognised keyword"),
            (lambda t: t.replace("sink 0 100.0", "sink 0 abc"), "could not convert"),
            (lambda t: t.replace("sink 0 100.0 200.0 35.0 1\n", "sink 0 100.0\n"), "expected 'sink"),
            (lambda t: t.replace("blockage 200.0 550.0 800.0 800.0", "blockage 1 2 3"), "expected 'blockage"),
            (lambda t: t.replace("sink 2 500.0 900.0 18.0 0", "sink 2 500.0 700.0 18.0 0"), "inside a blockage"),
        ],
    )
    def test_malformed_files_fail_loudly(self, tmp_path, mutation, match):
        path = tmp_path / "bad.cns"
        path.write_text(mutation(BENCH_TEXT))
        with pytest.raises(BenchmarkFormatError, match=match):
            load_benchmark(path)

    def test_empty_file_fails(self, tmp_path):
        path = tmp_path / "empty.cns"
        path.write_text("")
        with pytest.raises(BenchmarkFormatError):
            load_benchmark(path)

    def test_format_error_is_a_value_error(self):
        assert issubclass(BenchmarkFormatError, ValueError)


class TestBenchmarkRoundTrip:
    def test_parse_write_parse_equality(self, tmp_path):
        original = tmp_path / "tiny.cns"
        original.write_text(BENCH_TEXT)
        first = load_benchmark(original)
        copy_dir = tmp_path / "copy"
        copy_dir.mkdir()
        save_benchmark(first, copy_dir / "tiny.cns")
        second = load_benchmark(copy_dir / "tiny.cns")
        assert first == second

    def test_generated_instance_round_trips(self, tmp_path):
        instance = blocked_instance("rt", 40, seed=8, layout_size=5_000.0)
        save_benchmark(instance, tmp_path / "rt.cns")
        loaded = load_benchmark(tmp_path / "rt.cns")
        assert loaded.sinks == instance.sinks
        assert loaded.obstacles == instance.obstacles
        assert loaded.source == instance.source

    def test_v1_instance_format_round_trips_blockages(self, tmp_path):
        instance = blocked_instance("v1rt", 25, seed=2, layout_size=5_000.0)
        save_instance(instance, tmp_path / "v1.txt")
        loaded = load_instance(tmp_path / "v1.txt")
        assert loaded == instance


class TestGeneratorFamilies:
    def test_registry_and_availability(self):
        assert available_families() == sorted(GENERATOR_FAMILIES)
        assert {"blocked", "clustered", "ring"} <= set(available_families())

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown generator family"):
            generate_instance("swirl", "x", 10, seed=0)

    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_same_seed_same_instance(self, family):
        a = generate_instance(family, "det", 60, seed=13, layout_size=8_000.0)
        b = generate_instance(family, "det", 60, seed=13, layout_size=8_000.0)
        assert a == b

    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_different_seeds_differ(self, family):
        a = generate_instance(family, "det", 60, seed=1, layout_size=8_000.0)
        b = generate_instance(family, "det", 60, seed=2, layout_size=8_000.0)
        assert a != b

    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_sinks_inside_layout_and_outside_blockages(self, family):
        kwargs = {} if family == "blocked" else {"num_blockages": 3}
        instance = generate_instance(family, "f", 80, seed=5, layout_size=9_000.0, **kwargs)
        obstacles = instance.obstacle_set()
        assert len(obstacles) >= 1
        for sink in instance.sinks:
            assert 0.0 <= sink.location.x <= 9_000.0
            assert 0.0 <= sink.location.y <= 9_000.0
            assert not obstacles.blocks_point(sink.location)
        assert not obstacles.blocks_point(instance.source)

    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_array_query_keeps_the_one_by_one_draws(self, family, monkeypatch):
        """Each draw is tested in one array query; the per-point loop it
        replaced accepts the same points from the same random draws, re-draws
        included."""

        def one_by_one(rng, num, obstacles, draw):
            points = []
            while len(points) < num:
                for x, y in draw(num - len(points)):
                    candidate = Point(float(x), float(y))
                    if not obstacles.blocks_point(candidate):
                        points.append(candidate)
                        if len(points) == num:
                            break
            return np.array([(p.x, p.y) for p in points])  # _free_points' (num, 2) rows

        kwargs = {} if family == "blocked" else {"num_blockages": 6}
        fast = generate_instance(family, "f", 300, seed=5, layout_size=9_000.0, **kwargs)
        monkeypatch.setattr(benchmarks, "_free_points", one_by_one)
        assert generate_instance(family, "f", 300, seed=5, layout_size=9_000.0, **kwargs) == fast

    def test_blocked_default_blockage_count_scales(self):
        small = blocked_instance("s", 30, seed=1)
        large = blocked_instance("l", 400, seed=1)
        assert 2 <= len(small.obstacles) <= len(large.obstacles) <= 12

    def test_ring_sinks_form_an_annulus(self):
        instance = ring_instance("ring", 100, seed=3, layout_size=10_000.0)
        centre = Point(5_000.0, 5_000.0)
        for sink in instance.sinks:
            radius = ((sink.location.x - centre.x) ** 2 + (sink.location.y - centre.y) ** 2) ** 0.5
            assert 0.3 * 10_000.0 - 1e-6 <= radius <= 0.45 * 10_000.0 + 1e-6

    def test_ring_invalid_radii_raise(self):
        with pytest.raises(ValueError, match="radii"):
            ring_instance("r", 10, seed=1, radii=(0.6, 0.7))

    def test_clustered_sinks_cluster(self):
        from repro.circuits.generator import random_instance

        instance = clustered_instance("c", 200, seed=7, layout_size=10_000.0)
        # Spatial clustering shows up as a much smaller average nearest-
        # neighbour distance than a uniform instance of the same size.
        uniform = random_instance("u", 200, seed=7, layout_size=10_000.0)

        def mean_nn(instance):
            points = [s.location for s in instance.sinks]
            total = 0.0
            for p in points:
                total += min(p.distance_to(q) for q in points if q is not p)
            return total / len(points)

        assert mean_nn(instance) < 0.5 * mean_nn(uniform)

    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_invalid_arguments_raise(self, family):
        factory = GENERATOR_FAMILIES[family]
        with pytest.raises(ValueError):
            factory("x", 0, seed=1)
        with pytest.raises(ValueError):
            factory("x", 5, seed=1, num_groups=0)
        with pytest.raises(ValueError):
            factory("x", 5, seed=1, layout_size=-1.0)

    def test_round_robin_groups(self):
        instance = blocked_instance("g", 30, seed=4, num_groups=3)
        assert instance.num_groups == 3
        assert instance.group_sizes() == {0: 10, 1: 10, 2: 10}

    def test_congested_layout_fails_loudly(self):
        with pytest.raises(ValueError, match="disjoint blockages"):
            blocked_instance("x", 10, seed=1, num_blockages=200)
