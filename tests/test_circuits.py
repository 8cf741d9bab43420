"""Tests for the benchmark-circuit subsystem (instances, generators, grouping, I/O)."""

import pytest

from repro.circuits.generator import random_instance
from repro.circuits.grouping import (
    clustered_groups,
    grouping_mixing_index,
    intermingled_groups,
    striped_groups,
)
from repro.circuits.instance import ClockInstance, Sink
from repro.circuits.io import load_instance, save_instance
from repro.circuits.r_circuits import R_CIRCUIT_SINK_COUNTS, available_circuits, make_r_circuit
from repro.delay.technology import Technology
from repro.geometry.obstacles import Rect
from repro.geometry.point import Point


class TestSinkAndInstance:
    def test_negative_cap_raises(self):
        with pytest.raises(ValueError):
            Sink(0, Point(0, 0), -1.0)

    def test_duplicate_sink_ids_raise(self):
        sinks = (Sink(0, Point(0, 0), 1.0), Sink(0, Point(1, 1), 1.0))
        with pytest.raises(ValueError):
            ClockInstance("dup", sinks, Point(0, 0))

    def test_empty_instance_raises(self):
        with pytest.raises(ValueError):
            ClockInstance("empty", tuple(), Point(0, 0))

    def test_blockages_name_the_source_or_the_first_sink_inside(self):
        """Sinks are tested in one array query; the error still names the
        first sink (in sink order) inside a blockage."""
        blockage = (Rect(0.0, 0.0, 10.0, 10.0),)
        sinks = (
            Sink(4, Point(20.0, 20.0), 1.0),
            Sink(7, Point(5.0, 5.0), 1.0),
            Sink(2, Point(6.0, 6.0), 1.0),
            Sink(9, Point(10.0, 5.0), 1.0),  # on the boundary: legal
        )
        with pytest.raises(ValueError, match=r"^sink 7 at Point\(x=5.0, y=5.0\) lies inside"):
            ClockInstance("inside", sinks, Point(30.0, 30.0), obstacles=blockage)
        with pytest.raises(ValueError, match="the clock source lies inside a blockage"):
            ClockInstance("source", sinks[::3], Point(5.0, 5.0), obstacles=blockage)
        legal = ClockInstance("legal", sinks[::3], Point(30.0, 30.0), obstacles=blockage)
        assert legal.num_sinks == 2

    def test_group_queries(self, small_instance):
        assert small_instance.num_groups == 4
        sizes = small_instance.group_sizes()
        assert sum(sizes.values()) == small_instance.num_sinks
        for group in small_instance.groups():
            assert len(small_instance.sinks_in_group(group)) == sizes[group]

    def test_sink_by_id(self, small_instance):
        sink = small_instance.sinks[5]
        assert small_instance.sink_by_id(sink.sink_id) == sink
        with pytest.raises(KeyError):
            small_instance.sink_by_id(10_000)

    def test_with_groups_requires_full_assignment(self, small_instance):
        with pytest.raises(ValueError):
            small_instance.with_groups({0: 0})

    def test_with_single_group(self, small_instance):
        single = small_instance.with_single_group()
        assert single.num_groups == 1
        assert single.num_sinks == small_instance.num_sinks

    def test_subset(self, small_instance):
        ids = [s.sink_id for s in small_instance.sinks[:7]]
        sub = small_instance.subset(ids)
        assert sub.num_sinks == 7
        with pytest.raises(ValueError):
            small_instance.subset([])

    def test_bounding_box_and_total_cap(self, small_instance):
        xmin, ymin, xmax, ymax = small_instance.bounding_box()
        assert xmin < xmax and ymin < ymax
        assert small_instance.total_sink_capacitance() == pytest.approx(
            sum(s.cap for s in small_instance.sinks)
        )


class TestRandomInstance:
    def test_deterministic_for_a_seed(self):
        a = random_instance("a", 25, seed=42)
        b = random_instance("a", 25, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_instance("a", 25, seed=1)
        b = random_instance("a", 25, seed=2)
        assert a != b

    def test_sinks_inside_layout(self):
        instance = random_instance("a", 50, seed=3, layout_size=1000.0)
        for sink in instance.sinks:
            assert 0.0 <= sink.location.x <= 1000.0
            assert 0.0 <= sink.location.y <= 1000.0

    def test_caps_within_range(self):
        instance = random_instance("a", 50, seed=3, cap_range=(5.0, 6.0))
        assert all(5.0 <= s.cap <= 6.0 for s in instance.sinks)

    def test_round_robin_groups(self):
        instance = random_instance("a", 9, seed=3, num_groups=3)
        assert instance.num_groups == 3
        assert instance.group_sizes() == {0: 3, 1: 3, 2: 3}

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            random_instance("a", 0, seed=1)
        with pytest.raises(ValueError):
            random_instance("a", 5, seed=1, num_groups=0)
        with pytest.raises(ValueError):
            random_instance("a", 5, seed=1, layout_size=0.0)
        with pytest.raises(ValueError):
            random_instance("a", 5, seed=1, cap_range=(5.0, 1.0))


class TestRCircuits:
    def test_available_circuits_sorted_by_size(self):
        names = available_circuits()
        sizes = [R_CIRCUIT_SINK_COUNTS[n] for n in names]
        assert sizes == sorted(sizes)

    def test_r1_sink_count_matches_paper(self):
        assert make_r_circuit("r1").num_sinks == 267

    def test_all_circuits_have_paper_sink_counts(self):
        for name, count in R_CIRCUIT_SINK_COUNTS.items():
            if count > 1000:
                continue  # keep the test fast; large circuits covered elsewhere
            assert make_r_circuit(name).num_sinks == count

    def test_unknown_circuit_raises(self):
        with pytest.raises(ValueError):
            make_r_circuit("r9")

    def test_deterministic(self):
        assert make_r_circuit("r1") == make_r_circuit("r1")

    def test_single_group_by_default(self):
        assert make_r_circuit("r1").num_groups == 1


class TestGrouping:
    def test_clustered_groups_form_spatial_clusters(self):
        instance = random_instance("g", 200, seed=7, layout_size=10_000.0)
        grouped = clustered_groups(instance, 4)
        assert grouped.num_groups == 4
        assert grouping_mixing_index(grouped) < 0.35

    def test_intermingled_groups_are_mixed(self):
        instance = random_instance("g", 200, seed=7, layout_size=10_000.0)
        grouped = intermingled_groups(instance, 4, seed=1)
        assert grouped.num_groups == 4
        assert grouping_mixing_index(grouped) > 0.5

    def test_intermingled_more_mixed_than_clustered(self):
        instance = random_instance("g", 300, seed=9, layout_size=10_000.0)
        clustered = clustered_groups(instance, 6)
        mixed = intermingled_groups(instance, 6, seed=2)
        assert grouping_mixing_index(mixed) > grouping_mixing_index(clustered)

    def test_striped_groups_are_balanced(self):
        instance = random_instance("g", 40, seed=7)
        grouped = striped_groups(instance, 4)
        assert set(grouped.group_sizes().values()) == {10}

    def test_every_group_nonempty(self):
        instance = random_instance("g", 50, seed=7)
        for maker in (
            lambda: clustered_groups(instance, 5),
            lambda: intermingled_groups(instance, 5, seed=0),
            lambda: striped_groups(instance, 5),
        ):
            grouped = maker()
            assert all(size > 0 for size in grouped.group_sizes().values())

    def test_invalid_group_counts_raise(self):
        instance = random_instance("g", 10, seed=7)
        with pytest.raises(ValueError):
            clustered_groups(instance, 0)
        with pytest.raises(ValueError):
            intermingled_groups(instance, 0)
        with pytest.raises(ValueError):
            intermingled_groups(instance, 11)
        with pytest.raises(ValueError):
            striped_groups(instance, 0)

    def test_grouping_preserves_sinks(self):
        instance = random_instance("g", 30, seed=7)
        grouped = intermingled_groups(instance, 3, seed=5)
        assert {s.sink_id for s in grouped.sinks} == {s.sink_id for s in instance.sinks}
        for original, regrouped in zip(instance.sinks, grouped.sinks):
            assert original.location == regrouped.location
            assert original.cap == regrouped.cap


class TestInstanceIo:
    def test_roundtrip(self, tmp_path, small_instance):
        path = tmp_path / "instance.txt"
        save_instance(small_instance, path)
        loaded = load_instance(path)
        assert loaded.name == small_instance.name
        assert loaded.num_sinks == small_instance.num_sinks
        assert loaded.source == small_instance.source
        for original, read_back in zip(small_instance.sinks, loaded.sinks):
            assert read_back.sink_id == original.sink_id
            assert read_back.group == original.group
            assert read_back.location.distance_to(original.location) < 1e-6
            assert read_back.cap == pytest.approx(original.cap)

    def test_roundtrip_preserves_technology(self, tmp_path):
        tech = Technology(unit_resistance=0.01, unit_capacitance=0.05, source_resistance=25.0)
        instance = random_instance("t", 5, seed=1, technology=tech)
        path = tmp_path / "instance.txt"
        save_instance(instance, path)
        assert load_instance(path).technology == tech

    def test_rejects_non_instance_files(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not an instance\n")
        with pytest.raises(ValueError):
            load_instance(path)

    def test_rejects_malformed_lines(self, tmp_path, small_instance):
        path = tmp_path / "instance.txt"
        save_instance(small_instance, path)
        path.write_text(path.read_text() + "garbage line\n")
        with pytest.raises(ValueError):
            load_instance(path)
