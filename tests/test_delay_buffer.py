"""Tests for buffer cells/libraries and buffered Elmore delays."""

import json

import pytest

from repro.cts.tree import ClockTree
from repro.delay.buffer import (
    BufferCell,
    BufferLibrary,
    DEFAULT_BUFFER_LIBRARY,
    default_library,
)
from repro.delay.elmore import elmore_delays, sink_delays, subtree_capacitances
from repro.delay.rc_tree import oracle_delays
from repro.delay.technology import Technology
from repro.geometry.point import Point
from tests import reference_elmore as reference


def build_buffered_tree(cell=None, tech=None):
    """source -> internal(buffer?) -> {sink a, sink b}, 1000 um edges."""
    tree = ClockTree(technology=tech or Technology.r_benchmark())
    sink_a = tree.add_sink(Point(0.0, 0.0), 50.0, group=0)
    sink_b = tree.add_sink(Point(2000.0, 0.0), 50.0, group=0)
    internal = tree.add_internal(
        [sink_a, sink_b], [1000.0, 1000.0], location=Point(1000.0, 0.0)
    )
    if cell is not None:
        tree.set_buffer(internal, cell)
    tree.add_source(Point(1000.0, 500.0), internal, 500.0)
    return tree, sink_a, sink_b, internal


class TestBufferCell:
    def test_stage_delay_is_intrinsic_plus_drive(self):
        cell = BufferCell("x", input_cap=10.0, intrinsic_delay=100.0, drive_resistance=50.0)
        assert cell.stage_delay(0.0) == pytest.approx(100.0)
        assert cell.stage_delay(20.0) == pytest.approx(100.0 + 50.0 * 20.0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(name="", input_cap=1.0, intrinsic_delay=0.0, drive_resistance=1.0), "name"),
            (dict(name="x", input_cap=0.0, intrinsic_delay=0.0, drive_resistance=1.0), "input_cap"),
            (dict(name="x", input_cap=1.0, intrinsic_delay=-1.0, drive_resistance=1.0), "intrinsic_delay"),
            (dict(name="x", input_cap=1.0, intrinsic_delay=0.0, drive_resistance=0.0), "drive_resistance"),
        ],
    )
    def test_rejects_bad_fields(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            BufferCell(**kwargs)

    def test_dict_round_trip(self):
        cell = BufferCell("buf-x2", input_cap=20.0, intrinsic_delay=15000.0, drive_resistance=90.0)
        assert BufferCell.from_dict(json.loads(json.dumps(cell.to_dict()))) == cell

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown buffer cell keys"):
            BufferCell.from_dict({"name": "x", "input_cap": 1.0,
                                  "intrinsic_delay": 0.0, "drive_resistance": 1.0,
                                  "area": 3.0})


class TestBufferLibrary:
    def test_default_library_has_three_strengths(self):
        library = default_library()
        assert len(library) == 3
        assert [cell.name for cell in library] == ["buf-x1", "buf-x2", "buf-x4"]
        assert DEFAULT_BUFFER_LIBRARY == library

    def test_rejects_empty_and_duplicate_names(self):
        with pytest.raises(ValueError, match="at least one cell"):
            BufferLibrary(cells=())
        cell = default_library().cells[0]
        with pytest.raises(ValueError, match="duplicate"):
            BufferLibrary(cells=(cell, cell))

    def test_cell_lookup_lists_known_names(self):
        library = default_library()
        assert library.cell("buf-x2").input_cap == 20.0
        with pytest.raises(KeyError, match="buf-x1"):
            library.cell("nope")

    def test_best_cell_prefers_strong_drivers_for_heavy_loads(self):
        library = default_library()
        # Heavy load: the x4 drive resistance wins despite larger input cap.
        assert library.best_cell_for(10_000.0).name == "buf-x4"
        # Tiny load: intrinsic delay dominates; x4 still has the smallest.
        assert library.best_cell_for(0.0).name == "buf-x4"

    def test_json_file_round_trip(self, tmp_path):
        library = default_library()
        path = tmp_path / "lib.json"
        library.save(path)
        assert BufferLibrary.load(path) == library

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown buffer library keys"):
            BufferLibrary.from_dict({"name": "x", "cells": [], "vendor": "acme"})


class TestBufferedElmore:
    def test_buffer_decouples_downstream_cap(self):
        cell = default_library().cell("buf-x2")
        plain, *_ = build_buffered_tree(None)
        buffered, _, _, internal = build_buffered_tree(cell)
        caps_plain = subtree_capacitances(plain)
        caps_buf = subtree_capacitances(buffered)
        # Upstream sees only the input pin, not the 140 fF subtree.
        assert caps_plain[internal] == pytest.approx(140.0)
        assert caps_buf[internal] == pytest.approx(cell.input_cap)
        root = buffered.root().node_id
        assert caps_buf[root] == pytest.approx(cell.input_cap + 0.02 * 500.0)

    def test_buffered_node_delay_is_arrival_at_buffer_input(self):
        cell = default_library().cell("buf-x2")
        tree, sink_a, _, internal = build_buffered_tree(cell)
        delays = elmore_delays(tree)
        # Source edge drives only the wire + input pin: 0.003*500*(5 + 20).
        assert delays[internal] == pytest.approx(0.003 * 500.0 * (5.0 + 20.0))
        # Sinks additionally see the stage delay into the 140 fF internal load.
        stage = cell.intrinsic_delay + cell.drive_resistance * 140.0
        edge = 0.003 * 1000.0 * (0.02 * 1000.0 / 2.0 + 50.0)
        assert delays[sink_a] == pytest.approx(delays[internal] + stage + edge)

    def test_engines_bit_identical_on_buffered_tree(self):
        cell = default_library().cell("buf-x1")
        tree, *_ = build_buffered_tree(cell)
        object_delays = reference.elmore_delays(tree)
        arena_delays = elmore_delays(tree)
        assert set(object_delays) == set(arena_delays)
        for node_id, value in object_delays.items():
            assert arena_delays[node_id] == value, node_id  # bit-identical

    def test_oracle_agrees_on_buffered_tree(self):
        cell = default_library().cell("buf-x4")
        tree, *_ = build_buffered_tree(cell)
        fast = sink_delays(tree)
        oracle = oracle_delays(tree, segments_per_edge=6)
        for sink_id, value in fast.items():
            assert oracle[sink_id] == pytest.approx(value, rel=1e-9)

    def test_removing_buffer_restores_plain_delays(self):
        cell = default_library().cell("buf-x2")
        tree, _, _, internal = build_buffered_tree(cell)
        plain, *_ = build_buffered_tree(None)
        tree.set_buffer(internal, None)
        assert sink_delays(tree) == sink_delays(plain)
