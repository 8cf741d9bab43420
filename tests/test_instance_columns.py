"""Columnar instances against the object-at-a-time code they replaced.

``ClockInstance.sinks`` is a ``SinkTable``: five read-only columns that the
generators, the groupings and ``EcoDelta.apply`` write directly.  The object
code they replaced lives in ``tests/reference_instances.py``; every
property here holds a columnar instance to the ``Sink`` tuple its oracle
builds, with coordinates and caps compared by ``float.hex``, and every error
to the oracle's message.
"""

import pickle
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import benchmarks
from repro.circuits.benchmarks import generate_instance
from repro.circuits.generator import random_instance
from repro.circuits.grouping import clustered_groups, intermingled_groups, striped_groups
from repro.circuits.instance import ClockInstance, Sink, SinkTable
from repro.eco.delta import EcoDelta, EcoDeltaError, SinkAdd, SinkMove
from repro.geometry.obstacles import Rect
from repro.geometry.point import Point
from tests import reference_instances as ref


def sink_bits(sinks) -> list:
    """``(id, x, y, cap, group)`` of each ``Sink``, floats by ``float.hex``."""
    return [
        (s.sink_id, float(s.location.x).hex(), float(s.location.y).hex(), float(s.cap).hex(),
         s.group)
        for s in sinks
    ]


def column_bits(table: SinkTable) -> list:
    """The same rows read from the table's columns, building no ``Sink``."""
    xs, ys, caps = ([v.hex() for v in c.tolist()] for c in (table.xs, table.ys, table.caps))
    return list(zip(table.ids.tolist(), xs, ys, caps, table.groups.tolist()))


def _outcome(build):
    """``build()``'s result, or the type and message of what it raised."""
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


_GROUPINGS = {
    "clustered": (
        lambda inst, k, seed: clustered_groups(inst, k),
        lambda sinks, k, seed: ref.clustered_assignment(sinks, k),
    ),
    "intermingled": (
        lambda inst, k, seed: intermingled_groups(inst, k, seed=seed),
        lambda sinks, k, seed: ref.intermingled_assignment(sinks, k, seed),
    ),
    "striped": (
        lambda inst, k, seed: striped_groups(inst, k),
        lambda sinks, k, seed: ref.striped_assignment(sinks, k),
    ),
}


def assert_grouping_matches(instance, sinks, style, groups, seed) -> None:
    """``instance`` regrouped in ``style`` equals its oracle over ``sinks``."""
    regroup, assignment = _GROUPINGS[style]
    groups = min(groups, len(sinks))  # intermingled needs a sink per group
    got = regroup(instance, groups, seed)
    assert column_bits(got.sinks) == sink_bits(ref.with_groups(sinks, assignment(sinks, groups, seed)))
    assert got.name == "%s-%s-%d" % (instance.name, style, groups)
    assert got.obstacles == instance.obstacles and got.source == instance.source


class TestGenerators:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        num_sinks=st.integers(min_value=1, max_value=300),
        groups=st.integers(min_value=1, max_value=16),
        style=st.sampled_from(sorted(_GROUPINGS)),
        grouping_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_random_instances_and_groupings_match_the_sink_loops(
        self, seed, num_sinks, groups, style, grouping_seed
    ):
        instance = random_instance("r", num_sinks, seed, num_groups=groups)
        sinks = ref.random_sinks(num_sinks, seed, num_groups=groups)
        assert column_bits(instance.sinks) == sink_bits(sinks)
        assert_grouping_matches(instance, sinks, style, groups, grouping_seed)

    @settings(max_examples=120, deadline=None)
    @given(
        family=st.sampled_from(sorted(benchmarks.GENERATOR_FAMILIES)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        num_sinks=st.integers(min_value=1, max_value=300),
        blockages=st.integers(min_value=0, max_value=12),
        groups=st.integers(min_value=1, max_value=16),
        style=st.sampled_from(sorted(_GROUPINGS)),
        grouping_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_families_and_groupings_match_the_object_code(
        self, family, seed, num_sinks, blockages, groups, style, grouping_seed
    ):
        """The families with the list-of-points draw and the one-``Sink``-
        at-a-time ``_build`` patched in build the same instance."""

        def build(name, locations, caps, num_groups, source, technology, obstacles):
            return ref.build_sinks(locations, caps, num_groups), source, obstacles.rects

        def generate():
            return generate_instance(
                family, "f", num_sinks, seed, num_groups=groups, num_blockages=blockages
            )

        got = _outcome(generate)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(benchmarks, "_free_points", ref.free_points)
            patch.setattr(benchmarks, "_build", build)
            expected = _outcome(generate)
        if not isinstance(got, ClockInstance):
            assert got == expected  # a layout too congested for the blockages
            return
        sinks, source, obstacles = expected
        assert column_bits(got.sinks) == sink_bits(sinks)
        assert got.source == source and got.obstacles == obstacles
        assert_grouping_matches(got, sinks, style, groups, grouping_seed)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "num_sinks,groups", [(1, 1), (2, 2), (10, 3), (100, 8), (1000, 16), (50, 1), (333, 7)]
    )
    def test_array_draws_keep_the_scalar_stream(self, seed, num_sinks, groups):
        """``intermingled_groups`` relies on numpy giving a shuffled arange
        and one sized ``integers`` call the stream of shuffling a list and
        drawing one group at a time; every generated grouping moves if a
        numpy release breaks that."""
        scalar = np.random.default_rng(seed)
        shuffled = list(range(100, 100 + num_sinks))
        scalar.shuffle(shuffled)
        draws = [int(scalar.integers(0, groups)) for _ in range(num_sinks - groups)]
        array = np.random.default_rng(seed)
        order = np.arange(num_sinks)
        array.shuffle(order)
        assert (order + 100).tolist() == shuffled
        assert array.integers(0, groups, size=num_sinks - groups).tolist() == draws
        assert array.random() == scalar.random()


class TestDerivedInstances:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        num_sinks=st.integers(min_value=1, max_value=120),
        data=st.data(),
    )
    def test_with_groups_and_subset_match_the_sink_loops(self, seed, num_sinks, data):
        instance = random_instance("r", num_sinks, seed, num_groups=3)
        sinks = ref.random_sinks(num_sinks, seed, num_groups=3)
        ids = [s.sink_id for s in sinks]
        assignment = {
            sid: data.draw(st.integers(min_value=0, max_value=20)) for sid in ids
        }
        if data.draw(st.booleans()):
            del assignment[data.draw(st.sampled_from(ids))]
        got = _outcome(lambda: instance.with_groups(assignment, name="g"))
        expected = _outcome(lambda: ref.with_groups(sinks, assignment))
        if isinstance(expected, tuple) and expected and isinstance(expected[0], Sink):
            assert column_bits(got.sinks) == sink_bits(expected)
            assert got.name == "g"
        else:
            assert got == expected
        wanted = data.draw(st.lists(st.integers(min_value=-3, max_value=num_sinks + 3)))
        got = _outcome(lambda: instance.subset(wanted))
        expected = _outcome(lambda: ref.subset(sinks, wanted))
        if isinstance(got, ClockInstance):
            assert column_bits(got.sinks) == sink_bits(expected)
            assert got.name == "r-subset"
        else:
            assert got == expected

    def test_queries_read_the_columns(self):
        instance = intermingled_groups(random_instance("q", 90, 4), 5, seed=2)
        sinks = tuple(instance.sinks)
        assert instance.groups() == sorted({s.group for s in sinks})
        sizes = {}
        for sink in sinks:
            sizes[sink.group] = sizes.get(sink.group, 0) + 1
        assert list(instance.group_sizes().items()) == list(sizes.items())
        assert instance.sinks_in_group(3) == [s for s in sinks if s.group == 3]
        assert instance.sinks_in_group(99) == []
        assert instance.sink_by_id(17) == sinks[17]
        with pytest.raises(KeyError):
            instance.sink_by_id(90)
        assert instance.bounding_box() == Point.bounding_box(s.location for s in sinks)
        assert instance.total_sink_capacitance().hex() == sum(s.cap for s in sinks).hex()
        single = instance.with_single_group()
        assert column_bits(single.sinks) == sink_bits(
            ref.with_groups(sinks, {s.sink_id: 0 for s in sinks})
        )


def _blockage_at(point: Point, half: float = 5.0) -> Rect:
    return Rect(point.x - half, point.y - half, point.x + half, point.y + half)


@st.composite
def _delta(draw, ids, sinks):
    """A delta over ``ids`` (with the odd unknown id) that moves, removes
    and adds sinks and may add a blockage over a sink or away from all."""
    pool = sorted(ids)
    unknown = max(pool) + 1 + draw(st.integers(min_value=0, max_value=5))
    picked = draw(st.lists(st.sampled_from(pool), unique=True, max_size=min(len(pool), 6)))
    if draw(st.booleans()) and len(pool) <= 8:
        picked = list(pool)  # remove or move every sink
    split = draw(st.integers(min_value=0, max_value=len(picked)))
    moves, removes = picked[:split], picked[split:]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        removes = removes + [unknown]
    coord = st.floats(min_value=0.0, max_value=100_000.0)
    moved = tuple(SinkMove(sid, Point(draw(coord), draw(coord))) for sid in moves)
    added = tuple(
        SinkAdd(
            Point(draw(coord), draw(coord)),
            draw(st.floats(min_value=0.0, max_value=90.0)),
            draw(st.integers(min_value=0, max_value=7)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )
    blockages = ()
    choice = draw(st.integers(min_value=0, max_value=5))
    if choice == 0:
        blockages = (_blockage_at(draw(st.sampled_from(sinks)).location),)
    elif choice == 1:
        blockages = (Rect(-400.0, -400.0, -300.0, -300.0),)
    return EcoDelta(add=added, move=moved, remove=tuple(removes), add_blockages=blockages)


class TestEcoDeltaColumns:
    @settings(
        max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        num_sinks=st.integers(min_value=1, max_value=300),
        blockages=st.integers(min_value=0, max_value=4),
        data=st.data(),
    )
    def test_five_delta_chains_match_the_sink_loop(self, seed, num_sinks, blockages, data):
        instance = generate_instance(
            "blocked", "b", num_sinks, seed, num_groups=4, num_blockages=blockages
        )
        if data.draw(st.booleans()):
            # Ids out of row order and with gaps, as a loaded file may have.
            ids = np.random.default_rng(seed).permutation(num_sinks) * 3 + 5
            instance = replace(instance, sinks=SinkTable(ids, *instance.sinks.columns()[1:]))
        sinks, obstacles = tuple(instance.sinks), instance.obstacles
        for _ in range(5):
            delta = data.draw(_delta(instance.sinks.ids.tolist(), sinks))
            got = _outcome(lambda: delta.apply(instance))
            expected = _outcome(
                lambda: ref.apply_delta(delta, instance.name, sinks, instance.source, obstacles)
            )
            if not isinstance(got, ClockInstance):
                assert got == expected
                assert got[0] is EcoDeltaError
                continue
            sinks, obstacles = expected
            assert column_bits(got.sinks) == sink_bits(sinks)
            assert got.obstacles == obstacles and got.name == instance.name + "+eco"
            assert delta.added_sink_ids(instance) == tuple(
                s.sink_id for s in sinks[len(sinks) - len(delta.add):]
            )
            instance = got

    def test_unknown_ids_and_removing_every_sink_keep_their_messages(self):
        instance = random_instance("e", 3, 1)
        sinks = tuple(instance.sinks)
        for delta in (
            EcoDelta(remove=(0, 1, 2)),
            EcoDelta(move=(SinkMove(9, Point(1.0, 1.0)),), remove=(7, 0)),
        ):
            with pytest.raises(EcoDeltaError) as got:
                delta.apply(instance)
            with pytest.raises(EcoDeltaError) as expected:
                ref.apply_delta(delta, instance.name, sinks, instance.source, ())
            assert str(got.value) == str(expected.value)
        assert "unknown sink ids [7, 9]" in str(got.value)

    def test_an_added_sink_needs_a_group(self):
        with pytest.raises(EcoDeltaError, match="needs a group"):
            SinkAdd(Point(0.0, 0.0), 1.0, group=None)


class TestInstanceChecks:
    def _sinks(self):
        return ref.random_sinks(6, seed=3, num_groups=2)

    @pytest.mark.parametrize("as_table", [False, True])
    def test_duplicate_ids_keep_their_message(self, as_table):
        sinks = self._sinks()
        sinks = sinks[:5] + (replace(sinks[5], sink_id=2),)
        given = SinkTable.from_sinks(sinks) if as_table else sinks
        with pytest.raises(ValueError) as expected:
            ref.check_sinks(sinks, Point(0.0, 0.0), ())
        with pytest.raises(ValueError) as got:
            ClockInstance("d", given, Point(0.0, 0.0))
        assert str(got.value) == str(expected.value) == "sink ids must be unique"

    def test_a_negative_cap_keeps_its_message(self):
        with pytest.raises(ValueError) as expected:
            Sink(0, Point(0.0, 0.0), -1.0)
        table = SinkTable([0, 1], [0.0, 1.0], [0.0, 1.0], [1.0, -1.0], [0, 0])
        with pytest.raises(ValueError) as got:
            ClockInstance("c", table, Point(0.0, 0.0))
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("as_table", [False, True])
    def test_a_sink_inside_a_blockage_keeps_its_message(self, as_table):
        sinks = self._sinks()
        blockages = (_blockage_at(sinks[4].location), _blockage_at(sinks[2].location))
        given = SinkTable.from_sinks(sinks) if as_table else sinks
        source = Point(-10.0, -10.0)
        with pytest.raises(ValueError) as expected:
            ref.check_sinks(sinks, source, blockages)
        with pytest.raises(ValueError) as got:
            ClockInstance("b", given, source, obstacles=blockages)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("sink 2 at Point(")

    def test_a_missing_group_is_rejected(self):
        sinks = self._sinks()
        with pytest.raises(ValueError, match="sink 3 has no group"):
            ClockInstance("n", sinks[:3] + (replace(sinks[3], group=None),), Point(0.0, 0.0))
        instance = ClockInstance("n", sinks, Point(0.0, 0.0))
        assignment = {s.sink_id: 1 for s in sinks}
        assignment[4] = None
        with pytest.raises(ValueError, match="sink 4 has no group"):
            instance.with_groups(assignment)

    def test_a_negative_id_is_rejected(self):
        sinks = self._sinks()
        with pytest.raises(ValueError, match="non-negative"):
            ClockInstance("n", sinks[:5] + (replace(sinks[5], sink_id=-1),), Point(0.0, 0.0))

    def test_no_sinks(self):
        with pytest.raises(ValueError, match="at least one sink"):
            ClockInstance("e", (), Point(0.0, 0.0))


class TestSinkTable:
    @pytest.fixture
    def instance(self):
        return intermingled_groups(random_instance("t", 40, 8), 4, seed=1)

    def test_the_table_is_a_sequence_of_sinks(self, instance):
        table, sinks = instance.sinks, tuple(instance.sinks)
        assert len(table) == 40
        assert table == sinks and sinks == table and table != sinks[:-1]
        assert hash(table) == hash(sinks)
        assert table[3] == sinks[3] and table[-1] == sinks[-1]
        with pytest.raises(IndexError):
            table[40]
        assert isinstance(table[2:9], SinkTable) and table[2:9] == sinks[2:9]
        assert table[::-3] == sinks[::-3]
        assert list(reversed(table)) == list(reversed(sinks))
        assert table.index(sinks[5]) == 5 and sinks[5] in table

    def test_the_columns_are_read_only(self, instance):
        for column in instance.sinks.columns():
            with pytest.raises(ValueError):
                column[0] = 0

    def test_concatenation_and_replace(self, instance):
        table, sinks = instance.sinks, tuple(instance.sinks)
        extra = (Sink(100, Point(1.0, 2.0), 3.0, 1),)
        assert table + extra == sinks + extra
        assert extra + table == extra + sinks
        assert table + table[:2] == sinks + sinks[:2]
        grown = replace(instance, sinks=table + extra)
        assert grown.num_sinks == 41 and grown.sinks[-1] == extra[0]
        assert replace(instance, sinks=sinks) == instance

    def test_sampling_and_pickling_see_the_tuple(self, instance):
        table, sinks = instance.sinks, tuple(instance.sinks)
        assert random.Random(5).sample(table, 7) == random.Random(5).sample(sinks, 7)
        clone = pickle.loads(pickle.dumps(instance))
        assert clone == instance and column_bits(clone.sinks) == column_bits(table)
        assert not clone.sinks.xs.flags.writeable

    def test_integer_coordinates_read_back_as_equal_floats(self):
        sinks = (Sink(0, Point(1, 2), 3, 0), Sink(1, Point(4, 5), 6, 1))
        instance = ClockInstance("i", sinks, Point(0, 0))
        assert instance.sinks == sinks
        assert isinstance(instance.sinks[0].location.x, float)

    def test_columns_must_agree_in_length(self):
        with pytest.raises(ValueError, match="equal lengths"):
            SinkTable([0, 1], [0.0], [0.0, 1.0], [1.0, 1.0], [0, 0])


def test_grouping_edge_cases_match():
    """Coincident and collinear sinks: the clustered grid degenerates to
    one row or column, and truncation decides every cell."""
    for xs, ys in (([5.0] * 4, [1.0, 2.0, 3.0, 4.0]), ([0.0, 1e-9, 2e-9], [7.0] * 3)):
        sinks = tuple(Sink(i, Point(x, y), 1.0, 0) for i, (x, y) in enumerate(zip(xs, ys)))
        instance = ClockInstance("edge", sinks, Point(0.0, 0.0))
        for groups in (1, 2, 3, 5):
            assert_grouping_matches(instance, sinks, "clustered", groups, 0)
            assert_grouping_matches(instance, sinks, "striped", groups, 0)
