"""Property tests for merge-pair selection and the incremental neighbour index.

Seeded-random loops (100 instances each) assert the invariants the merging
loop relies on:

* ``select_merge_pairs`` (the stateless selection over the library's
  candidate generation and band greedy, kept in
  ``tests/reference_neighbors.py``) always returns mutually disjoint pairs
  with costs sorted ascending, and so does the ``scalar`` seed engine kept
  there too;
* ``select_merge_pairs`` selects exactly what that ``scalar`` oracle selects;
* a :class:`~repro.cts.neighbor_index.NeighborIndex` maintained across an
  evolving population (given as ``(n, 4)`` locus rows) selects exactly what a
  stateless full rebuild selects;
* the degenerate ``k_candidates + 1 > n`` populations (n = 2, 3) are handled
  uniformly by every path.

A hypothesis property holds the library's band greedy
(:func:`~repro.cts.nearest_neighbor.select_from_candidates`) to the
full-sort greedy of ``tests/reference_neighbors.py`` on drawn candidate sets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cts.nearest_neighbor import (
    BAND_FACTOR,
    CandidateArrays,
    NeighborPairing,
    select_from_candidates,
)
from repro.cts.neighbor_index import NeighborIndex
from repro.geometry.point import Point
from repro.geometry.trr import Trr
from tests import reference_neighbors
from tests.reference_neighbors import (
    candidate_pairs,
    loci_to_array,
    scalar_candidate_pairs,
    scalar_select_merge_pairs,
    select_merge_pairs,
)

#: The stateless vectorised selection and the seed's per-pair oracle.
ENGINES = {"vectorized": select_merge_pairs, "scalar": scalar_select_merge_pairs}


def random_loci(rng: np.random.Generator, n: int, layout: float = 100_000.0):
    """``n`` random loci: a mix of degenerate points and proper regions."""
    pts = rng.uniform(0.0, layout, size=(n, 2))
    radii = rng.uniform(0.0, layout / 50.0, size=n)
    loci = []
    for t in range(n):
        locus = Trr.from_point(Point(float(pts[t, 0]), float(pts[t, 1])))
        if t % 3 == 0:
            locus = locus.expanded(float(radii[t]))
        loci.append(locus)
    return loci


def assert_same_pairing(got: NeighborPairing, ref: NeighborPairing) -> None:
    assert got.pairs == ref.pairs
    assert got.costs == ref.costs


# ----------------------------------------------------------------------
# select_merge_pairs invariants (and the oracle's)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["vectorized", "scalar"])
def test_pairs_disjoint_and_costs_ascending(engine):
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(2, 120))
        loci = random_loci(rng, n)
        max_pairs = [None, 1, 3][trial % 3]
        pairing = ENGINES[engine](loci, max_pairs=max_pairs)
        assert len(pairing) >= 1
        used = [index for pair in pairing.pairs for index in pair]
        assert len(used) == len(set(used)), "pairs must be mutually disjoint"
        assert all(0 <= i < j < n for i, j in pairing.pairs)
        assert pairing.costs == sorted(pairing.costs)
        if max_pairs is not None:
            assert len(pairing) <= max_pairs


def test_vectorized_engine_matches_scalar_reference():
    rng = np.random.default_rng(13)
    for trial in range(100):
        n = int(rng.integers(2, 150))
        loci = random_loci(rng, n)
        max_pairs = [None, 1, 4][trial % 3]
        ref = scalar_select_merge_pairs(loci, max_pairs=max_pairs)
        got = select_merge_pairs(loci, max_pairs=max_pairs)
        assert_same_pairing(got, ref)


def test_cost_bias_changes_priorities_identically():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(3, 80))
        loci = random_loci(rng, n)
        bias = rng.uniform(-10_000.0, 0.0, size=n).tolist()
        ref = scalar_select_merge_pairs(loci, cost_bias=bias)
        got = select_merge_pairs(loci, cost_bias=bias)
        assert_same_pairing(got, ref)


# ----------------------------------------------------------------------
# Incremental index vs stateless rebuild over an evolving population
# ----------------------------------------------------------------------
def _evolve(rng, loci, keys, next_key, removals):
    """Remove ``removals`` random rows (order preserved), append their merges."""
    n = len(loci)
    removed = sorted(rng.choice(n, size=removals, replace=False).tolist())
    removed_set = set(removed)
    survivors = [t for t in range(n) if t not in removed_set]
    new_loci = [loci[t] for t in survivors]
    new_keys = [keys[t] for t in survivors]
    for a, b in zip(removed[0::2], removed[1::2]):
        merged = loci[a].union_bound(loci[b])
        new_loci.append(merged)
        new_keys.append(next_key)
        next_key += 1
    return new_loci, new_keys, next_key


def test_incremental_index_matches_stateless_rebuild():
    """100 evolving populations: maintained index == fresh selection."""
    rng = np.random.default_rng(41)
    for trial in range(100):
        n = int(rng.integers(60, 140))
        loci = random_loci(rng, n)
        keys = list(range(n))
        next_key = n
        index = NeighborIndex()
        for pass_no in range(4):
            max_pairs = [1, None, 2, 1][pass_no]
            ref = select_merge_pairs(loci, max_pairs=max_pairs)
            got = index.select_pairs(loci_to_array(loci), keys, max_pairs=max_pairs)
            assert_same_pairing(got, ref)
            removals = int(rng.integers(1, max(2, len(loci) // 10))) * 2
            loci, keys, next_key = _evolve(rng, loci, keys, next_key, removals)


def test_incremental_candidate_sets_match_rebuild():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(60, 120))
        loci = random_loci(rng, n)
        keys = list(range(n))
        next_key = n
        index = NeighborIndex()
        for _pass in range(3):
            got = index.candidate_pairs(loci_to_array(loci), keys)
            ref = candidate_pairs(loci)
            got_set = set(zip(got.i.tolist(), got.j.tolist()))
            ref_set = set(zip(ref.i.tolist(), ref.j.tolist()))
            assert got_set == ref_set
            loci, keys, next_key = _evolve(rng, loci, keys, next_key, 4)


def test_staleness_threshold_forces_rebuild():
    """Removing most of the population falls back to a full rebuild."""
    rng = np.random.default_rng(47)
    loci = random_loci(rng, 120)
    keys = list(range(120))
    index = NeighborIndex(staleness_threshold=0.1)
    index.select_pairs(loci_to_array(loci), keys, max_pairs=1)
    assert index.full_rebuilds == 1
    # Remove half the population: far beyond a 10% staleness budget.
    loci2 = loci[:60]
    keys2 = keys[:60]
    ref = select_merge_pairs(loci2, max_pairs=1)
    got = index.select_pairs(loci_to_array(loci2), keys2, max_pairs=1)
    assert_same_pairing(got, ref)
    assert index.full_rebuilds == 2
    assert index.incremental_passes == 0


def test_a_mostly_fresh_population_skips_the_repair():
    """When the fresh rows alone exceed the staleness share, the repair gives
    up once it has counted the survivors: before it reads the cached
    candidate lists (multi-merge replaces about half the rows each pass)."""
    rng = np.random.default_rng(71)
    loci = random_loci(rng, 120)
    keys = list(range(120))
    index = NeighborIndex()
    index.select_pairs(loci_to_array(loci), keys, max_pairs=1)
    fresh = random_loci(rng, 40)  # 40 of 120 rows: a third, over 0.25
    index._cand_pos = None  # any read of the cached lists would raise
    assert not index._try_incremental(loci_to_array(loci[40:] + fresh), np.arange(40, 160))


def test_incremental_pass_counted():
    rng = np.random.default_rng(53)
    loci = random_loci(rng, 120)
    keys = list(range(120))
    next_key = 120
    index = NeighborIndex()
    index.select_pairs(loci_to_array(loci), keys, max_pairs=1)
    loci, keys, next_key = _evolve(rng, loci, keys, next_key, 2)
    index.select_pairs(loci_to_array(loci), keys, max_pairs=1)
    assert index.full_rebuilds == 1
    assert index.incremental_passes == 1


def test_keys_none_disables_reuse():
    """Without keys the index must not reuse lists across different loci."""
    rng = np.random.default_rng(59)
    index = NeighborIndex()
    for _ in range(3):
        loci = random_loci(rng, 80)
        ref = select_merge_pairs(loci, max_pairs=1)
        got = index.select_pairs(loci_to_array(loci), max_pairs=1)
        assert_same_pairing(got, ref)


def test_keys_none_never_poisons_a_later_keyed_call():
    """A keyed call after keys=None must not diff against positional keys."""
    rng = np.random.default_rng(67)
    index = NeighborIndex()
    index.select_pairs(loci_to_array(random_loci(rng, 60)))  # keys=None: no cached identity
    loci = random_loci(rng, 60)
    keys = list(range(0, 58)) + [1000, 1001]  # overlaps arange(60) by value
    ref = select_merge_pairs(loci, max_pairs=2)
    got = index.select_pairs(loci_to_array(loci), keys, max_pairs=2)
    assert_same_pairing(got, ref)


def test_index_rejects_mismatched_keys_and_bias():
    loci = random_loci(np.random.default_rng(0), 60)
    index = NeighborIndex()
    with pytest.raises(ValueError, match="keys"):
        index.select_pairs(loci_to_array(loci), keys=[1, 2, 3])
    with pytest.raises(ValueError, match="cost_bias"):
        index.select_pairs(loci_to_array(loci), keys=list(range(60)), cost_bias=[0.0])


# ----------------------------------------------------------------------
# Degenerate populations (the k_candidates + 1 > n reshape case)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k_candidates", [1, 2, 8])
def test_candidate_pairs_degenerate_populations(n, k_candidates):
    """n = 2 and n = 3 loci survive every k through the KD-tree path."""
    loci = random_loci(np.random.default_rng(n * 10 + k_candidates), n)
    candidates = scalar_candidate_pairs(loci, k_candidates)
    all_pairs = {(i, j) for i in range(n) for j in range(i + 1, n)}
    got = {(i, j) for _, i, j in candidates}
    # Unordered pairs appear at most once, whatever shape scipy returned for
    # the squeezed k == 1 / k >= n queries; with enough candidates per locus
    # the KD path must produce every pair.
    assert len(candidates) == len(got)
    if k_candidates + 1 >= n:
        assert got == all_pairs
    else:
        assert got and got <= all_pairs
    for dist, i, j in candidates:
        assert dist == loci[i].distance_to(loci[j])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("engine", ["vectorized", "scalar"])
def test_select_merge_pairs_degenerate_via_kd_path(n, engine):
    """Tiny populations forced through the KD-tree branch select correctly."""
    loci = random_loci(np.random.default_rng(n), n)
    select = ENGINES[engine]
    pairing = select(loci, max_pairs=1, k_candidates=8, exhaustive_threshold=0)
    assert len(pairing) == 1
    reference = select(loci, max_pairs=1)
    assert_same_pairing(pairing, reference)


def test_index_degenerate_populations_match_reference():
    rng = np.random.default_rng(61)
    for n in (2, 3, 5):
        loci = random_loci(rng, n)
        index = NeighborIndex(k_candidates=8)
        got = index.select_pairs(loci_to_array(loci), keys=list(range(n)), max_pairs=1)
        ref = select_merge_pairs(loci, max_pairs=1)
        assert_same_pairing(got, ref)
        assert index.exhaustive_passes == 1


# ----------------------------------------------------------------------
# The band greedy against the full-sort greedy
# ----------------------------------------------------------------------
#: Tie-heavy costs: small integers, both zeros, infinity and NaN.
_TIED_COSTS = (0.0, -0.0, 1.0, 1.0, 2.0, 3.0, 0.5, float("inf"), float("nan"))


@st.composite
def candidate_sets(draw):
    """Candidate arrays as the index emits them, a bias and a pair limit.

    Costs come from a tie-heavy pool or from small random floats; some
    candidates repeat an earlier pair with its distance (the candidate lists
    name a pair once per endpoint); ``star`` sets give one locus every
    cheapest candidate, so a first band picks one pair and the band doubles.
    """
    n = draw(st.integers(min_value=2, max_value=40))
    count = draw(st.integers(min_value=0, max_value=160))
    tied = draw(st.booleans())
    star = draw(st.booleans())
    dist, ii, jj = [], [], []
    for t in range(count):
        if ii and draw(st.integers(min_value=0, max_value=4)) == 0:
            k = draw(st.integers(min_value=0, max_value=len(ii) - 1))
            i, j, d = ii[k], jj[k], dist[k]
        else:
            if star and t % 4:
                i, j = 0, draw(st.integers(min_value=1, max_value=n - 1))
            else:
                i = draw(st.integers(min_value=0, max_value=n - 2))
                j = draw(st.integers(min_value=i + 1, max_value=n - 1))
            if tied:
                d = draw(st.sampled_from(_TIED_COSTS))
            else:
                d = draw(st.floats(min_value=0.0, max_value=10.0, width=16))
            if star and i == 0:
                d = min(d, 0.25)  # the star's edges are the cheapest
        ii.append(i)
        jj.append(j)
        dist.append(d)
    candidates = CandidateArrays(
        dist=np.array(dist, dtype=float),
        i=np.array(ii, dtype=np.int64),
        j=np.array(jj, dtype=np.int64),
    )
    bias_kind = draw(st.sampled_from(["none", "zero", "negative", "mixed"]))
    if bias_kind == "none":
        bias = None
    elif bias_kind == "zero":
        bias = [0.0] * n
    else:
        values = (-2.0, -1.0, -0.5, -0.0) if bias_kind == "negative" else (-1.0, 0.0, 0.5, 1.0)
        bias = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    max_pairs = draw(st.sampled_from([1, 2, n // 2, None]))
    return candidates, n, max_pairs, bias


def _hexed(pairing: NeighborPairing):
    return pairing.pairs, [float.hex(cost) for cost in pairing.costs]


@settings(max_examples=400, deadline=None)
@given(candidate_sets())
def test_band_greedy_matches_the_full_sort(drawn):
    """The same pairs, in the same order, with costs equal bit for bit."""
    candidates, n, max_pairs, bias = drawn
    got = select_from_candidates(candidates, n, max_pairs, bias)
    expected = reference_neighbors.select_from_candidates(candidates, n, max_pairs, bias)
    assert _hexed(got) == _hexed(expected)
    assert got.a.dtype == got.b.dtype == np.int64 and got.cost.dtype == np.float64


def test_a_star_exhausts_the_first_band():
    """Every cheap candidate shares locus 0, so the first band (``BAND_FACTOR``
    per pair) yields one pair and the later, doubled bands the rest."""
    n, limit = 60, 10
    star = [(0, j, 0.0) for j in range(1, n)]
    rest = [(i, i + 1, 1.0 + i) for i in range(1, n - 1)]
    i, j, d = (np.array(column) for column in zip(*(star + rest)))
    candidates = CandidateArrays(dist=d.astype(float), i=i.astype(np.int64), j=j.astype(np.int64))
    assert len(star) > BAND_FACTOR * limit
    got = select_from_candidates(candidates, n, limit)
    assert got.pairs == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13),
                         (14, 15), (16, 17), (18, 19)]
    assert _hexed(got) == _hexed(
        reference_neighbors.select_from_candidates(candidates, n, limit)
    )
