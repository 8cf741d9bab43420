"""Sink-group generators: clustered (Table I) and intermingled (Table II).

The paper builds its associative-skew instances from the r1-r5 circuits in two
ways:

* *clusters of sink groups*: the layout is divided "into rectangle boxes as
  many as the number of sink groups"; sinks in the same rectangle form a
  group.  Cross-group merges are then rare and the wirelength advantage of
  AST-DME is small (Table I).
* *intermingled sink groups*: groups are spatially mixed -- the difficult
  instances.  Here we assign sinks to groups uniformly at random (with a
  round-robin variant available), which maximises intermingling and
  corresponds to Table II.

:func:`grouping_mixing_index` quantifies how intermingled a grouping is, which
the tests use to check that the two generators really produce the two regimes.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from repro.circuits.instance import ClockInstance

__all__ = [
    "clustered_groups",
    "intermingled_groups",
    "striped_groups",
    "grouping_mixing_index",
]


def _grid_shape(num_groups: int) -> tuple:
    """Rows x columns of the most square grid with at least ``num_groups`` cells."""
    rows = int(math.floor(math.sqrt(num_groups)))
    while rows > 1 and num_groups % rows != 0:
        rows -= 1
    cols = int(math.ceil(num_groups / rows))
    return rows, cols


def _regrouped(instance: ClockInstance, groups: np.ndarray, name: str) -> ClockInstance:
    """``instance`` with the group column ``groups`` (instance order)."""
    return replace(instance, sinks=instance.sinks.with_groups(groups), name=name)


def clustered_groups(
    instance: ClockInstance, num_groups: int, name: Optional[str] = None
) -> ClockInstance:
    """Group sinks by dividing the layout into ``num_groups`` rectangles.

    This reproduces the Table I construction: sinks in the same rectangle of a
    near-square grid over the sink bounding box belong to the same group.
    Cells are numbered row-major; when the grid has more cells than groups the
    cell index is taken modulo ``num_groups`` (this only happens when
    ``num_groups`` is prime and larger than 3).
    """
    if num_groups < 1:
        raise ValueError("num_groups must be at least 1")
    xmin, ymin, xmax, ymax = instance.bounding_box()
    rows, cols = _grid_shape(num_groups)
    width = max(xmax - xmin, 1e-9)
    height = max(ymax - ymin, 1e-9)
    sinks = instance.sinks
    # astype truncates toward zero, like int() on each sink's cell coordinate.
    col = np.minimum(((sinks.xs - xmin) / width * cols).astype(np.int64), cols - 1)
    row = np.minimum(((sinks.ys - ymin) / height * rows).astype(np.int64), rows - 1)
    return _regrouped(
        instance,
        (row * cols + col) % num_groups,
        name or "%s-clustered-%d" % (instance.name, num_groups),
    )


def intermingled_groups(
    instance: ClockInstance,
    num_groups: int,
    seed: int = 0,
    name: Optional[str] = None,
) -> ClockInstance:
    """Assign sinks to ``num_groups`` groups uniformly at random (Table II).

    Every group receives at least one sink (the first ``num_groups`` sinks in
    a shuffled order seed the groups) so that instances remain well formed for
    any group count up to the sink count.  The shuffle and the draws are one
    array call each; numpy gives them the stream of shuffling the sink list
    and drawing each remaining sink's group in turn.
    """
    if num_groups < 1:
        raise ValueError("num_groups must be at least 1")
    n = instance.num_sinks
    if num_groups > n:
        raise ValueError("cannot form more groups than there are sinks")
    rng = np.random.default_rng(seed)
    shuffled = np.arange(n, dtype=np.int64)
    rng.shuffle(shuffled)
    groups = np.empty(n, dtype=np.int64)
    groups[shuffled] = np.concatenate(
        (np.arange(num_groups, dtype=np.int64), rng.integers(0, num_groups, size=n - num_groups))
    )
    return _regrouped(
        instance, groups, name or "%s-intermingled-%d" % (instance.name, num_groups)
    )


def striped_groups(
    instance: ClockInstance, num_groups: int, name: Optional[str] = None
) -> ClockInstance:
    """Deterministic intermingled grouping: round-robin in sink-id order.

    Useful when a seedless, perfectly balanced intermingled grouping is wanted
    (e.g. in property-based tests).
    """
    if num_groups < 1:
        raise ValueError("num_groups must be at least 1")
    rank = np.empty(instance.num_sinks, dtype=np.int64)
    rank[np.argsort(instance.sinks.ids, kind="stable")] = np.arange(instance.num_sinks)
    return _regrouped(
        instance, rank % num_groups, name or "%s-striped-%d" % (instance.name, num_groups)
    )


def grouping_mixing_index(instance: ClockInstance, neighbors: int = 5) -> float:
    """Fraction of nearest-neighbour sink pairs that straddle two groups.

    0 means perfectly clustered (every sink's nearest neighbours share its
    group); values approaching ``1 - 1/k`` mean the ``k`` groups are fully
    intermingled.  Used by tests and reports to characterise instances.
    """
    from scipy.spatial import cKDTree

    sinks = instance.sinks
    if len(sinks) <= neighbors:
        neighbors = max(1, len(sinks) - 1)
    coords = np.column_stack((sinks.xs, sinks.ys))
    groups = sinks.groups
    _, idx = cKDTree(coords).query(coords, k=neighbors + 1)
    near = idx[:, 1:]
    cross = int(np.count_nonzero(groups[near] != groups[:, np.newaxis]))
    total = near.size
    return cross / total if total else 0.0
