"""Synthetic substitutes for the classic r1-r5 clock benchmarks.

The paper evaluates on the r1-r5 benchmarks from the bounded-skew-tree paper
(Cong, Kahng, Koh, Tsao 1998).  Those benchmark files cannot be redistributed
here, so this module generates synthetic instances with the same *structural*
parameters -- sink counts, layout scale, load range, interconnect technology --
which is what the routing algorithms actually consume.  Each circuit uses a
fixed seed so every run of the experiments sees identical instances.
"""

from __future__ import annotations

from typing import Dict, List

from repro.circuits.generator import random_instance
from repro.circuits.instance import ClockInstance
from repro.delay.technology import DEFAULT_TECHNOLOGY, Technology

__all__ = ["R_CIRCUIT_SINK_COUNTS", "available_circuits", "make_r_circuit"]

#: Sink counts of the original benchmarks (Table I / II of the paper).
R_CIRCUIT_SINK_COUNTS: Dict[str, int] = {
    "r1": 267,
    "r2": 598,
    "r3": 862,
    "r4": 1903,
    "r5": 3101,
}

#: Layout side length of the synthetic substitutes, micrometres.
_LAYOUT_SIZE = 100_000.0

#: Fixed per-circuit seeds so experiments are reproducible run-to-run.
_SEEDS: Dict[str, int] = {"r1": 101, "r2": 202, "r3": 303, "r4": 404, "r5": 505}


def available_circuits() -> List[str]:
    """Names of the supported benchmark circuits, in size order."""
    return sorted(R_CIRCUIT_SINK_COUNTS, key=lambda name: R_CIRCUIT_SINK_COUNTS[name])


def make_r_circuit(
    name: str,
    seed: int = None,
    technology: Technology = DEFAULT_TECHNOLOGY,
) -> ClockInstance:
    """Build the synthetic substitute of benchmark ``name`` ("r1" .. "r5").

    Args:
        name: one of ``r1`` .. ``r5``.
        seed: optional seed override (defaults to the circuit's fixed seed).
        technology: interconnect technology (defaults to the r-benchmark
            parameters: 0.003 ohm/um, 0.02 fF/um).

    Returns:
        A single-group instance; apply :func:`repro.circuits.grouping.clustered_groups`
        or :func:`repro.circuits.grouping.intermingled_groups` to obtain the
        associative-skew variants used by Tables I and II.
    """
    if name not in R_CIRCUIT_SINK_COUNTS:
        raise ValueError(
            "unknown circuit %r; expected one of %s" % (name, available_circuits())
        )
    return random_instance(
        name=name,
        num_sinks=R_CIRCUIT_SINK_COUNTS[name],
        seed=_SEEDS[name] if seed is None else seed,
        layout_size=_LAYOUT_SIZE,
        cap_range=(20.0, 80.0),
        num_groups=1,
        technology=technology,
    )
