"""Benchmark circuits and sink-group generators.

The paper evaluates on the classic r1-r5 clock benchmarks with two families of
sink groupings:

* *clustered* groups (Table I): the layout is divided into as many rectangles
  as there are groups and sinks are grouped by rectangle;
* *intermingled* groups (Table II): sinks of different groups are spatially
  mixed -- the "difficult instances" of the title.

The original benchmark files are not redistributable, so
:mod:`repro.circuits.r_circuits` generates synthetic instances with the same
sink counts, layout scale and electrical parameters (its docstring gives the
substitution rationale).  Instances can be saved to / loaded from a simple
text format for reproducibility.
"""

from repro.circuits.instance import ClockInstance, Sink, SinkTable
from repro.circuits.r_circuits import R_CIRCUIT_SINK_COUNTS, available_circuits, make_r_circuit
from repro.circuits.grouping import (
    clustered_groups,
    intermingled_groups,
    grouping_mixing_index,
    striped_groups,
)
from repro.circuits.generator import random_instance
from repro.circuits.io import load_instance, save_instance
from repro.circuits.benchmarks import (
    BenchmarkFormatError,
    available_families,
    blocked_instance,
    clustered_instance,
    generate_instance,
    load_benchmark,
    ring_instance,
    save_benchmark,
)

__all__ = [
    "BenchmarkFormatError",
    "ClockInstance",
    "R_CIRCUIT_SINK_COUNTS",
    "Sink",
    "SinkTable",
    "available_circuits",
    "available_families",
    "blocked_instance",
    "clustered_groups",
    "clustered_instance",
    "generate_instance",
    "load_benchmark",
    "ring_instance",
    "save_benchmark",
    "grouping_mixing_index",
    "intermingled_groups",
    "load_instance",
    "make_r_circuit",
    "random_instance",
    "save_instance",
    "striped_groups",
]
