"""Elmore delay of a single wire segment under the pi model.

A wire of length ``L`` driving a downstream capacitance ``C`` contributes an
Elmore delay of ``r * L * (c * L / 2 + C)`` where ``r`` and ``c`` are the unit
resistance and capacitance.  This quadratic-in-length expression is the
building block of every balancing equation in the DME / BST / AST-DME family,
including the wire-snaking equations (5.1)-(5.3) of the paper.
"""

from __future__ import annotations

import math

from repro.delay.technology import Technology

__all__ = [
    "wire_delay",
    "wire_capacitance",
    "wire_length_for_delay",
]


def wire_delay(length: float, downstream_cap: float, tech: Technology) -> float:
    """Elmore delay through a wire of ``length`` driving ``downstream_cap``.

    Lengths are in micrometres, capacitances in femtofarads; the result is in
    internal time units (femtoseconds).
    """
    if length < 0.0:
        raise ValueError("wire length must be non-negative")
    r = tech.unit_resistance
    c = tech.unit_capacitance
    return r * length * (c * length / 2.0 + downstream_cap)


def wire_capacitance(length: float, tech: Technology) -> float:
    """Total capacitance added by a wire of ``length``."""
    if length < 0.0:
        raise ValueError("wire length must be non-negative")
    return tech.unit_capacitance * length


def wire_length_for_delay(target_delay: float, downstream_cap: float, tech: Technology) -> float:
    """Invert :func:`wire_delay`: the length whose Elmore delay equals ``target_delay``.

    Used for wire snaking: when a merge needs more delay on one side than the
    direct connection provides, the extra wire length is the positive root of

        (r * c / 2) * L^2 + r * C * L - target = 0.

    ``target_delay`` must be non-negative; the result is 0 for a zero target.
    """
    if target_delay < 0.0:
        raise ValueError("target delay must be non-negative")
    if target_delay == 0.0:
        return 0.0
    r = tech.unit_resistance
    c = tech.unit_capacitance
    a = r * c / 2.0
    b = r * downstream_cap
    discriminant = b * b + 4.0 * a * target_delay
    # Citardauq form of the positive root.  The textbook
    # ``(-b + sqrt(b^2 + 4at)) / (2a)`` cancels catastrophically when
    # ``b^2`` dominates ``4at`` (large downstream cap against a tiny target,
    # or extreme r*c scalings); here the two added terms share a sign, so the
    # result is accurate at every scale.
    return (2.0 * target_delay) / (b + math.sqrt(discriminant))
