"""Tests for repro.delay.wire."""

import pytest

from repro.delay.technology import Technology
from repro.delay.wire import wire_capacitance, wire_delay, wire_length_for_delay


@pytest.fixture
def tech():
    return Technology.r_benchmark()


class TestWireDelay:
    def test_zero_length_has_zero_delay(self, tech):
        assert wire_delay(0.0, 100.0, tech) == 0.0

    def test_hand_computed_value(self, tech):
        # r*L*(c*L/2 + C) = 0.003 * 1000 * (0.02*1000/2 + 50) = 3 * 60 = 180 fs
        assert wire_delay(1000.0, 50.0, tech) == pytest.approx(180.0)

    def test_negative_length_raises(self, tech):
        with pytest.raises(ValueError):
            wire_delay(-1.0, 0.0, tech)

    def test_monotone_in_length(self, tech):
        delays = [wire_delay(length, 30.0, tech) for length in (0, 10, 100, 1000, 10000)]
        assert delays == sorted(delays)
        assert len(set(delays)) == len(delays)

    def test_monotone_in_load(self, tech):
        assert wire_delay(500.0, 10.0, tech) < wire_delay(500.0, 100.0, tech)


class TestWireCapacitance:
    def test_value(self, tech):
        assert wire_capacitance(1000.0, tech) == pytest.approx(20.0)

    def test_negative_length_raises(self, tech):
        with pytest.raises(ValueError):
            wire_capacitance(-5.0, tech)


class TestInversion:
    def test_roundtrip(self, tech):
        for length in (0.0, 5.0, 123.0, 9876.0):
            for cap in (0.0, 10.0, 500.0):
                delay = wire_delay(length, cap, tech)
                assert wire_length_for_delay(delay, cap, tech) == pytest.approx(length, abs=1e-6)

    def test_zero_target_gives_zero_length(self, tech):
        assert wire_length_for_delay(0.0, 100.0, tech) == 0.0

    def test_negative_target_raises(self, tech):
        with pytest.raises(ValueError):
            wire_length_for_delay(-1.0, 10.0, tech)

    def test_zero_downstream_cap(self, tech):
        # With C = 0 the equation degenerates to (r*c/2) L^2 = target; the
        # closed form must still return the positive root, not 0/0.
        target = 500.0
        length = wire_length_for_delay(target, 0.0, tech)
        assert length > 0.0
        assert wire_delay(length, 0.0, tech) == pytest.approx(target, rel=1e-12)

    def test_zero_target_with_zero_cap(self, tech):
        assert wire_length_for_delay(0.0, 0.0, tech) == 0.0

    def test_tiny_target_with_zero_cap_stays_finite(self, tech):
        length = wire_length_for_delay(1e-12, 0.0, tech)
        assert 0.0 < length < 1.0

    def test_large_cap_is_linear_regime(self, tech):
        # With a huge downstream cap the quadratic term vanishes: the length
        # approaches target / (r * C).  The closed form cancels catastrophically
        # in this regime (-b + sqrt(b^2 + eps)), so only ~3 digits survive.
        target, cap = 1000.0, 1e9
        length = wire_length_for_delay(target, cap, tech)
        assert length == pytest.approx(target / (tech.unit_resistance * cap), rel=5e-3)
