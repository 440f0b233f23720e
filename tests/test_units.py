"""Unit-helper tests."""

import pytest
from hypothesis import given, strategies as st

from repro import units


class TestTimeConversions:
    def test_us_roundtrip(self):
        assert units.to_ms(units.us(600)) == pytest.approx(0.6)

    def test_ms_roundtrip(self):
        assert units.to_ms(units.ms(5.01)) == pytest.approx(5.01)

    def test_ordering(self):
        assert units.us(1) < units.ms(1)


class TestFrequency:
    def test_mhz_roundtrip(self):
        assert units.to_mhz(units.mhz(400)) == pytest.approx(400)

    def test_mhz_value(self):
        assert units.mhz(300) == pytest.approx(3e8)


class TestMemory:
    def test_mbit_roundtrip(self):
        assert units.to_mbit(units.mbit(51.5)) == pytest.approx(51.5)

    def test_kbit_mbit_relation(self):
        assert units.mbit(1) == 1024 * units.KBIT


class TestCompute:
    def test_tflops_roundtrip(self):
        assert units.to_tflops(units.tflops(36.0)) == pytest.approx(36.0)


class TestFormatting:
    def test_fmt_bits_mb(self):
        assert units.fmt_bits(units.mbit(51.5)) == "51.5 Mb"

    def test_fmt_bits_small(self):
        assert units.fmt_bits(100) == "100 b"


@given(st.floats(min_value=1e-9, max_value=1e3, allow_nan=False))
def test_time_conversion_is_monotone_and_invertible(value):
    assert units.to_ms(units.ms(value)) == pytest.approx(value, rel=1e-12)
    assert units.to_ms(units.us(value)) == pytest.approx(value / 1000, rel=1e-12)
