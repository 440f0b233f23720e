"""Resource-algebra tests, including hypothesis properties on the vector
space structure that the whole mapping stack relies on."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.resources import RESOURCE_KINDS, ResourceVector, total


def vec(luts=0, ffs=0, bram=0, uram=0, dsps=0):
    return ResourceVector(luts, ffs, bram, uram, dsps)


nonneg = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)
vectors = st.builds(ResourceVector, nonneg, nonneg, nonneg, nonneg, nonneg)


class TestConstruction:
    def test_zero_is_all_zero(self):
        assert all(component == 0 for component in ResourceVector.zero())

    def test_from_dict_roundtrip(self):
        original = vec(1, 2, 3, 4, 5)
        assert ResourceVector.from_dict(dict(zip(RESOURCE_KINDS, original))) == original

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(TypeError):
            ResourceVector.from_dict({"luts": 1, "wires": 2})

    def test_kind_order_matches_iteration(self):
        v = vec(1, 2, 3, 4, 5)
        assert list(v) == [getattr(v, k) for k in RESOURCE_KINDS]


class TestArithmetic:
    def test_addition_componentwise(self):
        assert vec(1, 2) + vec(3, 4) == vec(4, 6)

    def test_subtraction(self):
        assert vec(5, 5) - vec(2, 1) == vec(3, 4)

    def test_scalar_multiplication(self):
        assert vec(2, 4) * 0.5 == vec(1, 2)

    def test_rmul(self):
        assert 3 * vec(1, 1) == vec(3, 3)

    def test_add_non_vector_rejected(self):
        with pytest.raises(TypeError):
            vec(1) + 3  # type: ignore[operator]


class TestContainment:
    def test_le_true_when_fits(self):
        assert vec(1, 1, 1, 1, 1) <= vec(2, 2, 2, 2, 2)

    def test_le_false_on_any_exceeding_component(self):
        assert not (vec(3, 1) <= vec(2, 2))


class TestMaxRatio:
    def test_binding_resource(self):
        demand = vec(luts=50, dsps=90)
        capacity = vec(luts=100, dsps=100)
        assert demand.max_ratio(capacity) == pytest.approx(0.9)

    def test_zero_demand_is_zero(self):
        assert vec().max_ratio(vec(luts=100)) == 0.0

    def test_impossible_demand_is_inf(self):
        assert vec(uram=5).max_ratio(vec(luts=100)) == math.inf

    def test_utilisation_reports_nan_for_zero_capacity(self):
        report = vec(luts=10).utilisation(vec(luts=100))
        assert report["luts"] == pytest.approx(0.1)
        assert math.isnan(report["uram_bits"])


class TestHelpers:
    def test_total_sums(self):
        assert total([vec(1), vec(2), vec(3)]) == vec(6)

    def test_total_empty_is_zero(self):
        assert total([]) == ResourceVector.zero()

    def test_ceil(self):
        assert vec(1.2, 2.0).ceil() == vec(2, 2)

    def test_describe_contains_all_kinds(self):
        text = vec(1000, 2000, 3e6, 0, 42).describe()
        for tag in ("LUT=", "FF=", "BRAM=", "URAM=", "DSP="):
            assert tag in text


# -- hypothesis properties -----------------------------------------------------


@given(vectors, vectors)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(vectors, vectors, vectors)
def test_addition_associates(a, b, c):
    left = (a + b) + c
    right = a + (b + c)
    for x, y in zip(left, right):
        assert x == pytest.approx(y)


@given(vectors)
def test_zero_is_identity(a):
    assert a + ResourceVector.zero() == a


@given(vectors, vectors)
def test_le_implies_max_ratio_at_most_one(a, b):
    if a <= b:
        assert a.max_ratio(b) <= 1.0 + 1e-9


@given(vectors, st.floats(min_value=0.0, max_value=100.0))
def test_scaling_preserves_containment(a, factor):
    scaled = a * factor
    if factor <= 1.0:
        assert scaled <= a or a == ResourceVector.zero() or any(
            component == 0 for component in a
        ) or scaled <= a
    # scaling by >= 1 never shrinks any component
    if factor >= 1.0:
        assert a <= scaled


@given(vectors)
def test_self_utilisation_is_one_or_nan(a):
    for kind, value in a.utilisation(a).items():
        component = getattr(a, kind)
        if component > 0:
            assert value == pytest.approx(1.0)
        else:
            assert math.isnan(value)
