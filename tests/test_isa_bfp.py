"""Block-floating-point tests: exactness, error bounds, and the matvec
behaviour the functional simulator builds on."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ISAError
from repro.isa.bfp import (
    BFPFormat,
    bfp_matvec,
    bfp_quantize,
    bfp_quantize_blocks,
    quantisation_error_bound,
    to_float16,
)


class TestFormat:
    def test_default_sane(self):
        fmt = BFPFormat()
        assert fmt.max_mantissa == 31
        assert fmt.block_size == 16

    def test_rejects_tiny_mantissa(self):
        with pytest.raises(ISAError):
            BFPFormat(mantissa_bits=1)

    def test_rejects_bad_block(self):
        with pytest.raises(ISAError):
            BFPFormat(block_size=0)


class TestQuantize:
    def test_zero_preserved(self):
        assert np.all(bfp_quantize(np.zeros(16)) == 0.0)

    def test_empty_array(self):
        assert bfp_quantize(np.array([])).size == 0

    def test_block_max_exactly_representable(self):
        values = np.zeros(16)
        values[3] = 5.0
        quantised = bfp_quantize(values)
        assert quantised[3] == pytest.approx(5.0)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=64)
        once = bfp_quantize(values)
        assert np.array_equal(bfp_quantize(once), once)

    def test_unaligned_length_padded_transparently(self):
        values = np.arange(1.0, 20.0)  # 19 values, not a block multiple
        quantised = bfp_quantize(values)
        assert quantised.shape == values.shape

    def test_aligned_fast_path_matches_padded_path(self):
        """Tile-aligned inputs skip the pad round-trip; values must match
        the general path exactly (append a padding-forcing element)."""
        rng = np.random.default_rng(3)
        values = rng.normal(size=32)  # two whole blocks
        aligned = bfp_quantize(values)
        unaligned = bfp_quantize(np.append(values, 1.0))[:-1]
        assert np.array_equal(aligned, unaligned)
        assert aligned.shape == values.shape

    def test_subnormal_block_max_does_not_nan(self):
        """Regression: a block max so small the shared-exponent scale
        underflows to zero used to produce NaNs (found by hypothesis)."""
        values = np.array([5e-324, 0.0])
        quantised = bfp_quantize(values)
        assert np.all(np.isfinite(quantised))
        assert np.all(np.abs(quantised - values) <= 5e-324)

    def test_matrix_blocks_along_rows(self):
        matrix = np.zeros((2, 16))
        matrix[0, :] = 100.0
        matrix[1, :] = 0.001
        quantised = bfp_quantize(matrix)
        # Each row has its own exponent, so the small row is not crushed.
        assert np.all(quantised[1, :] > 0)

    def test_shared_exponent_crushes_small_values_in_block(self):
        values = np.zeros(16)
        values[0] = 1000.0
        values[1] = 0.01  # far below one mantissa step of the block max
        quantised = bfp_quantize(values)
        assert quantised[1] == 0.0


class TestMatvec:
    def test_identity_matvec_returns_quantised_vector(self):
        matrix = bfp_quantize(np.eye(16))
        vector = bfp_quantize(np.arange(16.0))
        result = bfp_matvec(matrix, vector, quantize_vector=False)
        assert np.allclose(result, vector)

    def test_dimension_mismatch(self):
        with pytest.raises(ISAError):
            bfp_matvec(np.zeros((4, 8)), np.zeros(4))

    def test_non_matrix_rejected(self):
        with pytest.raises(ISAError):
            bfp_matvec(np.zeros(8), np.zeros(8))

    def test_error_small_relative(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(64, 64)) / 8.0
        vector = rng.normal(size=64)
        exact = matrix @ vector
        approx = bfp_matvec(bfp_quantize(matrix), vector)
        scale = np.max(np.abs(exact)) + 1e-9
        assert np.max(np.abs(approx - exact)) / scale < 0.15


class TestHelpers:
    def test_error_bound_formula(self):
        fmt = BFPFormat(mantissa_bits=6)
        assert quantisation_error_bound(fmt, 31.0) == pytest.approx(0.5)

    def test_to_float16_rounds(self):
        value = np.array([1.0 + 2**-13])
        assert to_float16(value)[0] == 1.0


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(min_value=1, max_value=80),
        elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    )
)
def test_quantisation_error_within_bound(values):
    """Every quantised value is within half a step of its block maximum."""
    fmt = BFPFormat()
    quantised = bfp_quantize(values, fmt)
    padded = np.pad(values, (0, (-len(values)) % fmt.block_size))
    blocks = padded.reshape(-1, fmt.block_size)
    quant_padded = np.pad(quantised, (0, (-len(values)) % fmt.block_size))
    quant_blocks = quant_padded.reshape(-1, fmt.block_size)
    for block, quant in zip(blocks, quant_blocks):
        bound = quantisation_error_bound(fmt, np.max(np.abs(block))) + 1e-12
        assert np.max(np.abs(block - quant)) <= bound


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(min_value=1, max_value=64),
        elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )
)
def test_quantisation_idempotent_property(values):
    fmt = BFPFormat()
    once = bfp_quantize(values, fmt)
    assert np.array_equal(bfp_quantize(once, fmt), once)


@settings(max_examples=50, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.integers(1, 80)),
        elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
)
def test_blocks_share_a_power_of_two_scale(values):
    """Every nonzero block's scale is the power of two ``2**e`` with ``e =
    ceil(log2(block_max / max_mantissa))``, and every value of it is an
    integer mantissa in ``[-max - 1, max]`` times that scale; all-zero
    blocks report a NaN exponent."""
    fmt = BFPFormat()
    quantised, exponents = bfp_quantize_blocks(values, fmt)
    pad = (-values.shape[-1]) % fmt.block_size
    blocks = np.pad(values, ((0, 0), (0, pad))).reshape(
        values.shape[0], -1, fmt.block_size
    )
    quant_blocks = np.pad(quantised, ((0, 0), (0, pad))).reshape(blocks.shape)
    assert exponents.shape == blocks.shape[:-1]
    for block, quant, exponent in zip(
        blocks.reshape(-1, fmt.block_size),
        quant_blocks.reshape(-1, fmt.block_size),
        exponents.ravel(),
    ):
        if not quant.any():
            assert np.isnan(exponent)
            continue
        assert exponent == int(exponent)
        scale = 2.0 ** int(exponent)
        ratio = np.max(np.abs(block)) / fmt.max_mantissa
        assert scale / 2 < ratio <= scale
        mantissas = quant / scale
        assert np.array_equal(mantissas, np.rint(mantissas))
        assert mantissas.min() >= -fmt.max_mantissa - 1
        assert mantissas.max() <= fmt.max_mantissa


def _clipped_quantize(values, fmt):
    """The quantiser with its mantissas always clipped to ``[-max - 1,
    max]`` (aligned input only): the formula ``bfp_quantize`` must match
    bit for bit while it clips only blocks with a subnormal ratio."""
    blocks = values.reshape(-1, fmt.block_size)
    ratio = np.max(np.abs(blocks), axis=-1, keepdims=True) / fmt.max_mantissa
    fraction, exponent = np.frexp(ratio)
    exponent -= fraction == 0.5
    scale = np.where(np.isfinite(ratio), np.ldexp(1.0, exponent), ratio)
    mantissas = np.clip(
        np.rint(blocks / scale), -fmt.max_mantissa - 1, fmt.max_mantissa
    )
    return (mantissas * scale).reshape(values.shape)


def _boundary_blocks(fmt):
    """Blocks whose maximum sits at and next to ``max_mantissa * 2**k``
    (normal, subnormal and near-overflow ``k``, either sign), subnormal
    multiples of the smallest float, zero blocks and non-finite blocks.
    The subnormal maxima are where the clip still bites: ``46 * 2**-1074``
    rounds to a ratio of ``2**-1074`` and a mantissa of 46, clipped to 31."""
    fractions = np.linspace(-1.0, 1.0, fmt.block_size - 1)
    maxima = []
    for k in [*range(-1085, -1060), *range(-1030, -1015), *range(-6, 7),
              *range(990, 994)]:
        edge = np.ldexp(float(fmt.max_mantissa), k)
        maxima += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
    maxima += [n * 5e-324 for n in range(1, 400)]
    blocks = []
    for peak in maxima:
        for sign in (1.0, -1.0):
            blocks.append(np.append(sign * peak, peak * fractions))
    blocks.append(np.zeros(fmt.block_size))
    blocks.append(-np.zeros(fmt.block_size))
    for special in (np.inf, -np.inf, np.nan):
        blocks.append(np.append(special, fractions))
    return np.array(blocks)


def test_quantisation_matches_clipped_formula_at_boundaries():
    fmt = BFPFormat()
    values = _boundary_blocks(fmt)
    with np.errstate(invalid="ignore"):
        expected = _clipped_quantize(values, fmt)
        quantised = bfp_quantize(values, fmt)
    assert np.array_equal(quantised.view(np.int64), expected.view(np.int64))
