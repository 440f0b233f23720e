"""Block floating point (BFP) arithmetic.

The accelerator uses BFP for matrix-vector multiplication "to increase the
computing capability" and float16 for secondary operations "to avoid
quantization noise" (paper Section 3).  In BFP a block of values shares one
exponent; each value keeps only a narrow signed integer mantissa, so a
multiply is a cheap integer multiply and the expensive alignment is
amortised per block.

The quantisation is exact in that sense: each block's scale is the power
of two ``2**e`` with ``e = ceil(log2(block_max / max_mantissa))`` (the
shared exponent), and every value becomes an integer mantissa in
``[-max_mantissa - 1, max_mantissa]`` times that scale, rounded to nearest.
A quantised value is therefore a small integer times a power of two, so
products and sums of them are exact in float64 whenever the exponents
involved stay within the significand (see :func:`bfp_quantize_blocks`).
The functional simulator reproduces the numerical behaviour of the
hardware datapath this way, and tests can bound the quantisation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ISAError


@dataclass(frozen=True)
class BFPFormat:
    """A BFP format: mantissa width (sign included) and block size.

    BrainWave's published configurations use ms-fp8/ms-fp9-style formats —
    a shared 5-bit exponent over blocks of values with 2-5 bit mantissas.
    Our default (6-bit mantissa incl. sign, blocks of 16) is in that family
    and keeps GRU/LSTM end-to-end error small enough for inference.
    """

    mantissa_bits: int = 6
    block_size: int = 16

    def __post_init__(self):
        if self.mantissa_bits < 2:
            raise ISAError("BFP needs at least a sign and one magnitude bit")
        if self.block_size < 1:
            raise ISAError("BFP block size must be positive")

    @property
    def max_mantissa(self) -> int:
        """Largest representable positive mantissa value."""
        return (1 << (self.mantissa_bits - 1)) - 1


DEFAULT_FORMAT = BFPFormat()

#: Binary exponent of the smallest normal float64 (``2**-1022``).
_MIN_NORMAL_EXPONENT = np.finfo(np.float64).minexp


def _pad_to_blocks(array: np.ndarray, block: int) -> np.ndarray:
    """Pad the last axis to a multiple of ``block`` with zeros."""
    remainder = array.shape[-1] % block
    if remainder == 0:
        return array
    pad = [(0, 0)] * array.ndim
    pad[-1] = (0, block - remainder)
    return np.pad(array, pad)


def _shared_exponent(ratio: np.ndarray) -> np.ndarray:
    """``ceil(log2(ratio))`` for positive finite ``ratio``, computed
    exactly (``frexp`` splits off the binary exponent; a ratio that is
    itself a power of two keeps its own).  Zero maps to exponent 0."""
    fraction, exponent = np.frexp(ratio)
    exponent -= fraction == 0.5
    return exponent


def _quantize(values: np.ndarray, fmt: BFPFormat) -> tuple:
    """``(quantised, ratio, exponent)``: the dequantised values, and per
    block (a trailing axis of length 1) ``block_max / max_mantissa`` and
    the scale exponent."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        empty = np.zeros((*values.shape[:-1], 0, 1))
        return values, empty, empty.astype(np.int32)
    original_shape = values.shape
    padded = _pad_to_blocks(values, fmt.block_size)
    blocked = padded.reshape(*padded.shape[:-1], -1, fmt.block_size)
    ratio = np.max(np.abs(blocked), axis=-1, keepdims=True) / fmt.max_mantissa
    exponent = _shared_exponent(ratio)
    # Shared exponent: the smallest power-of-two scale that maps the block
    # max into the mantissa range.  Blocks whose max is zero — or so deeply
    # subnormal the ratio underflows to zero — quantise against unit scale
    # (everything rounds to 0); a block holding inf or NaN keeps its
    # non-finite ratio as the scale and dequantises to NaN.
    scale = np.where(np.isfinite(ratio), np.ldexp(1.0, exponent), ratio)
    mantissas = np.rint(blocked / scale)
    # ``scale >= ratio`` and dividing by a power of two is exact, so a
    # normal ratio (rounded to within 2**-53) keeps every mantissa in
    # [-max_mantissa, max_mantissa].  A ratio rounded on the subnormal grid
    # can fall far below ``block_max / max_mantissa``: only then clip.
    if exponent.min() <= _MIN_NORMAL_EXPONENT:
        np.clip(mantissas, -fmt.max_mantissa - 1, fmt.max_mantissa, out=mantissas)
    dequant = mantissas * scale
    if padded is values:
        # Aligned fast path: no padding was added, reshape is a view.
        return dequant.reshape(original_shape), ratio, exponent
    flat = dequant.reshape(padded.shape)
    slicer = tuple(slice(0, dim) for dim in original_shape)
    return flat[slicer], ratio, exponent


def bfp_quantize(values: np.ndarray, fmt: BFPFormat = DEFAULT_FORMAT) -> np.ndarray:
    """Quantise ``values`` to BFP and return the dequantised float result.

    Blocks run along the last axis (matrix rows quantise per row-block, the
    layout the tile engines consume).  The returned array is float64 but
    contains only exactly-representable BFP values: per block, an integer
    mantissa times the block's power-of-two scale.

    Tile-aligned inputs (last axis already a multiple of the block size —
    the common case: engines consume whole tiles) skip the pad/unpad
    round-trip; the block maxima, scales and mantissas are still
    temporaries the size of the input.
    """
    return _quantize(values, fmt)[0]


def bfp_quantize_blocks(
    values: np.ndarray, fmt: BFPFormat = DEFAULT_FORMAT
) -> tuple[np.ndarray, np.ndarray]:
    """``(quantised, exponents)``: :func:`bfp_quantize`'s result and each
    block's shared exponent.

    ``exponents`` has the shape of ``quantised`` with the last axis
    replaced by one entry per block: the integer ``e`` of the block's
    scale ``2**e`` (as float64), ``NaN`` for a block that quantises to all
    zeros (its scale multiplies nothing), ``+inf`` for a block holding
    ``inf`` or ``NaN``.  Every value of a block with exponent ``e`` is an
    integer multiple of ``2**e`` no larger than ``2**(e + mantissa_bits -
    1)`` in magnitude — what an exactness argument about sums of products
    needs.
    """
    quantised, ratio, exponent = _quantize(values, fmt)
    exponents = np.where(
        np.isfinite(ratio), np.where(ratio > 0, exponent, np.nan), np.inf
    )
    return quantised, exponents[..., 0]


def bfp_matvec(
    matrix: np.ndarray,
    vector: np.ndarray,
    fmt: BFPFormat = DEFAULT_FORMAT,
    quantize_vector: bool = True,
) -> np.ndarray:
    """Matrix-vector product as the BFP tile engines compute it.

    The matrix is assumed already BFP-quantised (done once at ``M_RD``).
    The input vector passes through the FP16-to-BFP converter
    (``quantize_vector=True``), products accumulate in wide fixed point —
    modelled as exact float64 accumulation.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    vector = np.asarray(vector, dtype=np.float64)
    if matrix.ndim != 2:
        raise ISAError(f"bfp_matvec expects a 2-D matrix, got shape {matrix.shape}")
    if vector.ndim != 1 or vector.shape[0] != matrix.shape[1]:
        raise ISAError(
            f"dimension mismatch: matrix {matrix.shape} @ vector {vector.shape}"
        )
    if quantize_vector:
        vector = bfp_quantize(vector, fmt)
    return matrix @ vector


def quantisation_error_bound(fmt: BFPFormat, block_magnitude: float) -> float:
    """Worst-case absolute error of one quantised value in a block whose
    maximum magnitude is ``block_magnitude``: half the block's
    power-of-two step, ``0.5 * 2**ceil(log2(block_magnitude /
    max_mantissa))``, which is at most ``block_magnitude / max_mantissa``.
    A block whose ratio is zero (all zeros, or so small it underflows)
    rounds every value to 0, an error of at most ``block_magnitude``."""
    ratio = np.float64(block_magnitude) / fmt.max_mantissa
    if ratio == 0:
        return float(block_magnitude)
    return float(np.ldexp(0.5, _shared_exponent(ratio)))


def to_float16(values: np.ndarray) -> np.ndarray:
    """Round through IEEE float16 — the MFUs' native precision."""
    return np.asarray(values, dtype=np.float16).astype(np.float64)
