"""Block floating point (BFP) arithmetic.

The accelerator uses BFP for matrix-vector multiplication "to increase the
computing capability" and float16 for secondary operations "to avoid
quantization noise" (paper Section 3).  In BFP a block of values shares one
exponent; each value keeps only a narrow signed mantissa, so a multiply is a
cheap integer multiply and the expensive alignment is amortised per block.

We implement the quantisation exactly (shared exponent = exponent of the
block maximum, round-to-nearest mantissas) so the functional simulator
reproduces the numerical behaviour of the hardware datapath, and tests can
bound the quantisation error.
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

    @property
    def quantisation_step(self) -> float:
        """Relative step size within a block (worst case, at the block max)."""
        return 1.0 / self.max_mantissa


DEFAULT_FORMAT = BFPFormat()


def _pad_to_blocks(array: np.ndarray, block: int) -> np.ndarray:
    """Pad the last axis to a multiple of ``block`` with zeros."""
    remainder = array.shape[-1] % block
    if remainder == 0:
        return array
    pad = [(0, 0)] * array.ndim
    pad[-1] = (0, block - remainder)
    return np.pad(array, pad)


def bfp_quantize(values: np.ndarray, fmt: BFPFormat = DEFAULT_FORMAT) -> np.ndarray:
    """Quantise ``values`` to BFP and return the dequantised float result.

    Blocks run along the last axis (matrix rows quantise per row-block, the
    layout the tile engines consume).  The returned array is float64 but
    contains only exactly-representable BFP values.

    Tile-aligned inputs (last axis already a multiple of the block size —
    the common case: engines consume whole tiles) skip the pad/unpad
    round-trip; the block maxima, scales and mantissas are still
    temporaries the size of the input.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values
    original_shape = values.shape
    padded = _pad_to_blocks(values, fmt.block_size)
    blocked = padded.reshape(*padded.shape[:-1], -1, fmt.block_size)
    block_max = np.max(np.abs(blocked), axis=-1, keepdims=True)
    # Shared exponent: scale so the block max maps to the mantissa range.
    # Blocks whose max is zero — or so deeply subnormal the scale underflows
    # to zero — quantise against unit scale (everything rounds to 0).
    scale = np.where(block_max > 0, block_max / fmt.max_mantissa, 1.0)
    scale = np.where(scale > 0, scale, 1.0)
    mantissas = np.clip(
        np.rint(blocked / scale), -fmt.max_mantissa - 1, fmt.max_mantissa
    )
    dequant = mantissas * scale
    if padded is values:
        # Aligned fast path: no padding was added, reshape is a view.
        return dequant.reshape(original_shape)
    flat = dequant.reshape(padded.shape)
    slicer = tuple(slice(0, dim) for dim in original_shape)
    return flat[slicer]


def bfp_dequantize(values: np.ndarray) -> np.ndarray:
    """BFP values dequantise to themselves (stored dequantised); identity.

    Kept as an explicit API so call sites document where dequantisation
    happens in the hardware pipeline (the BFP-to-FP16 converter).
    """
    return np.asarray(values, dtype=np.float64)


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
    maximum magnitude is ``block_magnitude`` (half a step)."""
    return 0.5 * block_magnitude / fmt.max_mantissa


def to_float16(values: np.ndarray) -> np.ndarray:
    """Round through IEEE float16 — the MFUs' native precision."""
    return np.asarray(values, dtype=np.float16).astype(np.float64)
