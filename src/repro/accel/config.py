"""Accelerator instance parameters.

The paper generates accelerator *instances* with different numbers of tile
engines "to account for the varying performance/cost demands" (Section 3)
and fits one instance to each FPGA type by adjusting the tile count
(Section 4.2, Table 2): 21 tiles on the XCVU37P (BW-V37), 13 tiles on the
XCKU115 (BW-K115).

Calibration notes (documented once here, used by the generator and timing
model):

* Each tile engine processes a ``native_rows x native_lanes`` block of
  matrix elements per cycle.  With the default 128x16 block, peak throughput
  is ``tiles * 128 * 16 * 2 FLOP/cycle``: 34.4 TFLOPS for 21 tiles at
  400 MHz and 16.0 TFLOPS for 13 tiles at 300 MHz — within 5% of the
  36 / 16.7 TFLOPS of Table 2 (the paper's figure also counts MFU FLOPs).
* Per-tile weight memory follows Table 2's utilisation: ~70 BRAM36 + 4
  URAM288 per tile on the VU37P, ~100 BRAM36 (no URAM) on the KU115.  The
  unified 512-word interface under-utilises URAM capacity exactly as the
  paper observes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ReproError
from ..units import mhz

#: Bits stored per BRAM36 / URAM288 block.
BRAM36_BITS = 36 * 1024
URAM288_BITS = 288 * 1024

#: Words per block under the unified 512-word memory interface.  A URAM288
#: natively holds 4096 x 72b words but the unified interface only exposes
#: 512, wasting 7/8 of its capacity (paper Section 3).
UNIFIED_WORDS = 512
WORD_BITS = 72


@dataclass(frozen=True)
class MemoryPlan:
    """Per-tile weight-memory composition for one device mapping."""

    bram_blocks_per_tile: int
    uram_blocks_per_tile: int = 0

    @property
    def usable_bits_per_tile(self) -> int:
        """Bits addressable through the unified interface.

        BRAM blocks are fully usable; URAM blocks expose only
        ``UNIFIED_WORDS`` of their 4096 words.
        """
        return (
            self.bram_blocks_per_tile * BRAM36_BITS
            + self.uram_blocks_per_tile * UNIFIED_WORDS * WORD_BITS
        )


@dataclass(frozen=True)
class AcceleratorConfig:
    """One accelerator instance.

    Attributes:
        name: instance label (e.g. ``"BW-V37"``).
        tiles: number of SIMD compute lanes (MVM tile engines).
        native_rows / native_lanes: matrix block one tile consumes per cycle.
        mfu_lanes_per_tile: float16 MFU lanes attached to each tile's slice.
        memory: per-tile weight memory plan.
        weight_bits: BFP storage bits per weight (mantissa + amortised
            exponent share).
        vector_registers / matrix_registers / max_vector_length: ISA limits.
        instruction_buffer_bytes: on-chip instruction buffer size; programs
            larger than this spill to DRAM (Section 4.4's isolation argument
            relies on programs fitting).
        frequency_hz: achieved clock (device-dependent).
    """

    name: str
    tiles: int
    native_rows: int = 128
    native_lanes: int = 16
    mfu_lanes_per_tile: int = 4
    memory: MemoryPlan = MemoryPlan(bram_blocks_per_tile=70, uram_blocks_per_tile=4)
    weight_bits: int = 7
    vector_registers: int = 64
    matrix_registers: int = 64
    max_vector_length: int = 4096
    instruction_buffer_bytes: int = 32 * 1024
    frequency_hz: float = mhz(400)

    def __post_init__(self):
        if self.tiles < 1:
            raise ReproError(f"accelerator {self.name!r} needs at least one tile")
        if self.native_rows < 1 or self.native_lanes < 1:
            raise ReproError("native tile dimensions must be positive")

    # -- derived quantities -------------------------------------------------------

    @property
    def macs_per_cycle(self) -> int:
        """Multiply-accumulates per cycle across all tiles."""
        return self.tiles * self.native_rows * self.native_lanes

    @property
    def peak_flops(self) -> float:
        """Peak FLOP/s (2 FLOPs per MAC)."""
        return 2.0 * self.macs_per_cycle * self.frequency_hz

    @property
    def mfu_total_lanes(self) -> int:
        """Aggregate float16 lanes across all MFU slices."""
        return self.tiles * self.mfu_lanes_per_tile

    @property
    def weight_capacity_bits(self) -> int:
        """Usable on-chip weight storage (unified interface)."""
        return self.tiles * self.memory.usable_bits_per_tile

    def weights_resident_fraction(self, weight_count: int) -> float:
        """Fraction of ``weight_count`` parameters held on chip.

        Below 1.0 the matrix-vector unit must stream weights from DRAM,
        which dominates latency for large models on memory-poor devices —
        the effect behind the larger KU115 latencies in Table 4.
        """
        need = weight_count * self.weight_bits
        if need <= 0:
            return 1.0
        return min(1.0, self.weight_capacity_bits / need)

    # -- instance derivation -----------------------------------------------------------

    def with_frequency(self, frequency_hz: float) -> "AcceleratorConfig":
        """Copy at a different achieved clock."""
        return replace(self, frequency_hz=frequency_hz)

    def with_tiles(self, tiles: int, name: str | None = None) -> "AcceleratorConfig":
        """Copy with a different tile count (scale up/down)."""
        return replace(self, tiles=tiles, name=name or f"{self.name}x{tiles}")


def scaled_config(base: AcceleratorConfig, factor: int) -> AcceleratorConfig:
    """The scale-down transformation of Section 2.3: keep the control path,
    divide the data-parallel units by ``factor``."""
    if factor < 1:
        raise ReproError("scale-down factor must be >= 1")
    tiles = max(1, base.tiles // factor)
    return base.with_tiles(tiles, name=f"{base.name}/sd{factor}")


#: The two baseline instances of Table 2.
BW_V37 = AcceleratorConfig(
    name="BW-V37",
    tiles=21,
    memory=MemoryPlan(bram_blocks_per_tile=70, uram_blocks_per_tile=4),
    frequency_hz=mhz(400),
)

BW_K115 = AcceleratorConfig(
    name="BW-K115",
    tiles=13,
    memory=MemoryPlan(bram_blocks_per_tile=100, uram_blocks_per_tile=0),
    frequency_hz=mhz(300),
)
