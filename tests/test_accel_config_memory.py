"""Accelerator-configuration and parameterised-memory tests."""

import pytest

from repro.accel.config import (
    BRAM36_BITS,
    BW_K115,
    BW_V37,
    URAM288_BITS,
    WORD_BITS,
    AcceleratorConfig,
    MemoryPlan,
    scaled_config,
)
from repro.accel.memory import (
    build_weight_memory,
    memory_resources,
)
from repro.errors import ReproError
from repro.rtl import validate_design
from repro.rtl.ir import Design
from repro.units import mhz, to_tflops


class TestMemoryPlan:
    def test_usable_bits_uram_limited(self):
        """The unified 512-word interface wastes 7/8 of each URAM —
        the under-utilisation the paper points out (Section 3)."""
        plan = MemoryPlan(bram_blocks_per_tile=0, uram_blocks_per_tile=1)
        assert plan.usable_bits_per_tile == 512 * 72
        assert plan.usable_bits_per_tile < URAM288_BITS

    def test_uram_utilisation_fraction(self):
        plan = MemoryPlan(bram_blocks_per_tile=0, uram_blocks_per_tile=4)
        assert plan.usable_bits_per_tile / (4 * URAM288_BITS) == pytest.approx(
            512 * 72 / URAM288_BITS
        )

    def test_usable_words(self):
        plan = MemoryPlan(bram_blocks_per_tile=1, uram_blocks_per_tile=0)
        assert plan.usable_bits_per_tile // WORD_BITS == 512


class TestAcceleratorConfig:
    def test_rejects_zero_tiles(self):
        with pytest.raises(ReproError):
            AcceleratorConfig(name="bad", tiles=0)

    def test_peak_flops(self):
        config = AcceleratorConfig(
            name="c", tiles=21, frequency_hz=mhz(400)
        )
        assert to_tflops(config.peak_flops) == pytest.approx(34.4, rel=0.01)

    def test_k115_peak(self):
        assert to_tflops(BW_K115.peak_flops) == pytest.approx(16.0, rel=0.01)

    def test_macs_per_cycle(self):
        config = AcceleratorConfig(name="c", tiles=2)
        assert config.macs_per_cycle == 2 * 128 * 16

    def test_weight_capacity_sums_tiles(self):
        assert (
            BW_V37.weight_capacity_bits
            == 21 * BW_V37.memory.usable_bits_per_tile
        )

    def test_resident_fraction_clamps_at_one(self):
        assert BW_V37.weights_resident_fraction(10) == 1.0

    def test_resident_fraction_partial(self):
        huge = BW_V37.weight_capacity_bits  # bits; words = bits/weight_bits
        words = int(2 * huge / BW_V37.weight_bits)
        assert BW_V37.weights_resident_fraction(words) == pytest.approx(0.5)

    def test_with_frequency(self):
        faster = BW_K115.with_frequency(mhz(400))
        assert faster.frequency_hz == mhz(400)
        assert faster.tiles == BW_K115.tiles

    def test_with_tiles_names(self):
        small = BW_V37.with_tiles(4)
        assert small.tiles == 4
        assert "4" in small.name


class TestScaledConfig:
    def test_halves_tiles(self):
        assert scaled_config(BW_V37, 2).tiles == 10

    def test_never_below_one(self):
        assert scaled_config(BW_V37.with_tiles(2), 8).tiles == 1

    def test_rejects_bad_factor(self):
        with pytest.raises(ReproError):
            scaled_config(BW_V37, 0)

    def test_name_records_factor(self):
        assert "sd2" in scaled_config(BW_V37, 2).name


class TestWeightMemoryModule:
    def _design_with(self, module):
        design = Design("d")
        design.add_module(module)
        design.top = module.name
        return design

    def test_mixed_plan_builds_valid_module(self):
        module = build_weight_memory(MemoryPlan(70, 4))
        warnings = validate_design(self._design_with(module))
        assert all("dangling" in w or "undriven" in w for w in warnings)

    def test_bram_only_plan(self):
        module = build_weight_memory(MemoryPlan(100, 0), name="wm_k")
        cells = {inst.module_name for inst in module.instances.values()}
        assert cells == {"BRAM36"}

    def test_declared_resources_match_plan(self):
        plan = MemoryPlan(70, 4)
        module = build_weight_memory(plan)
        declared = module.attributes["resources"]
        assert declared.bram_bits == 70 * BRAM36_BITS
        assert declared.uram_bits == 4 * URAM288_BITS

    def test_resources_helper_includes_interface_logic(self):
        assert memory_resources(MemoryPlan(10, 0)).luts > 0

    def test_unified_interface_ports(self):
        module = build_weight_memory(MemoryPlan(1, 0))
        assert module.ports["dout"].width == 72
        assert module.ports["addr_r"].width == 9

    def test_degenerate_plan(self):
        module = build_weight_memory(MemoryPlan(0, 0))
        assert not module.instances  # pass-through only
