"""RTL-generator tests: structure, resource calibration against Table 2,
and the decomposition contract of Section 3."""

import pytest

from repro.accel import BW_K115, BW_V37, CONTROL_MODULES, generate_accelerator
from repro.rtl import design_resources, is_basic_module, validate_design
from repro.units import to_mbit


class TestStructure:
    def test_validates(self, small_accel_design):
        validate_design(small_accel_design)

    def test_top_has_one_lane_per_tile(self, small_accel_design, small_accel_config):
        top = small_accel_design.modules["top"]
        lanes = [
            inst for inst in top.instances.values()
            if inst.module_name == "compute_lane"
        ]
        assert len(lanes) == small_accel_config.tiles

    def test_control_modules_exist(self, small_accel_design):
        for name in CONTROL_MODULES:
            assert small_accel_design.has_module(name)

    def test_lane_stages_are_basic(self, small_accel_design):
        for name in ("weight_mem", "mac_array", "lane_acc", "mfu_slice"):
            assert is_basic_module(small_accel_design, name)

    def test_lane_is_hierarchical(self, small_accel_design):
        assert not is_basic_module(small_accel_design, "compute_lane")
        assert not is_basic_module(small_accel_design, "mvm_tile")


class TestResourceCalibration:
    """The generator's estimates must land near Table 2's published
    utilisation (within 15% — they are calibrated, not copied)."""

    def test_bw_v37_luts(self):
        demand = design_resources(generate_accelerator(BW_V37))
        assert demand.luts == pytest.approx(610e3, rel=0.15)

    def test_bw_v37_ffs(self):
        demand = design_resources(generate_accelerator(BW_V37))
        assert demand.ffs == pytest.approx(659e3, rel=0.15)

    def test_bw_v37_dsps(self):
        demand = design_resources(generate_accelerator(BW_V37))
        assert demand.dsps == pytest.approx(7517, rel=0.15)

    def test_bw_v37_bram(self):
        demand = design_resources(generate_accelerator(BW_V37))
        assert to_mbit(demand.bram_bits) == pytest.approx(51.5, rel=0.15)

    def test_bw_v37_uram(self):
        demand = design_resources(generate_accelerator(BW_V37))
        assert to_mbit(demand.uram_bits) == pytest.approx(22.5, rel=0.15)

    def test_bw_k115_no_uram(self):
        demand = design_resources(generate_accelerator(BW_K115))
        assert demand.uram_bits == 0

    def test_bw_k115_luts(self):
        demand = design_resources(generate_accelerator(BW_K115))
        assert demand.luts == pytest.approx(367e3, rel=0.25)

    def test_resources_scale_roughly_linearly_with_tiles(self):
        small = design_resources(generate_accelerator(BW_V37.with_tiles(5)))
        large = design_resources(generate_accelerator(BW_V37.with_tiles(10)))
        per_tile_small = small.dsps / 5
        per_tile_large = large.dsps / 10
        # Fixed control overhead means small instances cost more per tile.
        assert per_tile_small > per_tile_large
        assert large.dsps > small.dsps


class TestDeterminism:
    def test_same_config_same_design(self, small_accel_config):
        a = generate_accelerator(small_accel_config)
        b = generate_accelerator(small_accel_config)
        assert set(a.modules) == set(b.modules)
        assert design_resources(a) == design_resources(b)
