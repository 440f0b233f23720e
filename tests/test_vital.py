"""Tests for the ViTAL-like HS abstraction: devices, virtual blocks,
floorplanning, the compiler and the bitstream/controller layer."""

import pytest

from repro.core import partition
from repro.errors import AllocationError, CompileError, DeploymentError
from repro.resources import ResourceVector
from repro.units import mbit, mhz
from repro.vital import (
    Bitstream,
    BitstreamStore,
    LowLevelController,
    PhysicalFPGA,
    VitalCompiler,
    XCKU115,
    XCVU37P,
    achieved_frequency,
)
from repro.vital.compiler import estimate_compile_seconds
from repro.vital.floorplan import FloorplanQuality


class TestDeviceModels:
    def test_vu37p_shape(self):
        assert XCVU37P.usable_blocks == 16
        assert XCVU37P.has_uram
        assert XCVU37P.frequency_hz == mhz(400)

    def test_ku115_shape(self):
        assert XCKU115.usable_blocks == 10
        assert not XCKU115.has_uram
        assert XCKU115.block_capacity.uram_bits == 0

    def test_blocks_needed_binding_resource(self):
        demand = ResourceVector(dsps=1200.0)  # ~2.07 blocks of 580 DSPs
        assert XCVU37P.blocks_needed(demand) == 3

    def test_blocks_needed_minimum_one(self):
        assert XCVU37P.blocks_needed(ResourceVector(luts=1.0)) == 1

    def test_impossible_demand(self):
        demand = ResourceVector(uram_bits=mbit(1.0))
        assert not XCKU115.fits(demand)

    def test_fits(self):
        assert XCVU37P.fits(ResourceVector(luts=100e3))
        assert not XCVU37P.fits(ResourceVector(luts=10e6))


class TestPhysicalFPGA:
    def test_fresh_board_all_free(self):
        board = PhysicalFPGA("b0", XCKU115)
        assert board.free_blocks == 10
        assert board.used_blocks == 0

    def test_allocate_and_release(self):
        board = PhysicalFPGA("b0", XCKU115)
        indices = board.allocate("dep-1", 4)
        assert len(indices) == 4
        assert board.free_blocks == 6
        assert board.owners() == {"dep-1"}
        assert board.release("dep-1") == 4
        assert board.free_blocks == 10

    def test_over_allocation_rejected(self):
        board = PhysicalFPGA("b0", XCKU115)
        with pytest.raises(AllocationError):
            board.allocate("dep-1", 11)

    def test_zero_allocation_rejected(self):
        board = PhysicalFPGA("b0", XCKU115)
        with pytest.raises(AllocationError):
            board.allocate("dep-1", 0)

    def test_disjoint_owners(self):
        board = PhysicalFPGA("b0", XCVU37P)
        a = board.allocate("a", 5)
        b = board.allocate("b", 5)
        assert set(a).isdisjoint(b)

    def test_release_unknown_owner_noop(self):
        board = PhysicalFPGA("b0", XCKU115)
        assert board.release("ghost") == 0


class TestFloorplan:
    def test_floorplanned_reaches_device_clock(self):
        demand = ResourceVector(luts=600e3)
        assert achieved_frequency(XCVU37P, demand) == XCVU37P.frequency_hz

    def test_automatic_is_slower(self):
        demand = ResourceVector(luts=600e3, dsps=7500.0)
        auto = achieved_frequency(XCVU37P, demand, FloorplanQuality.AUTOMATIC)
        assert auto < XCVU37P.frequency_hz

    def test_congestion_grows_with_utilisation(self):
        light = achieved_frequency(
            XCVU37P, ResourceVector(luts=100e3), FloorplanQuality.AUTOMATIC
        )
        heavy = achieved_frequency(
            XCVU37P, ResourceVector(luts=1.2e6), FloorplanQuality.AUTOMATIC
        )
        assert heavy < light

    def test_gain_positive(self):
        demand = ResourceVector(luts=600e3)
        automatic = achieved_frequency(
            XCVU37P, demand, FloorplanQuality.AUTOMATIC
        )
        floorplanned = achieved_frequency(
            XCVU37P, demand, FloorplanQuality.FLOORPLANNED
        )
        assert floorplanned > automatic


class TestBitstreamStore:
    def _bitstream(self, signature="sig", blocks=4):
        return Bitstream(
            artifact_id=Bitstream.make_id("acc", signature, "XCVU37P", blocks),
            accelerator="acc",
            cluster_index=0,
            device_type="XCVU37P",
            virtual_blocks=blocks,
            compile_seconds=100.0,
        )

    def test_content_addressing_ignores_accelerator_name(self):
        a = Bitstream.make_id("acc-a", "sig", "XCVU37P", 4)
        b = Bitstream.make_id("acc-b", "sig", "XCVU37P", 4)
        assert a == b

    def test_different_device_different_id(self):
        a = Bitstream.make_id("acc", "sig", "XCVU37P", 4)
        b = Bitstream.make_id("acc", "sig", "XCKU115", 4)
        assert a != b

    def test_cache_hit(self):
        store = BitstreamStore()
        first, cached_first = store.get_or_add(self._bitstream())
        second, cached_second = store.get_or_add(self._bitstream())
        assert not cached_first and cached_second
        assert first is second
        assert store.hits == 1 and store.misses == 1

    def test_lookup_unknown(self):
        with pytest.raises(DeploymentError):
            BitstreamStore().lookup("nope")


class TestLowLevelController:
    def _setup(self):
        store = BitstreamStore()
        bitstream, _ = store.get_or_add(
            Bitstream(
                artifact_id="art-1",
                accelerator="acc",
                cluster_index=0,
                device_type="XCKU115",
                virtual_blocks=3,
            )
        )
        return LowLevelController(store), bitstream

    def test_configure_allocates_and_logs(self):
        controller, bitstream = self._setup()
        board = PhysicalFPGA("b0", XCKU115)
        indices = controller.configure(board, "dep-1", bitstream.artifact_id)
        assert len(indices) == 3
        assert controller.log[0].action == "configure"
        assert controller.log[0].blocks == indices

    def test_configure_wrong_device_type(self):
        controller, bitstream = self._setup()
        board = PhysicalFPGA("v0", XCVU37P)
        with pytest.raises(DeploymentError, match="targets"):
            controller.configure(board, "dep-1", bitstream.artifact_id)

    def test_release_logs(self):
        controller, bitstream = self._setup()
        board = PhysicalFPGA("b0", XCKU115)
        controller.configure(board, "dep-1", bitstream.artifact_id)
        assert controller.release(board, "dep-1") == 3
        assert controller.log[-1].action == "release"


class TestCompiler:
    def test_compile_cluster_produces_image(self):
        compiler = VitalCompiler()
        demand = ResourceVector(luts=150e3, dsps=1000.0)
        image, bitstream, cached = compiler.compile_cluster(
            "acc", 1, "sig", demand, XCVU37P
        )
        assert image.virtual_blocks == 2
        assert image.artifact == bitstream.artifact_id
        assert not cached

    def test_uram_retargeted_to_bram_on_ku115(self):
        compiler = VitalCompiler()
        demand = ResourceVector(bram_bits=mbit(2.0), uram_bits=mbit(2.0))
        image, _, _ = compiler.compile_cluster("acc", 1, "sig", demand, XCKU115)
        assert image.resources.uram_bits == 0
        assert image.resources.bram_bits == mbit(4.0)

    def test_oversized_cluster_rejected(self):
        compiler = VitalCompiler()
        demand = ResourceVector(luts=5e6)
        with pytest.raises(CompileError):
            compiler.compile_cluster("acc", 1, "sig", demand, XCVU37P)

    def test_compile_time_scales_with_logic(self):
        small = estimate_compile_seconds(ResourceVector(luts=10e3))
        big = estimate_compile_seconds(ResourceVector(luts=600e3))
        assert big > small > 0

    def test_compile_accelerator_end_to_end(self, mini_decomposed):
        tree = partition(mini_decomposed, iterations=1)
        compiled = VitalCompiler().compile_accelerator(mini_decomposed, tree)
        options = compiled.mapping.sorted_options()
        assert options
        assert options[0].num_clusters == 1
        # Every option deployable on at least one device.
        for option in options:
            assert option.is_deployable()

    def test_control_colocated_with_first_cluster(self, mini_decomposed):
        tree = partition(mini_decomposed, iterations=1)
        compiled = VitalCompiler().compile_accelerator(mini_decomposed, tree)
        two_way = next(
            o for o in compiled.mapping.options if o.num_clusters == 2
        )
        first, second = two_way.cluster_indices
        # Any device image of the first cluster carries the control demand.
        device = two_way.feasible_types(first)[0]
        first_res = two_way.images[first][device].resources
        second_res = two_way.images[second][device].resources
        assert first_res.ffs > second_res.ffs  # control adds registers
