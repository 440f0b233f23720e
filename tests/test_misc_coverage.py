"""Coverage for smaller surfaces: the primitive registry, error hierarchy,
report helpers, host link, fabric internals, and 4-way exchange ordering."""

import pytest

from repro import errors
from repro.cluster.network import RingNetwork
from repro.cluster.topology import HostLink, paper_cluster
from repro.resources import ResourceVector
from repro.rtl import primitives
from repro.rtl.ir import Direction, Port


class TestPrimitiveRegistry:
    def test_lookup_known(self):
        cell = primitives.lookup("DFF")
        assert cell is not None
        assert cell.family == "register"

    def test_lookup_unknown(self):
        assert primitives.lookup("NOT_A_CELL") is None
        assert not primitives.is_primitive("NOT_A_CELL")

    def test_cost_of_unknown_is_zero(self):
        assert primitives.cell_cost("NOT_A_CELL") == ResourceVector.zero()

    def test_memory_cells_carry_capacity(self):
        assert primitives.cell_cost("BRAM36").bram_bits == 36 * 1024
        assert primitives.cell_cost("URAM288").uram_bits == 288 * 1024

    def test_register_idempotent(self):
        cell = primitives.lookup("DFF")
        assert primitives.register(cell) is cell

    def test_conflicting_registration_rejected(self):
        clash = primitives.PrimitiveCell(
            name="DFF",
            ports={"x": Port("x", Direction.INPUT, 1)},
            cost=ResourceVector(luts=99.0),
        )
        with pytest.raises(ValueError):
            primitives.register(clash)

    def test_all_cells_have_nonnegative_costs(self):
        for cell in primitives.REGISTRY.values():
            assert ResourceVector() <= cell.cost

    def test_bfp_mac_cheap_in_luts(self):
        """The BFP design point: a BFP MAC costs far less than an FP16
        multiplier in LUTs+DSPs — why BrainWave uses BFP for the MVU."""
        bfp = primitives.cell_cost("BFP_MAC")
        fp16 = primitives.cell_cost("FP16_MUL")
        assert bfp.luts < fp16.luts
        assert bfp.dsps < fp16.dsps


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    def test_parse_error_line_prefix(self):
        err = errors.RTLParseError("bad token", line=7)
        assert "line 7" in str(err)
        assert err.line == 7

    def test_assembler_error_without_line(self):
        err = errors.AssemblerError("oops")
        assert err.line is None

    def test_catch_at_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.PartitionError("x")
        with pytest.raises(errors.MappingError):
            raise errors.CompileError("y")


class TestHostLink:
    def test_defaults(self):
        link = HostLink()
        assert link.latency_s > 0
        assert link.bandwidth_bps > 0

    def test_cluster_carries_host_link(self):
        assert paper_cluster().host_link.latency_s > 0


class TestFourWayExchange:
    def test_exchange_grows_with_members_spread(self):
        ring = RingNetwork(["a", "b", "c", "d"])
        two = ring.exchange_time(["a", "b"], 256)
        four = ring.exchange_time(["a", "b", "c", "d"], 256)
        assert four > two  # the worst pair is 2 hops apart

    def test_exchange_time_scales_with_slice(self):
        ring = RingNetwork(["a", "b"])
        small = ring.exchange_time(["a", "b"], 128)
        large = ring.exchange_time(["a", "b"], 1024)
        assert large > small


class TestFabricInternals:
    def test_pending_rounds(self):
        import numpy as np

        from repro.accel.functional import ScaleOutFabric
        from repro.isa.instructions import SYNC_ADDRESS

        fabric = ScaleOutFabric(2)
        assert fabric.pending_rounds(SYNC_ADDRESS) == 0
        fabric.send(0, SYNC_ADDRESS, np.ones(2))
        assert fabric.pending_rounds(SYNC_ADDRESS) == 0  # replica 1 missing
        fabric.send(1, SYNC_ADDRESS, np.ones(2))
        assert fabric.pending_rounds(SYNC_ADDRESS) == 1

    def test_single_replica_fabric_rejected(self):
        from repro.accel.functional import ScaleOutFabric
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            ScaleOutFabric(1)

