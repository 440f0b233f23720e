"""Instruction record tests."""

from repro.isa.instructions import (
    SYNC_ADDRESS,
    Instruction,
    Op,
    mv_mul,
    v_rd,
    v_wr,
    vv_add,
)


class TestOpMetadata:
    def test_units(self):
        assert Op.MV_MUL.unit == "mvu"
        assert Op.VV_ADD.unit == "mfu"
        assert Op.V_RD.unit == "dram"
        assert Op.LOOP.unit == "control"

    def test_memory_flags(self):
        assert Op.V_WR.writes_memory
        assert not Op.V_RD.writes_memory
        assert not Op.MV_MUL.writes_memory


class TestReadWriteSets:
    def test_mv_mul(self):
        inst = mv_mul(dst=3, ma=0, a=1, length=8)
        assert inst.reads() == {1}
        assert inst.writes() == {3}

    def test_vv_add_reads_both(self):
        inst = vv_add(dst=0, a=1, b=2, length=8)
        assert inst.reads() == {1, 2}

    def test_v_wr_reads_only(self):
        inst = v_wr(src=5, addr=0x100, length=8)
        assert inst.reads() == {5}
        assert inst.writes() == set()

    def test_halt_touches_nothing(self):
        inst = Instruction(Op.HALT)
        assert inst.reads() == set() == inst.writes()


class TestSyncDetection:
    def test_send(self):
        inst = v_wr(src=0, addr=SYNC_ADDRESS, length=4)
        assert inst.is_sync and inst.is_send and not inst.is_recv

    def test_recv(self):
        inst = v_rd(dst=0, addr=SYNC_ADDRESS + 0x1000, length=4)
        assert inst.is_sync and inst.is_recv and not inst.is_send

    def test_ordinary_dram_not_sync(self):
        assert not v_rd(dst=0, addr=0x100, length=4).is_sync

    def test_non_dram_never_sync(self):
        assert not Instruction(Op.MV_MUL, addr=SYNC_ADDRESS).is_sync


class TestRender:
    def test_renders_each_shape(self):
        cases = [
            (v_rd(1, 0x40, 16), "v_rd v1, 0x40, 16"),
            (v_wr(2, 0x80, 8), "v_wr v2, 0x80, 8"),
            (mv_mul(3, 1, 2, 64), "mv_mul v3, m1, v2, 64"),
            (vv_add(0, 1, 2, 4), "vv_add v0, v1, v2, 4"),
            (Instruction(Op.HALT), "halt"),
            (Instruction(Op.LOOP, imm=5.0), "loop 5"),
        ]
        for inst, expected in cases:
            assert inst.render() == expected

    def test_with_tag(self):
        inst = vv_add(0, 1, 2, 4).with_tag("produce:h")
        assert inst.tag == "produce:h"
        assert inst.op is Op.VV_ADD
