"""Dependence-analysis tests (the constraint system of the reordering tool)."""

import pytest

from repro.isa.dependencies import build_dependence_graph
from repro.isa.instructions import (
    SYNC_ADDRESS,
    Instruction,
    Op,
    loop,
    m_rd,
    mv_mul,
    v_copy,
    v_fill,
    v_rd,
    v_wr,
    vv_add,
)


def _edge(graph, src, dst) -> bool:
    return dst in graph.successors(src)


class TestRegisterDependences:
    def test_raw(self):
        graph = build_dependence_graph(
            [v_fill(0, 1.0, 4), v_copy(1, 0, 4)]
        )
        assert _edge(graph, 0, 1)

    def test_waw(self):
        graph = build_dependence_graph(
            [v_fill(0, 1.0, 4), v_fill(0, 2.0, 4)]
        )
        assert _edge(graph, 0, 1)

    def test_war(self):
        graph = build_dependence_graph(
            [v_copy(1, 0, 4), v_fill(0, 2.0, 4)]
        )
        assert _edge(graph, 0, 1)

    def test_independent_instructions_unordered(self):
        graph = build_dependence_graph(
            [v_fill(0, 1.0, 4), v_fill(1, 2.0, 4)]
        )
        assert not _edge(graph, 0, 1) and not _edge(graph, 1, 0)

    def test_initial_read_then_write_is_war(self):
        # Reads of registers live across iterations must still block writes.
        graph = build_dependence_graph(
            [vv_add(2, 0, 1, 4), v_fill(0, 0.0, 4)]
        )
        assert _edge(graph, 0, 1)


class TestMatrixDependences:
    def test_m_rd_then_mv_mul(self):
        graph = build_dependence_graph(
            [m_rd(0, 0x100, 4), mv_mul(1, 0, 2, 4)]
        )
        assert _edge(graph, 0, 1)

    def test_mv_mul_then_m_rd_war(self):
        graph = build_dependence_graph(
            [mv_mul(1, 0, 2, 4), m_rd(0, 0x100, 4)]
        )
        assert _edge(graph, 0, 1)

    def test_distinct_matrices_independent(self):
        graph = build_dependence_graph(
            [m_rd(0, 0x100, 4), m_rd(1, 0x900, 4)]
        )
        assert not _edge(graph, 0, 1)


class TestMemoryDependences:
    def test_overlapping_write_read(self):
        graph = build_dependence_graph(
            [v_wr(0, 0x100, 8), v_rd(1, 0x104, 8)]
        )
        assert _edge(graph, 0, 1)

    def test_disjoint_accesses_independent(self):
        graph = build_dependence_graph(
            [v_wr(0, 0x100, 8), v_rd(1, 0x200, 8)]
        )
        assert not _edge(graph, 0, 1)

    def test_read_read_independent(self):
        graph = build_dependence_graph(
            [v_rd(0, 0x100, 8), v_rd(1, 0x100, 8)]
        )
        assert not _edge(graph, 0, 1)

    def test_m_rd_range_uses_cols(self):
        wide = Instruction(Op.M_RD, dst=0, addr=0x100, length=4, imm=16.0)
        reader = v_rd(1, 0x120, 4)  # inside 0x100 + 4*16
        graph = build_dependence_graph([wide, reader])
        assert not _edge(graph, 0, 1)  # both reads
        writer = v_wr(1, 0x120, 4)
        graph = build_dependence_graph([wide, writer])
        assert _edge(graph, 0, 1)


class TestSyncOrdering:
    def test_sync_ops_totally_ordered(self):
        graph = build_dependence_graph(
            [
                v_wr(0, SYNC_ADDRESS, 4),
                v_rd(1, SYNC_ADDRESS, 8),
                v_wr(2, SYNC_ADDRESS, 4),
            ]
        )
        assert _edge(graph, 0, 1) and _edge(graph, 1, 2)

    def test_sync_independent_of_plain_dram(self):
        graph = build_dependence_graph(
            [v_wr(0, SYNC_ADDRESS, 4), v_rd(1, 0x100, 4)]
        )
        assert not _edge(graph, 0, 1)


class TestGraphUtilities:
    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            build_dependence_graph([loop(2)])

    def test_is_valid_order(self):
        insts = [v_fill(0, 1.0, 4), v_copy(1, 0, 4)]
        graph = build_dependence_graph(insts)
        assert graph.is_valid_order([0, 1])
        assert not graph.is_valid_order([1, 0])
        assert not graph.is_valid_order([0])
