"""Dependence analysis over ISA programs.

Builds the register/memory dependence graph that constrains instruction
reordering (paper Section 2.3: "instruction reordering under the dependency
constraint").  Edges cover:

* RAW / WAR / WAW through vector registers,
* RAW / WAR / WAW through matrix registers,
* DRAM dependences — conservatively, two DRAM accesses conflict when their
  address ranges may overlap (we know static addresses and lengths, so this
  is exact for the programs our codegen emits),
* sync-window ordering — sends and receives through the synchronisation
  module keep their relative order (the module is a FIFO).

Analysis is per straight-line region (one loop body at a time); the
reordering tool never moves instructions across loop boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .instructions import Instruction, Op


@dataclass
class DependenceGraph:
    """Immutable-ish dependence DAG over a straight-line instruction region.

    ``order`` holds the region's instructions; ``edges[i]`` is the set of
    successor indices that must execute after ``i``; ``preds[i]`` the
    predecessor set.  Indices are positions within ``order``.
    """

    order: list
    edges: dict = field(default_factory=dict)
    preds: dict = field(default_factory=dict)

    def add_edge(self, src: int, dst: int) -> None:
        if src == dst:
            return
        self.edges.setdefault(src, set()).add(dst)
        self.preds.setdefault(dst, set()).add(src)

    def successors(self, index: int) -> set:
        return self.edges.get(index, set())

    def predecessors(self, index: int) -> set:
        return self.preds.get(index, set())

    def is_valid_order(self, permutation: list) -> bool:
        """Check a permutation of region indices respects every edge."""
        position = {index: pos for pos, index in enumerate(permutation)}
        if len(position) != len(self.order):
            return False
        for src, dsts in self.edges.items():
            for dst in dsts:
                if position[src] >= position[dst]:
                    return False
        return True


def _dram_range(inst: Instruction) -> tuple | None:
    """Static address interval a DRAM instruction touches, or ``None``."""
    if inst.op in (Op.V_RD, Op.V_WR):
        return (inst.addr, inst.addr + max(1, inst.length))
    if inst.op is Op.M_RD:
        # M_RD spans rows (length) x cols (imm) words.
        return (inst.addr, inst.addr + max(1, inst.length) * max(1, int(inst.imm)))
    return None


def _ranges_overlap(lhs: tuple, rhs: tuple) -> bool:
    return lhs[0] < rhs[1] and rhs[0] < lhs[1]


def build_dependence_graph(instructions: list) -> DependenceGraph:
    """Build the dependence DAG for one straight-line region.

    The region must not contain ``LOOP``/``ENDLOOP`` — callers split on loop
    structure first (as :func:`~repro.isa.reorder.reorder_for_overlap` does).
    """
    graph = DependenceGraph(order=list(instructions))
    last_writer: dict[int, int] = {}
    readers_since_write: dict[int, list] = {}
    last_m_writer: dict[int, int] = {}
    m_readers: dict[int, list] = {}
    dram_accesses: list = []  # (index, range, is_write)
    last_sync: int | None = None

    for index, inst in enumerate(instructions):
        if inst.op in (Op.LOOP, Op.ENDLOOP):
            raise ValueError("dependence regions must be loop-free")

        # -- vector register dependences ---------------------------------
        for reg in inst.reads():
            if reg in last_writer:
                graph.add_edge(last_writer[reg], index)  # RAW
            readers_since_write.setdefault(reg, []).append(index)
        for reg in inst.writes():
            if reg in last_writer:
                graph.add_edge(last_writer[reg], index)  # WAW
            for reader in readers_since_write.get(reg, ()):  # WAR
                graph.add_edge(reader, index)
            last_writer[reg] = index
            readers_since_write[reg] = []

        # -- matrix register dependences ------------------------------------
        if inst.op is Op.MV_MUL and inst.ma >= 0:
            if inst.ma in last_m_writer:
                graph.add_edge(last_m_writer[inst.ma], index)
            m_readers.setdefault(inst.ma, []).append(index)
        if inst.op is Op.M_RD and inst.dst >= 0:
            if inst.dst in last_m_writer:
                graph.add_edge(last_m_writer[inst.dst], index)
            for reader in m_readers.get(inst.dst, ()):
                graph.add_edge(reader, index)
            last_m_writer[inst.dst] = index
            m_readers[inst.dst] = []

        # -- DRAM and sync-window ordering ---------------------------------------
        if inst.is_sync:
            # The sync module is a FIFO: all sync ops stay ordered.
            if last_sync is not None:
                graph.add_edge(last_sync, index)
            last_sync = index
        else:
            span = _dram_range(inst)
            if span is not None:
                is_write = inst.op.writes_memory
                for other_index, other_span, other_write in dram_accesses:
                    if (is_write or other_write) and _ranges_overlap(span, other_span):
                        graph.add_edge(other_index, index)
                dram_accesses.append((index, span, is_write))

    return graph
