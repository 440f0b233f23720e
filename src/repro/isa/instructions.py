"""Instruction set definition.

The ISA mirrors the organisation of the BrainWave-like accelerator
(paper Fig. 9): a matrix-vector unit built from tile engines operating on
block-floating-point data, multi-function units for float16 vector
operations, vector/matrix register files, an instruction buffer, and a DRAM
interface.  It is a register ISA:

* ``v0..v{V-1}`` — vector registers (VRF), each holds up to the accelerator's
  native vector length.
* ``m0..m{M-1}`` — matrix registers (MRF), hold BFP-quantised matrices.
* DRAM — a flat vector address space; ``V_RD``/``V_WR`` move whole vectors.

Inter-FPGA communication reuses the DRAM instructions with a *pre-defined
out-of-range address* (:data:`SYNC_ADDRESS`): writes there are forwarded to
the partner accelerator by the synchronisation template module, reads there
block until the partner's data arrives (Section 2.3, Fig. 8b).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

#: The pre-defined out-of-range DRAM address recognised by the inter-FPGA
#: synchronisation module.  Ordinary programs must stay below this address.
SYNC_ADDRESS = 0xFFFF0000


class Op(enum.Enum):
    """Opcodes, grouped by execution unit."""

    # DRAM interface
    V_RD = "v_rd"        # dst <- DRAM[addr]
    V_WR = "v_wr"        # DRAM[addr] <- src a
    M_RD = "m_rd"        # matrix dst <- DRAM[addr] (BFP quantised on load)

    # Matrix-vector unit (tile engines, BFP)
    MV_MUL = "mv_mul"    # dst <- M[ma] @ v[a]

    # Multi-function units (float16-style)
    VV_ADD = "vv_add"    # dst <- v[a] + v[b]
    VV_SUB = "vv_sub"    # dst <- v[a] - v[b]
    VV_MUL = "vv_mul"    # dst <- v[a] * v[b]   (point-wise)
    V_SIGM = "v_sigm"    # dst <- sigmoid(v[a])
    V_TANH = "v_tanh"    # dst <- tanh(v[a])
    V_RELU = "v_relu"    # dst <- relu(v[a])
    V_COPY = "v_copy"    # dst <- v[a]
    V_FILL = "v_fill"    # dst <- broadcast(imm_float)
    V_SLICE = "v_slice"  # dst <- v[a][imm : imm+length]
    V_CONCAT = "v_concat"  # dst <- concat(v[a], v[b])

    # Control
    LOOP = "loop"        # repeat the body imm times
    ENDLOOP = "endloop"
    NOP = "nop"
    HALT = "halt"

    @property
    def unit(self) -> str:
        """Which execution unit runs this opcode (drives the timing model)."""
        if self in (Op.V_RD, Op.V_WR, Op.M_RD):
            return "dram"
        if self is Op.MV_MUL:
            return "mvu"
        if self in (Op.LOOP, Op.ENDLOOP, Op.NOP, Op.HALT):
            return "control"
        return "mfu"

    @property
    def writes_memory(self) -> bool:
        return self is Op.V_WR


#: Opcodes whose ``dst`` field names a vector register they write.
VECTOR_WRITERS = frozenset(
    {
        Op.V_RD,
        Op.MV_MUL,
        Op.VV_ADD,
        Op.VV_SUB,
        Op.VV_MUL,
        Op.V_SIGM,
        Op.V_TANH,
        Op.V_RELU,
        Op.V_COPY,
        Op.V_FILL,
        Op.V_SLICE,
        Op.V_CONCAT,
    }
)

#: Opcodes reading vector register ``a``.
A_READERS = frozenset(
    {
        Op.V_WR,
        Op.MV_MUL,
        Op.VV_ADD,
        Op.VV_SUB,
        Op.VV_MUL,
        Op.V_SIGM,
        Op.V_TANH,
        Op.V_RELU,
        Op.V_COPY,
        Op.V_SLICE,
        Op.V_CONCAT,
    }
)

#: Opcodes reading vector register ``b``.
B_READERS = frozenset({Op.VV_ADD, Op.VV_SUB, Op.VV_MUL, Op.V_CONCAT})


@dataclass(frozen=True)
class Instruction:
    """One ISA instruction.

    Fields not used by an opcode stay at their defaults; see
    :mod:`repro.isa.program` for per-opcode validation.

    Attributes:
        op: the opcode.
        dst: destination register index (vector, or matrix for ``M_RD``).
        a / b: source vector register indices.
        ma: matrix register index (``MV_MUL``).
        addr: DRAM address (``V_RD``/``V_WR``/``M_RD``).
        imm: immediate — loop count, fill value, or slice offset.
        length: static vector length in elements (timing model input; the
            functional simulator checks it against actual data).
        tag: free-form label used by the communication-insertion and
            reordering tools ("send", "recv", "compute:x", ...).
    """

    op: Op
    dst: int = -1
    a: int = -1
    b: int = -1
    ma: int = -1
    addr: int = -1
    imm: float = 0.0
    length: int = 0
    tag: str = ""

    def with_tag(self, tag: str) -> "Instruction":
        """Copy with a new tag."""
        return replace(self, tag=tag)

    def reads(self) -> set:
        """Vector registers this instruction reads."""
        regs = set()
        if self.op in A_READERS and self.a >= 0:
            regs.add(self.a)
        if self.op in B_READERS and self.b >= 0:
            regs.add(self.b)
        return regs

    def writes(self) -> set:
        """Vector registers this instruction writes."""
        if self.op in VECTOR_WRITERS and self.dst >= 0:
            return {self.dst}
        return set()

    @property
    def is_sync(self) -> bool:
        """True for inter-FPGA communication (DRAM ops at SYNC_ADDRESS)."""
        return self.op in (Op.V_RD, Op.V_WR) and self.addr >= SYNC_ADDRESS

    @property
    def is_send(self) -> bool:
        return self.op is Op.V_WR and self.is_sync

    @property
    def is_recv(self) -> bool:
        return self.op is Op.V_RD and self.is_sync

    def render(self) -> str:
        """Assembly text for this instruction (see the assembler grammar)."""
        op = self.op
        if op in (Op.NOP, Op.HALT, Op.ENDLOOP):
            return op.value
        if op is Op.LOOP:
            return f"loop {int(self.imm)}"
        if op is Op.V_RD:
            return f"v_rd v{self.dst}, 0x{self.addr:x}, {self.length}"
        if op is Op.V_WR:
            return f"v_wr v{self.a}, 0x{self.addr:x}, {self.length}"
        if op is Op.M_RD:
            return f"m_rd m{self.dst}, 0x{self.addr:x}, {self.length}"
        if op is Op.MV_MUL:
            return f"mv_mul v{self.dst}, m{self.ma}, v{self.a}, {self.length}"
        if op in (Op.VV_ADD, Op.VV_SUB, Op.VV_MUL, Op.V_CONCAT):
            return f"{op.value} v{self.dst}, v{self.a}, v{self.b}, {self.length}"
        if op is Op.V_FILL:
            return f"v_fill v{self.dst}, {self.imm}, {self.length}"
        if op is Op.V_SLICE:
            return f"v_slice v{self.dst}, v{self.a}, {int(self.imm)}, {self.length}"
        return f"{op.value} v{self.dst}, v{self.a}, {self.length}"


# -- small constructors used by codegen (keep call sites readable) -----------


def v_rd(dst: int, addr: int, length: int, tag: str = "") -> Instruction:
    return Instruction(Op.V_RD, dst=dst, addr=addr, length=length, tag=tag)


def v_wr(src: int, addr: int, length: int, tag: str = "") -> Instruction:
    return Instruction(Op.V_WR, a=src, addr=addr, length=length, tag=tag)


def m_rd(dst: int, addr: int, length: int, tag: str = "") -> Instruction:
    return Instruction(Op.M_RD, dst=dst, addr=addr, length=length, tag=tag)


def mv_mul(dst: int, ma: int, a: int, length: int, tag: str = "") -> Instruction:
    return Instruction(Op.MV_MUL, dst=dst, ma=ma, a=a, length=length, tag=tag)


def vv_add(dst: int, a: int, b: int, length: int, tag: str = "") -> Instruction:
    return Instruction(Op.VV_ADD, dst=dst, a=a, b=b, length=length, tag=tag)


def vv_sub(dst: int, a: int, b: int, length: int, tag: str = "") -> Instruction:
    return Instruction(Op.VV_SUB, dst=dst, a=a, b=b, length=length, tag=tag)


def vv_mul(dst: int, a: int, b: int, length: int, tag: str = "") -> Instruction:
    return Instruction(Op.VV_MUL, dst=dst, a=a, b=b, length=length, tag=tag)


def v_sigm(dst: int, a: int, length: int, tag: str = "") -> Instruction:
    return Instruction(Op.V_SIGM, dst=dst, a=a, length=length, tag=tag)


def v_tanh(dst: int, a: int, length: int, tag: str = "") -> Instruction:
    return Instruction(Op.V_TANH, dst=dst, a=a, length=length, tag=tag)


def v_relu(dst: int, a: int, length: int, tag: str = "") -> Instruction:
    return Instruction(Op.V_RELU, dst=dst, a=a, length=length, tag=tag)


def v_copy(dst: int, a: int, length: int, tag: str = "") -> Instruction:
    return Instruction(Op.V_COPY, dst=dst, a=a, length=length, tag=tag)


def v_fill(dst: int, value: float, length: int, tag: str = "") -> Instruction:
    return Instruction(Op.V_FILL, dst=dst, imm=value, length=length, tag=tag)


def v_slice(dst: int, a: int, offset: int, length: int, tag: str = "") -> Instruction:
    return Instruction(Op.V_SLICE, dst=dst, a=a, imm=float(offset), length=length, tag=tag)


def v_concat(dst: int, a: int, b: int, length: int, tag: str = "") -> Instruction:
    return Instruction(Op.V_CONCAT, dst=dst, a=a, b=b, length=length, tag=tag)


def loop(count: int) -> Instruction:
    return Instruction(Op.LOOP, imm=float(count))


def endloop() -> Instruction:
    return Instruction(Op.ENDLOOP)


def halt() -> Instruction:
    return Instruction(Op.HALT)
