"""Functional simulator for the AS ISA.

Executes ISA programs with numpy, reproducing the accelerator's numerical
behaviour: matrix-vector products in block floating point (weights quantised
at ``M_RD``, each activation register quantised once per write and reused
by every multiply that reads it), float16 rounding after every
multi-function-unit operation, and the inter-FPGA synchronisation module
semantics of Fig. 8b for scale-out programs.

The simulator has an explicit program counter and loop stack so execution
can *block* on a synchronisation read; :class:`ScaleOutFabric` co-simulates
several replicas in lockstep, delivering each replica the *combined* hidden
state exactly as the index-register merge in the template module does.

DRAM is sparse and paged.  A :class:`WeightImage` keeps a deployment's
weight pages resident across requests: simulators start from its
read-only pages (copy-on-write) and take its memoised ``M_RD`` matrices
while the region's pages are still the image's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ..errors import ExecutionError
from ..isa.bfp import (
    BFPFormat, DEFAULT_FORMAT, bfp_quantize, bfp_quantize_blocks, to_float16,
)
from ..isa.instructions import Instruction, Op
from ..isa.program import Program


def _sigmoid(values: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-values))


def exponent_range(exponents: np.ndarray) -> tuple:
    """``(highest, lowest)`` of :func:`~repro.isa.bfp.bfp_quantize_blocks`
    exponents along the last axis, over nonzero blocks (``(-inf, inf)``
    when there are none; ``inf`` where a block is non-finite)."""
    return (np.fmax.reduce(exponents, axis=-1, initial=-np.inf),
            np.fmin.reduce(exponents, axis=-1, initial=np.inf))


def exactness_limits(exponents: np.ndarray, cols: int, fmt: BFPFormat):
    """The matrix half of the batched ``MV_MUL`` exactness certificate.

    Each term of a row-by-lane product is an integer below
    ``2**(2 * (mantissa_bits - 1))`` times ``2**(sA + sx)``, so every
    partial sum is exact in float64, in any order, when the spread of
    ``sA + sx`` plus that width plus ``ceil(log2 cols)`` fits 53 bits and
    ``sA + sx`` stays within -1074 and overflow.  Returns ``(room, floor,
    cap)``: a lane whose block exponents (:func:`exponent_range`) run from
    ``lo`` to ``hi`` is exact when ``hi - lo <= room``, ``lo >= floor``
    and ``hi <= cap`` (never, for a matrix holding ``inf`` or ``NaN``).
    """
    highest, lowest = exponent_range(exponents)
    top = highest.max(initial=-np.inf)
    if top == np.inf:
        return (np.nan,) * 3
    width = 2 * (fmt.mantissa_bits - 1) + (cols - 1).bit_length()
    return (
        float(53 - width - np.max(highest - lowest, initial=-np.inf)),
        float(-1074 - lowest.min(initial=np.inf)),
        float(min(1023 - width - top, 1023)),
    )


#: Words per DRAM page (64 Ki words = 512 KiB of float64).
PAGE_WORDS = 1 << 16


def page_spans(addr: int, length: int, page_words: int):
    """Yield ``(page_number, page_offset, start, stop)`` chunks covering
    ``length`` words from ``addr``."""
    if addr < 0:
        raise ExecutionError(f"negative DRAM address {addr}")
    offset = 0
    while offset < length:
        number, page_offset = divmod(addr + offset, page_words)
        chunk = min(length - offset, page_words - page_offset)
        yield number, page_offset, offset, offset + chunk
        offset += chunk


class DRAM:
    """A sparse, paged word-addressable memory (one float per word).

    Only pages that were written exist; every other word reads as zero.
    ``pages`` seeds the memory with shared pages (a :class:`WeightImage`):
    read-only pages are copied on first write, so the owner's copy never
    changes.
    """

    def __init__(self, pages: dict | None = None):
        self._pages: dict[int, np.ndarray] = dict(pages) if pages else {}

    def page(self, number: int):
        """The array currently backing page ``number`` (``None`` if unwritten)."""
        return self._pages.get(number)

    def write(self, addr: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        for number, page_offset, start, stop in page_spans(
            addr, values.size, PAGE_WORDS
        ):
            page = self._pages.get(number)
            if page is None:
                page = self._pages[number] = np.zeros(PAGE_WORDS)
            elif not page.flags.writeable:
                page = self._pages[number] = page.copy()
            page[page_offset : page_offset + (stop - start)] = values[start:stop]

    def read(self, addr: int, length: int) -> np.ndarray:
        out = np.zeros(length, dtype=np.float64)
        for number, page_offset, start, stop in page_spans(
            addr, length, PAGE_WORDS
        ):
            page = self._pages.get(number)
            if page is not None:
                out[start:stop] = page[page_offset : page_offset + (stop - start)]
        return out


class WeightImage:
    """A deployment replica's request-invariant DRAM image, kept resident.

    Holds the pages a weight preload writes, as read-only arrays that
    every request's DRAM starts from (copy-on-write), and memoises each
    ``M_RD`` region's BFP-quantised matrix — column-major, the one copy
    kept — with its :func:`exactness_limits` (the matrix half of the
    batched ``MV_MUL`` certificate).  A memoised matrix is valid
    only while every page of its region is still the image's own page
    object, so a program that overwrites weights reads fresh values.
    """

    def __init__(self, pages: dict):
        for page in pages.values():
            page.flags.writeable = False
        self.pages = pages
        self._matrices: dict[tuple, tuple] = {}

    @classmethod
    def build(cls, preload) -> "WeightImage":
        """Run ``preload(view)`` (which writes through ``view.dram``) once
        and keep what it wrote."""
        dram = DRAM()
        preload(SimpleNamespace(dram=dram))
        return cls(dram._pages)

    def matrix(self, dram, addr: int, rows: int, cols: int, fmt: BFPFormat):
        """``(quantised, exactness_limits)`` for the region, or ``None``
        when some page of it no longer is this image's page in ``dram``."""
        for number, _offset, _start, _stop in page_spans(
            addr, rows * cols, PAGE_WORDS
        ):
            if dram.page(number) is not self.pages.get(number):
                return None
        key = (addr, rows, cols, fmt)
        memo = self._matrices.get(key)
        if memo is None:
            flat = DRAM(self.pages).read(addr, rows * cols)
            memo = self._matrices[key] = quantise_matrix(
                flat.reshape(rows, cols), fmt
            )
            memo[0].flags.writeable = False
        return memo


def quantise_matrix(matrix: np.ndarray, fmt: BFPFormat) -> tuple:
    """``(quantised, exactness_limits)`` of a ``(..., rows, cols)`` matrix
    (the limits cover every matrix of a stack).  The values are stored
    column-major per matrix (``quantised.T`` C-contiguous), so a batch's
    ``operands @ quantised.T`` is a plain dgemm."""
    quantised, exponents = bfp_quantize_blocks(matrix, fmt)
    column_major = np.ascontiguousarray(np.swapaxes(quantised, -1, -2))
    return (column_major.swapaxes(-1, -2),
            exactness_limits(exponents, matrix.shape[-1], fmt))


@dataclass
class SimStats:
    """Dynamic execution counters."""

    instructions: int = 0
    mv_muls: int = 0
    mfu_ops: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    sends: int = 0
    recvs: int = 0
    blocked_polls: int = 0


class ScaleOutFabric:
    """The inter-FPGA synchronisation fabric for ``k`` replicas.

    Each sync address carries one exchanged value.  Sends are FIFOs per
    replica; a receive of the *full* vector succeeds once every replica has
    sent its slice for the receiver's current round, and returns the slices
    concatenated in replica order — the index-register combine of Fig. 8b.
    """

    def __init__(self, replicas: int):
        if replicas < 2:
            raise ExecutionError("a scale-out fabric needs at least 2 replicas")
        self.replicas = replicas
        self._sends: dict = {}  # addr -> list per replica of sent slices
        self._recv_round: dict = {}  # (addr, replica) -> next round index
        self.bytes_transferred = 0

    def send(self, replica: int, addr: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        queues = self._sends.setdefault(
            addr, [[] for _ in range(self.replicas)]
        )
        queues[replica].append(values)
        self.bytes_transferred += values.size * 2  # float16 on the wire

    def try_recv(self, replica: int, addr: int, full_length: int):
        """Return the combined vector or ``None`` when not yet complete."""
        queues = self._sends.get(addr)
        if queues is None:
            return None
        round_index = self._recv_round.get((addr, replica), 0)
        if any(len(queue) <= round_index for queue in queues):
            return None
        # Last-axis concatenation handles both scalar (length,) slices and
        # batched (batch, length) slices from the batched simulator.
        combined = np.concatenate([queue[round_index] for queue in queues], axis=-1)
        if combined.shape[-1] != full_length:
            raise ExecutionError(
                f"sync combine produced {combined.shape[-1]} words, reader "
                f"expected {full_length}"
            )
        self._recv_round[(addr, replica)] = round_index + 1
        return combined

    def pending_rounds(self, addr: int) -> int:
        queues = self._sends.get(addr)
        if not queues:
            return 0
        return min(len(q) for q in queues)


class SimulatorCore:
    """Control flow and instruction semantics shared by the scalar and
    batched simulators.

    Every vector register is an array whose last axis is the vector:
    ``(length,)`` in :class:`FunctionalSimulator`, ``(batch, length)``
    with ``lanes = (batch,)`` in the batched simulator.  The loop stack,
    addressing, DRAM and sync transfers and every MFU operation are
    written once over that last axis.  A subclass supplies what depends
    on the lane layout: reading a matrix region (:meth:`_read_matrix`),
    the FP16-to-BFP conversion of an operand (:meth:`_convert`) and the
    matrix-vector product (:meth:`_matvec`); it may also precompute a
    loop's input-stream products when the loop starts
    (:meth:`_enter_loop`).  Every matrix register comes
    from :func:`quantise_matrix`, column-major, so both simulators run the
    same BLAS call for a lane's ``MV_MUL``.

    Quantise once: ``MV_MUL`` takes its operand's BFP conversion from a
    per-register memo that keeps the register's array object beside it.
    The entry is valid only while ``vrf[register]`` *is* that object.
    Every write installs a new array (``V_RD``, a sync receive, an MFU or
    ``MV_MUL`` result, a host ``vrf[r] = ...``), so no writer has to
    invalidate anything; arrays in ``vrf`` are never changed in place.
    """

    #: Leading shape of every vector register (empty: one request).
    lanes: tuple = ()
    #: The co-simulator a blocked :meth:`run` points at.
    scaleout_runner = "run_scaleout"

    def __init__(self, program: Program, bfp_format: BFPFormat,
                 fabric: ScaleOutFabric | None, replica_index: int,
                 name: str, image: WeightImage | None, dram):
        program.validate(allow_sync=fabric is not None)
        self.program = program
        self.fmt = bfp_format
        self.fabric = fabric
        self.replica_index = replica_index
        self.name = name
        self.image = image
        self.dram = dram
        self.vrf: dict[int, np.ndarray] = {}
        #: register -> BFP-quantised matrix: ``(rows, cols)``, or ``(batch,
        #: rows, cols)`` when a batched region differs between lanes.
        self.mrf: dict[int, np.ndarray] = {}
        #: register -> the matrix's :func:`exactness_limits`.
        self._limits: dict[int, tuple] = {}
        #: register -> ``(array, quantised, exponents)`` (see above).
        self._operands: dict[int, tuple] = {}
        #: ``MV_MUL`` pc -> ``(matrix, products)``: the running loop's
        #: precomputed products of an input stream, one per iteration,
        #: filled by :meth:`_enter_loop` (the batched simulator's; see there).
        self._streamed: dict[int, tuple] = {}
        #: ``MV_MUL``s that installed a precomputed product.
        self.streamed_mv_muls = 0
        self.pc = 0
        # Loop stack entries: [start_pc, remaining_trips, iteration_index].
        self.loop_stack: list[list] = []
        self.halted = False
        self.stats = SimStats()

    # -- state access ------------------------------------------------------------

    def load_matrix(self, register: int, matrix: np.ndarray) -> None:
        """Host-side direct load of one matrix (shared by every lane of a
        batched simulator; bypasses DRAM; tests/tools)."""
        self.mrf[register], self._limits[register] = quantise_matrix(
            np.asarray(matrix, dtype=np.float64), self.fmt
        )

    def vector(self, register: int) -> np.ndarray:
        """Read a vector register (raises when never written)."""
        try:
            return self.vrf[register]
        except KeyError:
            raise ExecutionError(
                f"{self.name}: read of uninitialised vector register v{register}"
            ) from None

    # -- execution ----------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.halted or self.pc >= len(self.program.instructions)

    def _iteration_index(self) -> int:
        """Innermost loop iteration (0 outside loops) — drives strides."""
        return self.loop_stack[-1][2] if self.loop_stack else 0

    def _effective_addr(self, inst: Instruction) -> int:
        stride = int(inst.imm) if inst.op in (Op.V_RD, Op.V_WR) and not inst.is_sync else 0
        return inst.addr + stride * self._iteration_index()

    def step(self) -> str:
        """Execute one instruction; returns ``"ok"``/``"blocked"``/``"halted"``."""
        if self.finished:
            return "halted"
        inst = self.program.instructions[self.pc]
        op = inst.op

        if op is Op.LOOP:
            self.loop_stack.append([self.pc + 1, int(inst.imm), 0])
            self._enter_loop(self.pc)
            self.pc += 1
            return "ok"
        if op is Op.ENDLOOP:
            if not self.loop_stack:
                raise ExecutionError(f"{self.name}: ENDLOOP with empty loop stack")
            frame = self.loop_stack[-1]
            frame[1] -= 1
            frame[2] += 1
            if frame[1] > 0:
                self.pc = frame[0]
            else:
                self.loop_stack.pop()
                self.pc += 1
            return "ok"
        if op is Op.HALT:
            self.halted = True
            return "halted"
        if op is Op.NOP:
            self.pc += 1
            self.stats.instructions += 1
            return "ok"

        status = self._execute(inst)
        if status == "blocked":
            self.stats.blocked_polls += 1
            return "blocked"
        self.pc += 1
        self.stats.instructions += 1
        return "ok"

    def _enter_loop(self, pc: int) -> None:
        """Hook run when the ``LOOP`` at ``pc`` starts (its frame is on
        top of the loop stack); the scalar simulator does nothing here."""

    def run(self, max_steps: int = 100_000_000) -> SimStats:
        """Run to completion; raises on deadlock (blocked with no fabric
        progress is only resolvable by a co-simulator, see
        :func:`run_scaleout`)."""
        for _ in range(max_steps):
            status = self.step()
            if status == "halted":
                return self.stats
            if status == "blocked":
                raise ExecutionError(
                    f"{self.name}: blocked on sync read at pc={self.pc} "
                    f"(run replicas under {self.scaleout_runner})"
                )
        raise ExecutionError(f"{self.name}: exceeded {max_steps} steps")

    def run_until_blocked(self, max_steps: int = 100_000_000) -> str:
        """Run until blocked or finished; returns the final status."""
        for _ in range(max_steps):
            status = self.step()
            if status != "ok":
                return status
        raise ExecutionError(f"{self.name}: exceeded {max_steps} steps")

    # -- per-opcode semantics ------------------------------------------------------

    def _execute(self, inst: Instruction) -> str:
        op = inst.op
        if op is Op.V_RD:
            return self._exec_v_rd(inst)
        if op is Op.V_WR:
            return self._exec_v_wr(inst)
        if op is Op.M_RD:
            # M_RD: length = rows, imm = cols (total words = rows * cols).
            rows, cols = inst.length, int(inst.imm)
            if rows <= 0 or cols <= 0:
                raise ExecutionError(
                    f"{self.name}: M_RD needs positive rows ({rows}) and "
                    f"cols ({cols})"
                )
            memo = self.image and self.image.matrix(
                self.dram, inst.addr, rows, cols, self.fmt
            )
            if memo is None:
                memo = self._read_matrix(inst.addr, rows, cols)
            self.mrf[inst.dst], self._limits[inst.dst] = memo
            self.stats.dram_reads += 1
            return "ok"
        if op is Op.MV_MUL:
            matrix = self.mrf.get(inst.ma)
            if matrix is None:
                raise ExecutionError(
                    f"{self.name}: MV_MUL from unloaded matrix m{inst.ma}"
                )
            values = self.vector(inst.a)
            if matrix.shape[-1] != values.shape[-1]:
                raise ExecutionError(
                    f"{self.name}: MV_MUL dims {matrix.shape} @ {values.shape[-1]}"
                )
            streamed = self._streamed.get(self.pc)
            if streamed is not None and streamed[0] is matrix:
                products = streamed[1][self.loop_stack[-1][2]]
                self.vrf[inst.dst] = products.astype(np.float64)
                self.streamed_mv_muls += 1
                self.stats.mv_muls += 1
                return "ok"
            operand = self._operands.get(inst.a)
            if operand is None or operand[0] is not values:
                operand = self._operands[inst.a] = (values, *self._convert(values))
            result = self._matvec(inst.ma, matrix, operand[1], operand[2])
            self.vrf[inst.dst] = to_float16(result)
            self.stats.mv_muls += 1
            return "ok"

        # Multi-function unit operations (float16 rounding on the result).
        self.stats.mfu_ops += 1
        if op is Op.VV_ADD:
            result = self.vector(inst.a) + self.vector(inst.b)
        elif op is Op.VV_SUB:
            result = self.vector(inst.a) - self.vector(inst.b)
        elif op is Op.VV_MUL:
            result = self.vector(inst.a) * self.vector(inst.b)
        elif op is Op.V_SIGM:
            result = _sigmoid(self.vector(inst.a))
        elif op is Op.V_TANH:
            result = np.tanh(self.vector(inst.a))
        elif op is Op.V_RELU:
            result = np.maximum(self.vector(inst.a), 0.0)
        elif op is Op.V_COPY:
            result = self.vector(inst.a).copy()
        elif op is Op.V_FILL:
            result = np.full((*self.lanes, inst.length), float(inst.imm))
        elif op is Op.V_SLICE:
            offset = int(inst.imm)
            source = self.vector(inst.a)
            if offset + inst.length > source.shape[-1]:
                raise ExecutionError(f"{self.name}: V_SLICE out of range")
            result = source[..., offset : offset + inst.length].copy()
        elif op is Op.V_CONCAT:
            result = np.concatenate(
                [self.vector(inst.a), self.vector(inst.b)], axis=-1
            )
        else:  # pragma: no cover - exhaustive over Op
            raise ExecutionError(f"{self.name}: unimplemented opcode {op}")
        self.vrf[inst.dst] = to_float16(result)
        return "ok"

    def _exec_v_rd(self, inst: Instruction) -> str:
        if inst.is_sync:
            if self.fabric is None:
                raise ExecutionError(
                    f"{self.name}: sync read without a scale-out fabric"
                )
            combined = self.fabric.try_recv(self.replica_index, inst.addr, inst.length)
            if combined is None:
                return "blocked"
            self.vrf[inst.dst] = combined
            self.stats.recvs += 1
            return "ok"
        self.vrf[inst.dst] = self.dram.read(self._effective_addr(inst), inst.length)
        self.stats.dram_reads += 1
        return "ok"

    def _exec_v_wr(self, inst: Instruction) -> str:
        values = self.vector(inst.a)[..., : inst.length]
        if inst.is_sync:
            if self.fabric is None:
                raise ExecutionError(
                    f"{self.name}: sync write without a scale-out fabric"
                )
            self.fabric.send(self.replica_index, inst.addr, values)
            self.stats.sends += 1
            return "ok"
        self.dram.write(self._effective_addr(inst), values)
        self.stats.dram_writes += 1
        return "ok"


class FunctionalSimulator(SimulatorCore):
    """Executes one program on one (possibly scaled-down) accelerator.

    With ``image`` given, DRAM starts as that :class:`WeightImage`'s pages
    and ``M_RD`` of an unmodified weight region takes its memoised matrix.
    """

    def __init__(
        self,
        program: Program,
        bfp_format: BFPFormat = DEFAULT_FORMAT,
        fabric: ScaleOutFabric | None = None,
        replica_index: int = 0,
        name: str = "",
        image: WeightImage | None = None,
    ):
        super().__init__(
            program, bfp_format, fabric, replica_index, name or program.name,
            image, DRAM(image.pages if image is not None else None),
        )

    def _read_matrix(self, addr: int, rows: int, cols: int) -> tuple:
        flat = self.dram.read(addr, rows * cols)
        return quantise_matrix(flat.reshape(rows, cols), self.fmt)

    def _convert(self, values: np.ndarray) -> tuple:
        return bfp_quantize(values, self.fmt), None

    def _matvec(self, register: int, matrix: np.ndarray, quantised: np.ndarray,
                exponents) -> np.ndarray:
        # The tile engines accumulate exactly: one float64 dgemv.
        return matrix @ quantised


def run_program(program: Program, preload=None, **kwargs) -> FunctionalSimulator:
    """Run a single-accelerator program to completion.

    ``preload(sim)`` may populate DRAM/registers before execution; keyword
    arguments (``image=...`` among them) go to :class:`FunctionalSimulator`.
    """
    sim = FunctionalSimulator(program, **kwargs)
    if preload is not None:
        preload(sim)
    sim.run()
    return sim


def run_scaleout(
    programs: list,
    preload=None,
    bfp_format: BFPFormat = DEFAULT_FORMAT,
    images: list | None = None,
):
    """Co-simulate scale-out replicas to completion.

    ``programs[i]`` runs as replica ``i``; ``preload(sim, index)`` populates
    each replica's DRAM (each FPGA has its own DRAM with its own copy of
    inputs), starting from ``images[i]`` when given.  Replicas run
    round-robin until all finish; a full round with no progress is a
    deadlock and raises :class:`ExecutionError`.
    """
    fabric = ScaleOutFabric(len(programs))
    sims = [
        FunctionalSimulator(
            program, bfp_format=bfp_format, fabric=fabric, replica_index=index,
            image=images[index] if images is not None else None,
        )
        for index, program in enumerate(programs)
    ]
    if preload is not None:
        for index, sim in enumerate(sims):
            preload(sim, index)
    run_lockstep(sims)
    return sims, fabric


def run_lockstep(sims: list) -> None:
    """Run co-simulated replicas round-robin until all finish; a full
    round with no progress is a deadlock."""
    while not all(sim.finished for sim in sims):
        progressed = False
        for sim in sims:
            if sim.finished:
                continue
            before = sim.stats.instructions
            status = sim.run_until_blocked()
            if sim.stats.instructions > before or status == "halted":
                progressed = True
        if not progressed:
            stuck = [sim.name for sim in sims if not sim.finished]
            raise ExecutionError(f"scale-out deadlock; blocked replicas: {stuck}")
