"""Batched (SIMD-over-requests) functional simulation.

:class:`~repro.accel.functional.FunctionalSimulator` executes one
instruction of one request at a time — the validation style, not a serving
engine.  This module stacks the architectural state of ``N`` concurrent
requests to *identical deployments* (same decoded :class:`Program`, same
control flow) into numpy arrays with a leading batch axis and executes one
vectorized step over the whole batch: the Python dispatch, BFP
quantisation, MFU elementwise work and the matrix reads are all amortised
``N``-wide.

Bit-identity contract
---------------------

Batched execution produces *bit-identical* architectural state to running
each lane through the scalar simulator:

* Both simulators run one copy of the instruction semantics
  (:class:`~repro.accel.functional.SimulatorCore`); only the ``M_RD``
  read, the operand's BFP conversion and ``MV_MUL`` differ by layout.
* Elementwise paths (MFU ops, activations, float16 rounding) and the
  blockwise BFP quantisation operate along the last axis, so a ``(N, L)``
  batch computes exactly the per-lane values.
* ``MV_MUL`` is the one place a faster algorithm (one dgemm for the batch
  instead of ``N`` dgemv calls) could reorder float64 summation, and BFP
  makes the order irrelevant: every quantised value is a small integer
  times its block's power-of-two scale, so a product's partial sums are
  exact whenever the block exponents involved fit the significand.  An
  *exactness certificate* checks that per lane from two cheap summaries —
  the matrix's per-row block-exponent span, memoised with the matrix at
  ``M_RD``, and the lane's span, taken when the operand is quantised.
  Certified lanes (in practice all of them) take the one dgemm; any other
  lane runs the scalar simulator's own dgemv, ``matrix @ lane``, on the
  same matrix layout.  Either way each lane's product is bitwise the
  scalar one, before the float16 rounding as well as after it.
* A loop's input-stream ``MV_MUL``s (:func:`input_streams`: the operand
  is a strided DRAM read and nothing in the body can change DRAM or the
  matrix) depend only on the iteration index.  When the loop starts,
  every iteration's product is computed in advance by the same certified
  dgemm, over chunks of (iteration, lane) rows: each row is quantised
  along the last axis exactly as its per-step operand would be and passes
  or fails the same certificate, so each installed product is bitwise the
  per-step one.

Memory
------

Lane DRAMs are paged (:class:`BatchedDRAM`): pages identical in every
lane (the pages of the deployment's resident
:class:`~repro.accel.functional.WeightImage`) are stored once and shared;
only lane-varying pages (inputs, outputs) are materialised per lane.  A
shared matrix region loads into one ``(rows, cols)`` MRF entry consumed
by the dgemm fast path — the image's memoised matrix while the region is
unmodified, stored column-major so ``quantised @ matrix.T`` is a plain
dgemm.

A loop's precomputed stream products are kept float16-rounded, ``(trips,
batch, rows)``, until the next loop entry; while they are computed, the
transients are one chunk of about :data:`STREAM_ROWS` rows (its operands,
their quantisation and its float64 products).

Fallback
--------

:func:`run_batched` runs every batch, a single lane included, on the
batched simulator; ``force_scalar=True`` runs each lane through the
scalar simulator instead, the independent reference the equivalence
harnesses compare against.  Divergence cannot arise within a batch
because the ISA has no data-dependent control flow — lanes of one
program execute in lockstep by construction.  Scale-out programs run
under :func:`run_scaleout_batched`, which co-simulates ``k`` replica
simulators, each ``N`` lanes wide, over one fabric.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from ..errors import ExecutionError
from ..isa.bfp import BFPFormat, DEFAULT_FORMAT, bfp_quantize_blocks
from ..isa.instructions import VECTOR_WRITERS, Op
from ..isa.program import Program
from .functional import (
    PAGE_WORDS,
    FunctionalSimulator,
    ScaleOutFabric,
    SimStats,
    SimulatorCore,
    WeightImage,
    exponent_range,
    page_spans,
    quantise_matrix,
    run_lockstep,
)

#: Rows (lanes x iterations) per chunk when a loop's input-stream products
#: are precomputed: one chunk's operands and float64 products are the
#: transient memory of :meth:`BatchedFunctionalSimulator._enter_loop`.
STREAM_ROWS = 256


def input_streams(program: Program) -> dict:
    """``{LOOP pc: {V_RD pc: [MV_MUL pc, ...]}}``: the input-stream
    ``MV_MUL``s of each loop, grouped by the strided read they multiply.

    An ``MV_MUL`` qualifies when its operand register is written in the
    loop body only by one non-sync ``V_RD`` with a positive stride that
    comes earlier in the body, and its matrix register is never
    ``M_RD``'d in the body; a loop qualifies only when its body holds no
    nested ``LOOP`` and no non-sync ``V_WR``, so DRAM cannot change while
    it runs.  Each iteration's product then depends on the iteration
    index alone.
    """
    instructions = program.instructions
    plan = {}
    starts = []
    for end, inst in enumerate(instructions):
        if inst.op is Op.LOOP:
            starts.append(end)
        elif inst.op is Op.ENDLOOP and starts:
            start = starts.pop()
            streams = _body_streams(instructions, start + 1, end)
            if streams:
                plan[start] = streams
    return plan


def _body_streams(instructions: list, begin: int, end: int) -> dict:
    body = range(begin, end)
    if any(
        instructions[pc].op is Op.LOOP
        or (instructions[pc].op is Op.V_WR and not instructions[pc].is_sync)
        for pc in body
    ):
        return {}
    loaded = {instructions[pc].dst for pc in body if instructions[pc].op is Op.M_RD}
    writers: dict[int, list] = {}
    for pc in body:
        if instructions[pc].op in VECTOR_WRITERS:
            writers.setdefault(instructions[pc].dst, []).append(pc)
    streams: dict[int, list] = {}
    for pc in body:
        inst = instructions[pc]
        if inst.op is not Op.MV_MUL or inst.ma in loaded:
            continue
        sources = writers.get(inst.a, ())
        if len(sources) != 1 or sources[0] > pc:
            continue
        read = instructions[sources[0]]
        if read.op is Op.V_RD and not read.is_sync and int(read.imm) > 0:
            streams.setdefault(sources[0], []).append(pc)
    return streams


class BatchedDRAM:
    """``batch`` lane DRAMs with copy-on-diverge page sharing.

    Pages written identically to every lane (broadcast writes, or the
    ``pages`` of a :class:`~repro.accel.functional.WeightImage`) are
    stored once as ``(PAGE,)`` arrays; a lane-targeted or per-lane write
    promotes the page to a ``(batch, PAGE)`` array, and a broadcast write
    into a read-only shared page copies it first.  Reads return ``(batch,
    length)``; callers that can exploit sharing (``M_RD``) use
    :meth:`read_shared`, which returns ``(length,)`` when every touched
    page is still shared.
    """

    def __init__(self, batch: int, page_words: int = PAGE_WORDS,
                 pages: dict | None = None):
        if batch < 1:
            raise ExecutionError("BatchedDRAM needs a positive batch size")
        self.batch = batch
        self.page_words = page_words
        self._shared: dict[int, np.ndarray] = dict(pages) if pages else {}
        self._laned: dict[int, np.ndarray] = {}

    # -- page helpers --------------------------------------------------------

    def _lane_page(self, number: int) -> np.ndarray:
        """The ``(batch, PAGE)`` array for one page, promoting as needed."""
        page = self._laned.get(number)
        if page is None:
            page = np.zeros((self.batch, self.page_words), dtype=np.float64)
            shared = self._shared.pop(number, None)
            if shared is not None:
                page[:] = shared
            self._laned[number] = page
        return page

    def _spans(self, addr: int, length: int):
        return page_spans(addr, length, self.page_words)

    def page(self, number: int):
        """The array currently backing page ``number`` (``None`` if unwritten)."""
        laned = self._laned.get(number)
        return laned if laned is not None else self._shared.get(number)

    # -- writes --------------------------------------------------------------

    def write(self, addr: int, values: np.ndarray, lane: int | None = None) -> None:
        """Write ``values`` at ``addr``.

        * ``values`` of shape ``(length,)`` with ``lane=None`` is a
          *broadcast* write: every lane sees it (stored shared unless the
          page already diverged).
        * ``values`` of shape ``(batch, length)`` writes per lane.
        * ``lane=i`` writes one lane only (promotes touched pages).
        """
        values = np.asarray(values, dtype=np.float64)
        if lane is not None:
            if values.ndim != 1:
                values = values.ravel()
            if not 0 <= lane < self.batch:
                raise ExecutionError(f"lane {lane} out of range 0..{self.batch - 1}")
            for number, page_offset, start, stop in self._spans(addr, values.size):
                page = self._lane_page(number)
                page[lane, page_offset : page_offset + (stop - start)] = values[start:stop]
            return
        if values.ndim == 1:
            for number, page_offset, start, stop in self._spans(addr, values.size):
                width = stop - start
                laned = self._laned.get(number)
                if laned is not None:
                    laned[:, page_offset : page_offset + width] = values[start:stop]
                else:
                    page = self._shared.get(number)
                    if page is None:
                        page = self._shared[number] = np.zeros(
                            self.page_words, dtype=np.float64
                        )
                    elif not page.flags.writeable:
                        page = self._shared[number] = page.copy()
                    page[page_offset : page_offset + width] = values[start:stop]
            return
        if values.shape[0] != self.batch:
            raise ExecutionError(
                f"batched write of {values.shape[0]} lanes into a "
                f"{self.batch}-lane DRAM"
            )
        length = values.shape[1]
        for number, page_offset, start, stop in self._spans(addr, length):
            page = self._lane_page(number)
            page[:, page_offset : page_offset + (stop - start)] = values[:, start:stop]

    # -- reads ---------------------------------------------------------------

    def _touched_all_shared(self, addr: int, length: int) -> bool:
        return all(
            number not in self._laned
            for number, _po, _s, _e in self._spans(addr, length)
        )

    def read_shared(self, addr: int, length: int) -> np.ndarray:
        """``(length,)`` when every touched page is shared across lanes,
        else the full ``(batch, length)`` stack."""
        if self._touched_all_shared(addr, length):
            out = np.zeros(length, dtype=np.float64)
            for number, page_offset, start, stop in self._spans(addr, length):
                page = self._shared.get(number)
                if page is not None:
                    out[start:stop] = page[page_offset : page_offset + (stop - start)]
            return out
        return self.read(addr, length)

    def read(self, addr: int, length: int) -> np.ndarray:
        """The ``(batch, length)`` stack at ``addr`` (shared pages are
        broadcast; unwritten words read as zero)."""
        out = np.zeros((self.batch, length), dtype=np.float64)
        for number, page_offset, start, stop in self._spans(addr, length):
            width = stop - start
            laned = self._laned.get(number)
            if laned is not None:
                out[:, start:stop] = laned[:, page_offset : page_offset + width]
                continue
            shared = self._shared.get(number)
            if shared is not None:
                out[:, start:stop] = shared[page_offset : page_offset + width]
        return out

    def lane_read(self, lane: int, addr: int, length: int) -> np.ndarray:
        """One lane's ``(length,)`` view of ``addr`` (copy)."""
        if not 0 <= lane < self.batch:
            raise ExecutionError(f"lane {lane} out of range 0..{self.batch - 1}")
        out = np.zeros(length, dtype=np.float64)
        for number, page_offset, start, stop in self._spans(addr, length):
            width = stop - start
            laned = self._laned.get(number)
            if laned is not None:
                out[start:stop] = laned[lane, page_offset : page_offset + width]
                continue
            shared = self._shared.get(number)
            if shared is not None:
                out[start:stop] = shared[page_offset : page_offset + width]
        return out

    @property
    def resident_bytes(self) -> int:
        """Actual storage held (the sharing win is visible here)."""
        shared = len(self._shared) * self.page_words * 8
        laned = len(self._laned) * self.page_words * self.batch * 8
        return shared + laned


class LaneView:
    """A per-lane facade over a batched simulator.

    Exposes the subset of the scalar simulator surface that preload
    callables use (``.dram.write/.read``), mapping every access to one
    lane — existing ``preload(sim, ...)`` functions work unchanged, one
    lane at a time.
    """

    class _LaneDRAM:
        def __init__(self, dram: BatchedDRAM, lane: int):
            self._dram = dram
            self._lane = lane

        def write(self, addr: int, values: np.ndarray) -> None:
            self._dram.write(addr, np.asarray(values, dtype=np.float64).ravel(),
                             lane=self._lane)

        def read(self, addr: int, length: int) -> np.ndarray:
            return self._dram.lane_read(self._lane, addr, length)

    def __init__(self, sim: "BatchedFunctionalSimulator", lane: int):
        self.lane = lane
        self.dram = self._LaneDRAM(sim.dram, lane)


class BatchedFunctionalSimulator(SimulatorCore):
    """Executes one program over ``batch`` lanes in lockstep.

    Runs :class:`~repro.accel.functional.SimulatorCore`'s instruction
    semantics with every vector register a ``(batch, length)`` array.
    Matrix registers stay shared ``(rows, cols)`` arrays while their DRAM
    source is lane-identical (the common case), unlocking the certified
    one-dgemm ``MV_MUL`` path; a lane-divergent matrix region degrades
    that register to ``(batch, rows, cols)`` with per-lane dgemv —
    bit-identical either way.
    """

    scaleout_runner = "run_scaleout_batched"

    def __init__(
        self,
        program: Program,
        batch: int,
        bfp_format: BFPFormat = DEFAULT_FORMAT,
        fabric: ScaleOutFabric | None = None,
        replica_index: int = 0,
        name: str = "",
        image: WeightImage | None = None,
    ):
        if batch < 1:
            raise ExecutionError("batched simulation needs a positive batch")
        super().__init__(
            program, bfp_format, fabric, replica_index,
            name or f"{program.name}[x{batch}]", image,
            BatchedDRAM(batch, pages=image.pages if image is not None else None),
        )
        self.batch = batch
        self.lanes = (batch,)
        #: Lanes of a shared-matrix ``MV_MUL`` that failed the exactness
        #: certificate and ran the per-lane dgemv (expected to stay 0).
        #: Beside it, the core's ``streamed_mv_muls`` counts the
        #: ``MV_MUL``s that installed a product precomputed at loop entry.
        self.inexact_lanes = 0
        self._streams = input_streams(program)

    # -- state access --------------------------------------------------------

    def lane(self, index: int) -> LaneView:
        return LaneView(self, index)

    def lane_vector(self, lane: int, register: int) -> np.ndarray:
        return self.vector(register)[lane]

    # -- M_RD and MV_MUL -----------------------------------------------------

    def _read_matrix(self, addr: int, rows: int, cols: int) -> tuple:
        # A lane-divergent region quantises to a (batch, rows, cols) stack.
        flat = self.dram.read_shared(addr, rows * cols)
        return quantise_matrix(flat.reshape(*flat.shape[:-1], rows, cols), self.fmt)

    def _enter_loop(self, pc: int) -> None:
        """Precompute every iteration's product of the loop's input-stream
        ``MV_MUL``s (:func:`input_streams`) as a few large certified dgemms.

        Each stream is read and converted once, in chunks of about
        :data:`STREAM_ROWS` (iteration, lane) rows, and every chunk goes
        through :meth:`_matvec` for each ``MV_MUL`` reading it: each row
        passes the same certificate as the per-step product (an
        uncertified row reruns the dgemv and counts in
        :attr:`inexact_lanes`).  Products are kept float16-rounded,
        ``(trips, batch, rows)``, and an ``MV_MUL`` installs its row only
        while its register still holds the matrix they were computed
        from (a lane-divergent matrix, or a one-trip loop, is not
        precomputed).
        """
        self._streamed = {}
        trips = self.loop_stack[-1][1]
        if trips < 2:
            return
        instructions = self.program.instructions
        chunks = np.array_split(
            np.arange(trips), min(trips, -(-trips * self.batch // STREAM_ROWS))
        )
        for read_pc, mul_pcs in self._streams.get(pc, {}).items():
            read = instructions[read_pc]
            targets = []
            for mul_pc in mul_pcs:
                register = instructions[mul_pc].ma
                matrix = self.mrf.get(register)
                if matrix is None or matrix.ndim != 2 or matrix.shape[-1] != read.length:
                    continue
                products = np.empty((trips, self.batch, matrix.shape[0]), np.float16)
                self._streamed[mul_pc] = (matrix, products)
                targets.append((register, matrix, products))
            if not targets:
                continue
            stride = int(read.imm)
            for chunk in chunks:
                rows = np.stack([
                    self.dram.read(read.addr + stride * int(index), read.length)
                    for index in chunk
                ]).reshape(-1, read.length)
                quantised, exponents = self._convert(rows)
                for register, matrix, products in targets:
                    products[chunk[0] : chunk[-1] + 1] = self._matvec(
                        register, matrix, quantised, exponents
                    ).reshape(chunk.size, self.batch, -1)

    def _convert(self, values: np.ndarray) -> tuple:
        quantised, exponents = bfp_quantize_blocks(values, self.fmt)
        # The batch's extreme exponents: its span bounds every lane's.
        highest, lowest = exponent_range(exponents.ravel())
        return quantised, (exponents, highest, lowest)

    def _matvec(self, register: int, matrix: np.ndarray, quantised: np.ndarray,
                exponents: tuple) -> np.ndarray:
        """``(n, rows)`` products of ``n`` operand rows (the batch's lanes,
        or a chunk of a loop's (iteration, lane) rows), each bitwise the
        scalar dgemv ``matrix @ quantised[row]``: a shared matrix takes one
        dgemm, exact (so order-free) for every row that passes the
        certificate (:func:`~repro.accel.functional.exactness_limits`; the
        extreme exponents clear every row at once); any other row reruns
        the dgemv and counts in :attr:`inexact_lanes`."""
        if matrix.ndim == 3:
            # Lane-divergent matrices: the scalar path per lane.
            return np.stack([
                matrix[lane] @ quantised[lane] for lane in range(self.batch)
            ])
        out = quantised @ matrix.T
        exponents, top, bottom = exponents
        room, floor, cap = self._limits[register]
        if not (top - bottom <= room and bottom >= floor and top <= cap):
            highest, lowest = exponent_range(exponents)
            exact = (highest - lowest <= room) & (lowest >= floor) & (highest <= cap)
            for lane in np.flatnonzero(~exact):
                out[lane] = matrix @ quantised[lane]
                self.inexact_lanes += 1
        return out


class ScalarLanes:
    """Scalar-simulator fallback behind the batched read API.

    Runs each lane through its own :class:`FunctionalSimulator` (the
    independent scalar reference) and exposes the ``(batch, ...)``-shaped
    accessors that callers of :func:`run_batched` consume — what
    ``force_scalar`` returns.
    """

    fallback = True

    def __init__(self, sims: list):
        self.sims = sims
        self.batch = len(sims)

    def vector(self, register: int) -> np.ndarray:
        return np.stack([sim.vector(register) for sim in self.sims])

    def lane_vector(self, lane: int, register: int) -> np.ndarray:
        return self.sims[lane].vector(register)

    def dram_read(self, addr: int, length: int) -> np.ndarray:
        return np.stack([sim.dram.read(addr, length) for sim in self.sims])

    def lane_dram_read(self, lane: int, addr: int, length: int) -> np.ndarray:
        return self.sims[lane].dram.read(addr, length)

    @property
    def stats(self) -> SimStats:
        """Every counter summed over the lane simulators."""
        return SimStats(**{
            field.name: sum(getattr(sim.stats, field.name) for sim in self.sims)
            for field in fields(SimStats)
        })


class _BatchedLanes:
    """Uniform read API over a finished :class:`BatchedFunctionalSimulator`."""

    fallback = False

    def __init__(self, sim: BatchedFunctionalSimulator):
        self.sim = sim
        self.batch = sim.batch

    def vector(self, register: int) -> np.ndarray:
        return self.sim.vector(register)

    def lane_vector(self, lane: int, register: int) -> np.ndarray:
        return self.sim.vector(register)[lane]

    def dram_read(self, addr: int, length: int) -> np.ndarray:
        return self.sim.dram.read(addr, length)

    def lane_dram_read(self, lane: int, addr: int, length: int) -> np.ndarray:
        return self.sim.dram.lane_read(lane, addr, length)

    @property
    def stats(self) -> SimStats:
        return self.sim.stats


def run_batched(
    program: Program,
    lane_preloads: list,
    image: WeightImage | None = None,
    bfp_format: BFPFormat = DEFAULT_FORMAT,
    force_scalar: bool = False,
    max_steps: int = 100_000_000,
):
    """Run ``len(lane_preloads)`` requests of one program to completion.

    Every lane's DRAM starts from ``image`` (the lane-identical weights,
    see :class:`~repro.accel.functional.WeightImage`);
    ``lane_preloads[i](view)`` writes lane ``i``'s inputs through a view
    exposing ``.dram.write/.read``.  Returns an
    object with ``vector``/``lane_vector``/``dram_read``/``lane_dram_read``
    and a ``fallback`` flag.

    ``force_scalar`` runs every lane on the scalar simulator instead; the
    batched path is bitwise equal to it (see the module docstring).
    """
    if not lane_preloads:
        raise ExecutionError("run_batched needs at least one lane")
    if force_scalar:
        sims = []
        for preload in lane_preloads:
            sim = FunctionalSimulator(program, bfp_format=bfp_format, image=image)
            preload(sim)
            sim.run(max_steps)
            sims.append(sim)
        return ScalarLanes(sims)
    sim = BatchedFunctionalSimulator(
        program, len(lane_preloads), bfp_format=bfp_format, image=image
    )
    for lane, preload in enumerate(lane_preloads):
        preload(sim.lane(lane))
    sim.run(max_steps)
    return _BatchedLanes(sim)


def run_scaleout_batched(
    programs: list,
    lane_preloads: list,
    images: list | None = None,
    bfp_format: BFPFormat = DEFAULT_FORMAT,
):
    """Co-simulate ``len(programs)`` scale-out replicas, each
    ``len(lane_preloads)`` lanes wide, over one fabric.

    Replica ``i``'s DRAM starts from ``images[i]`` (every FPGA holds its
    own image) and ``lane_preloads[lane](view, i)`` writes each lane's
    inputs.  Lanes run in lockstep: the fabric exchanges ``(batch,
    length)`` slices, so the combined hidden state arrives per lane
    exactly as in the scalar co-simulation.  Returns
    ``(lanes_per_replica, fabric)``.
    """
    batch = len(lane_preloads)
    if batch < 1:
        raise ExecutionError("run_scaleout_batched needs at least one lane")
    fabric = ScaleOutFabric(len(programs))
    sims = [
        BatchedFunctionalSimulator(
            program, batch, bfp_format=bfp_format, fabric=fabric,
            replica_index=index,
            image=images[index] if images is not None else None,
        )
        for index, program in enumerate(programs)
    ]
    for index, sim in enumerate(sims):
        for lane, preload in enumerate(lane_preloads):
            preload(sim.lane(lane), index)
    run_lockstep(sims)
    return [_BatchedLanes(sim) for sim in sims], fabric
