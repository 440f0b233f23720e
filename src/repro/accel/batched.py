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
  instead of ``N`` dgemv calls) can legally reorder float summation.  The
  batched path runs the dgemm, then applies a *rounding-boundary guard*:
  a rigorous forward error bound ``E`` on the difference between any two
  float64 summation orders is computed per output element, and any element
  whose interval ``[v - E, v + E]`` straddles a float16 rounding boundary
  is recomputed with the exact scalar dgemv (``matrix @ lane``).  Because
  the architectural result of ``MV_MUL`` is the float16-rounded value, all
  unflagged elements provably round to the same float16 as the scalar
  path, and flagged elements (empirically ~1e-9 of outputs) are taken from
  the scalar computation verbatim.

Memory
------

Lane DRAMs are paged (:class:`BatchedDRAM`): pages identical in every
lane (the pages of the deployment's resident
:class:`~repro.accel.functional.WeightImage`) are stored once and shared;
only lane-varying pages (inputs, outputs) are materialised per lane.  A
shared matrix region loads into one ``(rows, cols)`` MRF entry consumed
by the dgemm fast path — the image's memoised matrix while the region is
unmodified.

Fallback
--------

:func:`run_batched` falls back to the scalar simulator for singleton
batches (``N == 1``) and on request (``force_scalar=True``, used by the
runtime when a coalescing group degenerates); divergence cannot arise
within a batch because the ISA has no data-dependent control flow — lanes
of one program execute in lockstep by construction.  Scale-out programs
run under :func:`run_scaleout_batched`, which co-simulates ``k`` replica
simulators, each ``N`` lanes wide, over one fabric.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from ..errors import ExecutionError
from ..isa.bfp import BFPFormat, DEFAULT_FORMAT, bfp_quantize
from ..isa.program import Program
from .functional import (
    PAGE_WORDS,
    FunctionalSimulator,
    ScaleOutFabric,
    SimStats,
    SimulatorCore,
    WeightImage,
    guard_factor,
    page_spans,
    run_lockstep,
)

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
    callables use (``.dram.write/.read`` and ``.load_matrix``), mapping
    every access to one lane — existing ``preload(sim, ...)`` functions
    work unchanged, one lane at a time.
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
        self._sim = sim
        self.lane = lane
        self.dram = self._LaneDRAM(sim.dram, lane)

    def load_matrix(self, register: int, matrix: np.ndarray) -> None:
        self._sim.load_matrix(register, matrix, lane=self.lane)


class BatchedFunctionalSimulator(SimulatorCore):
    """Executes one program over ``batch`` lanes in lockstep.

    Runs :class:`~repro.accel.functional.SimulatorCore`'s instruction
    semantics with every vector register a ``(batch, length)`` array.
    Matrix registers stay shared ``(rows, cols)`` arrays while their DRAM
    source is lane-identical (the common case), unlocking the
    guarded-dgemm ``MV_MUL`` path; a lane-divergent matrix region degrades
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
        #: Output elements the boundary guard sent to the exact scalar
        #: path (observability: expected to stay ~0).
        self.guard_recomputed = 0

    # -- state access --------------------------------------------------------

    def lane(self, index: int) -> LaneView:
        return LaneView(self, index)

    def lane_vector(self, lane: int, register: int) -> np.ndarray:
        return self.vector(register)[lane]

    def load_matrix(self, register: int, matrix: np.ndarray,
                    lane: int | None = None) -> None:
        """Host-side direct matrix load (bypasses DRAM; tests/tools)."""
        quantised = bfp_quantize(np.asarray(matrix, dtype=np.float64), self.fmt)
        if lane is None:
            self.mrf[register] = quantised
            self._guards[register] = guard_factor(quantised)
            return
        current = self.mrf.get(register)
        if current is None or current.ndim == 2:
            stack = np.zeros((self.batch, *quantised.shape), dtype=np.float64)
            if current is not None and current.shape == quantised.shape:
                stack[:] = current
            self.mrf[register] = stack
            self._guards[register] = None
        self.mrf[register][lane] = quantised

    # -- M_RD and MV_MUL -----------------------------------------------------

    def _read_matrix(self, addr: int, rows: int, cols: int) -> tuple:
        flat = self.dram.read_shared(addr, rows * cols)
        if flat.ndim == 1:
            matrix = bfp_quantize(flat.reshape(rows, cols), self.fmt)
            return matrix, guard_factor(matrix)
        return bfp_quantize(flat.reshape(self.batch, rows, cols), self.fmt), None

    def _convert(self, values: np.ndarray) -> tuple:
        quantised = bfp_quantize(values, self.fmt)
        return quantised, np.abs(quantised).max(axis=1, keepdims=True)

    def _matvec(self, register: int, matrix: np.ndarray, quantised: np.ndarray,
                lane_max: np.ndarray) -> np.ndarray:
        if matrix.ndim == 2:
            return self._matvec_shared(
                matrix, self._guards[register], quantised, lane_max
            )
        # Lane-divergent matrices: the exact scalar path per lane.
        return np.stack([
            matrix[lane] @ quantised[lane] for lane in range(self.batch)
        ])

    def _matvec_shared(self, matrix: np.ndarray, guard: np.ndarray,
                       quantised: np.ndarray, lane_max: np.ndarray) -> np.ndarray:
        """``(batch, rows)`` batched matrix-vector product of BFP-quantised
        operands, bit-identical (post float16 rounding) to the per-lane
        dgemv ``matrix @ quantised[lane]``.

        One dgemm computes all lanes; the rounding-boundary guard then
        recomputes — with the *exact* scalar dgemv — every element whose
        error interval could round differently in float16.  ``guard`` is
        the matrix's :func:`~repro.accel.functional.guard_factor` and
        ``lane_max`` the per-lane ``max|quantised|`` as a column.
        """
        out = quantised @ matrix.T
        # Per-element bound on |any-order dot - this dot|:
        #   E = max|x_lane| * gamma(cols) * sum_k |A[row, k]|
        bound = lane_max * guard
        lo = (out - bound).astype(np.float16)
        hi = (out + bound).astype(np.float16)
        ambiguous = lo != hi
        # NaN/inf compare unequal to themselves -> recomputed exactly.
        if ambiguous.any():
            for lane in np.nonzero(ambiguous.any(axis=1))[0]:
                exact = matrix @ quantised[lane]
                mask = ambiguous[lane]
                out[lane, mask] = exact[mask]
                self.guard_recomputed += int(mask.sum())
        return out


class ScalarLanes:
    """Scalar-simulator fallback behind the batched read API.

    Runs each lane through its own :class:`FunctionalSimulator` (the exact
    scalar path) and exposes the ``(batch, ...)``-shaped accessors that
    callers of :func:`run_batched` consume — singleton batches and forced
    fallbacks go through here.
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
    exposing ``.dram.write/.read`` and ``.load_matrix``.  Returns an
    object with ``vector``/``lane_vector``/``dram_read``/``lane_dram_read``
    and a ``fallback`` flag.

    Falls back to the scalar simulator for singleton batches and when
    ``force_scalar`` is set — the fallback executes the identical scalar
    code path, so outputs are trivially bit-identical.
    """
    batch = len(lane_preloads)
    if batch < 1:
        raise ExecutionError("run_batched needs at least one lane")
    if batch == 1 or force_scalar:
        sims = []
        for preload in lane_preloads:
            sim = FunctionalSimulator(program, bfp_format=bfp_format, image=image)
            preload(sim)
            sim.run(max_steps)
            sims.append(sim)
        return ScalarLanes(sims)
    sim = BatchedFunctionalSimulator(
        program, batch, bfp_format=bfp_format, image=image
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
