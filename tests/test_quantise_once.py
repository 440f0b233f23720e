"""Quantise once: ``MV_MUL`` converts a vector register to BFP once per
write and reuses that conversion until the register is written again.

Between two ``MV_MUL``s of one source register, each kind of writer
replaces the register; the second product must be the product of the
register's *current* value, in the scalar and in the batched simulator.
A counting test pins the saving on one LSTM timestep."""

import math
from dataclasses import replace

import numpy as np
import pytest

import repro.accel.batched as batched
import repro.accel.functional as functional
from repro.accel.batched import BatchedFunctionalSimulator, run_scaleout_batched
from repro.accel.codegen import make_codegen
from repro.accel.functional import FunctionalSimulator, WeightImage, run_scaleout
from repro.isa.bfp import bfp_matvec, to_float16
from repro.isa.instructions import (
    SYNC_ADDRESS,
    Op,
    halt,
    m_rd,
    mv_mul,
    v_copy,
    v_fill,
    v_rd,
    v_wr,
    vv_add,
)
from repro.isa.program import Program
from repro.workloads.deepbench import model_by_key

ROWS, COLS, HALF = 6, 32, 16
#: The matrix sits on a page of its own, so lane input writes leave it shared.
X0, X1, MAT = 0x100, 0x200, 0x10000
BATCH = 3
MATRIX = np.random.default_rng(0).normal(0.0, 1.0, (ROWS, COLS))

#: Writers of v0 placed between the two products (v3 holds other values).
WRITERS = {
    "v_rd": [v_rd(0, X1, COLS)],
    "mfu": [vv_add(0, 0, 3, COLS)],
    "v_fill": [v_fill(0, 0.37, COLS)],
    "v_copy": [v_copy(0, 3, COLS)],
}


def _program(between=(), replica=None) -> Program:
    """``v1 = M @ v0``, then ``between``, then ``v2 = M @ v0``.

    With ``replica`` set, ``between`` is a sync exchange instead: the
    replica sends its half of ``X1`` and receives the combined vector
    into ``v0``."""
    program = Program(name="quantise-once")
    program.append(v_rd(0, X0, COLS))
    program.append(v_rd(3, X1, COLS))
    program.append(replace(m_rd(0, MAT, ROWS), imm=float(COLS)))
    program.append(mv_mul(1, 0, 0, ROWS))
    if replica is not None:
        between = [
            v_rd(4, X1 + replica * HALF, HALF),
            v_wr(4, SYNC_ADDRESS, HALF),
            v_rd(0, SYNC_ADDRESS, COLS),
        ]
    for inst in between:
        program.append(inst)
    program.append(mv_mul(2, 0, 0, ROWS))
    program.append(halt())
    return program


def _inputs(lane: int):
    rng = np.random.default_rng(100 + lane)
    return rng.normal(0.0, 1.0, COLS), rng.normal(0.0, 1.0, COLS)


def _preload(view, lane: int, matrix: bool = True) -> None:
    x0, x1 = _inputs(lane)
    view.dram.write(X0, x0)
    view.dram.write(X1, x1)
    if matrix:
        view.dram.write(MAT, MATRIX)


def _scalar(program: Program) -> FunctionalSimulator:
    sim = FunctionalSimulator(program)
    _preload(sim, 0)
    return sim


def _batched(program: Program, shared: bool = True) -> BatchedFunctionalSimulator:
    """Lane inputs differ; the matrix is written once for every lane
    (``shared``: the certified one-dgemm path) or per lane (per-lane
    dgemv)."""
    sim = BatchedFunctionalSimulator(program, BATCH)
    for lane in range(BATCH):
        _preload(sim.lane(lane), lane, matrix=not shared)
    if shared:
        sim.dram.write(MAT, MATRIX.ravel())
    return sim


def _step_past_first_product(sim) -> None:
    """Step until the first ``MV_MUL`` has run (its operand is memoised)."""
    while 1 not in sim.vrf:
        assert sim.step() == "ok"


def _assert_current(matrix, source, first, second) -> None:
    """``second`` is the product of the source's current value, and the
    rewrite changed the product (so a stale conversion would show)."""
    assert np.array_equal(second, to_float16(bfp_matvec(matrix, source)))
    assert not np.array_equal(first, second)


def _assert_scalar(sim) -> None:
    _assert_current(sim.mrf[0], sim.vector(0), sim.vector(1), sim.vector(2))


def _assert_batched(sim) -> None:
    matrix = sim.mrf[0]
    for lane in range(sim.batch):
        _assert_current(
            matrix if matrix.ndim == 2 else matrix[lane],
            sim.vector(0)[lane], sim.vector(1)[lane], sim.vector(2)[lane],
        )


@pytest.mark.parametrize("writer", sorted(WRITERS))
class TestInstructionWriters:
    def test_scalar(self, writer):
        sim = _scalar(_program(WRITERS[writer]))
        sim.run()
        _assert_scalar(sim)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_lane"])
    def test_batched(self, writer, shared):
        sim = _batched(_program(WRITERS[writer]), shared)
        sim.run()
        assert (sim.mrf[0].ndim == 2) is shared
        _assert_batched(sim)


class TestSyncReceive:
    def test_run_scaleout(self):
        sims, _ = run_scaleout(
            [_program(replica=index) for index in range(2)],
            preload=lambda sim, index: _preload(sim, 0),
        )
        for sim in sims:
            assert sim.stats.recvs == 1
            assert np.array_equal(sim.vector(0), _inputs(0)[1])
            _assert_scalar(sim)

    def test_run_scaleout_batched(self):
        replicas, _ = run_scaleout_batched(
            [_program(replica=index) for index in range(2)],
            [
                (lambda lane: (lambda view, index: _preload(view, lane)))(lane)
                for lane in range(BATCH)
            ],
        )
        for lanes in replicas:
            assert lanes.stats.recvs == 1
            _assert_batched(lanes.sim)


class TestHostWriters:
    def test_host_assignment_scalar(self):
        sim = _scalar(_program())
        _step_past_first_product(sim)
        sim.vrf[0] = np.linspace(-1.0, 1.0, COLS)
        sim.run()
        _assert_scalar(sim)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_lane"])
    def test_host_assignment_batched(self, shared):
        sim = _batched(_program(), shared)
        _step_past_first_product(sim)
        sim.vrf[0] = np.linspace(-1.0, 1.0, BATCH * COLS).reshape(BATCH, COLS)
        sim.run()
        _assert_batched(sim)


def _step_until_iteration(sim, index: int) -> None:
    """Step until the innermost loop has finished ``index`` iterations."""
    while not (sim.loop_stack and sim.loop_stack[-1][2] == index):
        assert sim.step() == "ok"


@pytest.mark.parametrize("simulator", ["scalar", "batched"])
def test_lstm_timestep_quantises_each_source_once(monkeypatch, simulator):
    """An LSTM timestep multiplies ``x`` by four ``W`` and ``h`` by four
    ``U``: two conversions, not eight.  The batched simulator converts the
    whole ``x`` stream at loop entry, in chunks of ``STREAM_ROWS``
    (iteration, lane) rows, so a timestep converts ``h`` only."""
    spec = model_by_key("lstm-h256-t150")
    gen = make_codegen(spec.kind, spec.real_weights(), spec.timesteps)
    program = gen.build()
    image = WeightImage.build(gen.preload_weights)
    xs = np.random.default_rng(3).normal(0.0, 0.5, (spec.timesteps, spec.hidden))
    if simulator == "scalar":
        sim = FunctionalSimulator(program, image=image)
        gen.preload_inputs(sim, xs)
        module = functional
    else:
        sim = BatchedFunctionalSimulator(program, 2, image=image)
        for lane in range(2):
            gen.preload_inputs(sim.lane(lane), xs * (lane + 1))
        module = batched

    calls = []

    def counting(quantise):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return quantise(*args, **kwargs)
        return wrapper

    # The batched simulator converts with bfp_quantize_blocks (it keeps
    # the block exponents), the scalar one with bfp_quantize.
    for name in ("bfp_quantize", "bfp_quantize_blocks"):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
    while program.instructions[sim.pc].op is not Op.LOOP:
        assert sim.step() == "ok"
    calls.clear()
    assert sim.step() == "ok"  # loop entry
    if simulator == "batched":
        rows = spec.timesteps * sim.batch
        assert len(calls) == math.ceil(rows / batched.STREAM_ROWS) == 2
    else:
        assert not calls
    _step_until_iteration(sim, 1)
    calls.clear()
    _step_until_iteration(sim, 2)
    assert sim.stats.mv_muls == 16
    assert len(calls) == (2 if simulator == "scalar" else 1)
    assert sim.streamed_mv_muls == (0 if simulator == "scalar" else 8)
