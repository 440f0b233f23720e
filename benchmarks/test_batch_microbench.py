"""Microbenchmarks of the batch-axis hot paths behind
:mod:`repro.accel.batched`: the vectorized sigmoid, blockwise BFP
quantisation over ``(batch, length)`` stacks and ``(rows, cols)``
matrices, the certified one-dgemm MV_MUL against per-lane dgemv, a loop's
input-stream products as chunked dgemms at loop entry, and the
end-to-end batched-vs-scalar RNN run.

All inputs come from explicitly seeded generators and every benchmark
asserts output shapes (and, where the contract demands it, bitwise
equality), so timings double as correctness checks and re-runs measure
identical work.
"""

import numpy as np

from repro.accel.batched import BatchedFunctionalSimulator, run_batched
from repro.accel.codegen import OUT_BASE, RNNWeights, make_codegen
from repro.accel.functional import FunctionalSimulator, WeightImage, _sigmoid
from repro.isa.bfp import DEFAULT_FORMAT, bfp_matvec, bfp_quantize, to_float16
from repro.isa.instructions import Instruction, Op, endloop, halt, loop, mv_mul
from repro.isa.program import Program

SEED = 0
BATCH = 32
LENGTH = 1024
ROWS, COLS = 256, 256


def _stack(seed: int = SEED, batch: int = BATCH, length: int = LENGTH):
    return np.random.default_rng(seed).normal(0.0, 1.0, (batch, length))


def test_sigmoid_batch_axis(benchmark):
    stack = _stack()
    out = benchmark(_sigmoid, stack)
    assert out.shape == (BATCH, LENGTH)
    # The batched stack computes exactly the per-lane values.
    assert np.array_equal(out[3], _sigmoid(stack[3]))


def test_bfp_quantize_batch_axis(benchmark):
    stack = _stack(seed=1)
    out = benchmark(bfp_quantize, stack, DEFAULT_FORMAT)
    assert out.shape == (BATCH, LENGTH)
    assert np.array_equal(out[5], bfp_quantize(stack[5], DEFAULT_FORMAT))


def test_bfp_quantize_matrix(benchmark):
    matrix = np.random.default_rng(2).normal(0.0, 1.0, (ROWS, COLS))
    out = benchmark(bfp_quantize, matrix, DEFAULT_FORMAT)
    assert out.shape == (ROWS, COLS)


def test_certified_batched_matvec(benchmark):
    """Operand quantisation, the exactness certificate and one dgemm for
    the whole batch, over the column-major matrix register."""
    rng = np.random.default_rng(3)
    vecs = rng.normal(0.0, 1.0, (BATCH, COLS))
    sim = BatchedFunctionalSimulator(Program([halt()]), batch=BATCH)
    sim.load_matrix(0, rng.normal(0.0, 1.0, (ROWS, COLS)))
    matrix = sim.mrf[0]

    def certified():
        return sim._matvec(0, matrix, *sim._convert(vecs))

    out = benchmark(certified)
    assert out.shape == (BATCH, ROWS)
    assert sim.inexact_lanes == 0
    for lane in range(BATCH):
        # Exact arithmetic: bitwise the per-lane dgemv, before float16.
        assert np.array_equal(out[lane], bfp_matvec(matrix, vecs[lane], DEFAULT_FORMAT))


def test_streamed_products(benchmark):
    """Every iteration's product of a loop's input-stream MV_MUL, computed
    at loop entry as chunked certified dgemms: bitwise the per-step
    certified matvecs (float16-rounded, as the register receives them)."""
    trips, batch = 64, 8
    program = Program([
        loop(trips),
        Instruction(Op.V_RD, dst=0, addr=0, length=COLS, imm=float(COLS)),
        mv_mul(1, 0, 0, ROWS),
        endloop(),
        halt(),
    ])
    rng = np.random.default_rng(5)
    streams = rng.normal(0.0, 1.0, (batch, trips, COLS))
    sim = BatchedFunctionalSimulator(program, batch=batch)
    for lane in range(batch):
        sim.dram.write(0, streams[lane].ravel(), lane=lane)
    sim.load_matrix(0, rng.normal(0.0, 1.0, (ROWS, COLS)))
    matrix = sim.mrf[0]

    def streamed():
        sim.loop_stack = [[1, trips, 0]]
        sim._enter_loop(0)
        return sim._streamed[2][1]

    products = benchmark(streamed)
    assert products.shape == (trips, batch, ROWS)
    assert sim.inexact_lanes == 0
    for step in range(trips):
        per_step = sim._matvec(0, matrix, *sim._convert(streams[:, step]))
        assert np.array_equal(products[step].astype(np.float64), to_float16(per_step))


def test_per_lane_matvec_reference(benchmark):
    """The N-dgemv baseline the certified dgemm amortises."""
    rng = np.random.default_rng(3)
    matrix = bfp_quantize(rng.normal(0.0, 1.0, (ROWS, COLS)), DEFAULT_FORMAT)
    vecs = rng.normal(0.0, 1.0, (BATCH, COLS))

    def per_lane():
        return np.stack(
            [bfp_matvec(matrix, vecs[i], DEFAULT_FORMAT) for i in range(BATCH)]
        )

    out = benchmark(per_lane)
    assert out.shape == (BATCH, ROWS)


def _rnn_fixture(batch: int):
    weights = RNNWeights.random("lstm", 64, seed=SEED)
    gen = make_codegen("lstm", weights, 8)
    program = gen.build()
    rng = np.random.default_rng(4)
    payloads = [rng.normal(0.0, 0.5, (8, 64)) for _ in range(batch)]
    return gen, program, payloads


def test_batched_rnn_run(benchmark):
    gen, program, payloads = _rnn_fixture(16)

    def run():
        return run_batched(
            program,
            [
                (lambda xs: (lambda v: gen.preload_inputs(v, xs)))(xs)
                for xs in payloads
            ],
            image=WeightImage.build(gen.preload_weights),
        )

    lanes = benchmark(run)
    assert lanes.dram_read(OUT_BASE, 64).shape == (16, 64)


def test_scalar_rnn_run_reference(benchmark):
    gen, program, payloads = _rnn_fixture(16)

    def run():
        outputs = []
        for xs in payloads:
            sim = FunctionalSimulator(program)
            gen.preload(sim, xs)
            sim.run()
            outputs.append(sim.dram.read(OUT_BASE, 64))
        return np.stack(outputs)

    out = benchmark(run)
    assert out.shape == (16, 64)
