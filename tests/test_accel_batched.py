"""Batched-simulator tests: the bit-identity contract against the scalar
simulator (model zoo configs and randomized property-style programs), the
paged copy-on-diverge :class:`BatchedDRAM`, the MV_MUL exactness
certificate, single-lane batches, the ``force_scalar`` reference and
batched scale-out."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.accel.batched as batched
from repro.accel.batched import (
    PAGE_WORDS,
    BatchedDRAM,
    BatchedFunctionalSimulator,
    ScalarLanes,
    input_streams,
    run_batched,
    run_scaleout_batched,
)
from repro.accel.codegen import (
    OUT_BASE,
    RNNWeights,
    build_scaleout_programs,
    make_codegen,
)
from repro.accel.functional import (
    FunctionalSimulator,
    SimStats,
    WeightImage,
    run_program,
    run_scaleout,
)
from repro.errors import ExecutionError
from repro.isa.bfp import DEFAULT_FORMAT
from repro.isa.instructions import (
    Instruction,
    Op,
    endloop,
    halt,
    loop,
    mv_mul,
    v_concat,
    v_copy,
    v_fill,
    v_rd,
    v_relu,
    v_sigm,
    v_slice,
    v_tanh,
    v_wr,
    vv_add,
    vv_mul,
    vv_sub,
)
from repro.isa.program import Program
from repro.workloads.deepbench import model_by_key


class TestBatchedDRAM:
    def test_broadcast_write_stays_shared(self):
        dram = BatchedDRAM(4)
        dram.write(100, np.arange(8.0))
        # One shared page, no lane copies.
        assert dram.resident_bytes == PAGE_WORDS * 8
        assert np.array_equal(dram.read_shared(100, 8), np.arange(8.0))
        stacked = dram.read(100, 8)
        assert stacked.shape == (4, 8)
        assert np.array_equal(stacked, np.tile(np.arange(8.0), (4, 1)))

    def test_lane_write_promotes_page(self):
        dram = BatchedDRAM(3)
        dram.write(0, np.ones(4))
        dram.write(0, np.full(4, 9.0), lane=1)
        # The touched page diverged: read_shared degrades to the stack.
        assert dram.read_shared(0, 4).shape == (3, 4)
        assert np.array_equal(dram.lane_read(0, 0, 4), np.ones(4))
        assert np.array_equal(dram.lane_read(1, 0, 4), np.full(4, 9.0))
        assert np.array_equal(dram.lane_read(2, 0, 4), np.ones(4))
        assert dram.resident_bytes == PAGE_WORDS * 3 * 8

    def test_per_lane_stack_write(self):
        dram = BatchedDRAM(2)
        dram.write(10, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(dram.read(10, 2), [[1.0, 2.0], [3.0, 4.0]])

    def test_broadcast_after_divergence_hits_every_lane(self):
        dram = BatchedDRAM(2)
        dram.write(0, np.zeros(4), lane=0)  # diverge the page first
        dram.write(0, np.arange(4.0))  # broadcast
        assert np.array_equal(dram.lane_read(0, 0, 4), np.arange(4.0))
        assert np.array_equal(dram.lane_read(1, 0, 4), np.arange(4.0))

    def test_write_spanning_pages(self):
        dram = BatchedDRAM(2, page_words=8)
        values = np.arange(12.0)
        dram.write(4, values)  # spans pages 0 and 1
        assert np.array_equal(dram.read_shared(4, 12), values)
        dram.write(4, values * 2, lane=1)
        assert np.array_equal(dram.lane_read(1, 4, 12), values * 2)
        assert np.array_equal(dram.lane_read(0, 4, 12), values)

    def test_unwritten_reads_zero(self):
        assert BatchedDRAM(2).read(123, 5).sum() == 0.0

    def test_errors(self):
        with pytest.raises(ExecutionError, match="positive batch"):
            BatchedDRAM(0)
        dram = BatchedDRAM(2)
        with pytest.raises(ExecutionError, match="out of range"):
            dram.write(0, np.ones(2), lane=5)
        with pytest.raises(ExecutionError, match="out of range"):
            dram.lane_read(2, 0, 4)
        with pytest.raises(ExecutionError, match="negative"):
            dram.read(-4, 4)
        with pytest.raises(ExecutionError, match="lanes"):
            dram.write(0, np.ones((3, 4)))


def _scalar_lanes(program, shared_preload, lane_preloads):
    """The reference: one scalar simulator per lane."""
    sims = []
    for preload in lane_preloads:
        sim = FunctionalSimulator(program)
        if shared_preload is not None:
            shared_preload(sim)
        preload(sim)
        sim.run()
        sims.append(sim)
    return sims


def _rnn_case(kind, hidden, timesteps, batch, seed):
    weights = RNNWeights.random(kind, hidden, seed=seed)
    gen = make_codegen(kind, weights, timesteps)
    program = gen.build()
    rng = np.random.default_rng(seed + 1)
    payloads = [
        rng.normal(0.0, 0.5, (timesteps, hidden)) for _ in range(batch)
    ]
    return gen, program, payloads


class TestRNNEquivalence:
    """The headline contract: batched outputs are *bitwise* the scalar
    simulator's, across model-zoo-shaped configs."""

    @pytest.mark.parametrize(
        "kind,hidden,timesteps",
        [
            ("gru", 32, 4),
            ("lstm", 32, 4),
            ("gru", 48, 1),
            ("lstm", 48, 3),
            ("gru", 512, 1),  # a real zoo config (gru-h512-t1)
        ],
    )
    def test_batched_equals_scalar_bitwise(self, kind, hidden, timesteps):
        batch = 5
        gen, program, payloads = _rnn_case(kind, hidden, timesteps, batch, seed=7)
        lanes = run_batched(
            program,
            [(lambda xs: (lambda v: gen.preload_inputs(v, xs)))(xs) for xs in payloads],
            image=WeightImage.build(gen.preload_weights),
        )
        assert not lanes.fallback
        # Every W·x_t product of a multi-step loop is precomputed.
        gates = {"gru": 3, "lstm": 4}[kind]
        assert lanes.sim.streamed_mv_muls == (
            gates * timesteps if timesteps > 1 else 0
        )
        for index, xs in enumerate(payloads):
            expected = run_program(
                program, preload=lambda s, xs=xs: gen.preload(s, xs)
            ).dram.read(OUT_BASE, hidden)
            assert np.array_equal(
                lanes.lane_dram_read(index, OUT_BASE, hidden), expected
            )

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "model_key", ["lstm-h256-t150", "lstm-h512-t25"]
    )
    def test_zoo_models_bitwise(self, model_key):
        spec = model_by_key(model_key)
        weights = spec.real_weights(seed=0)
        gen = make_codegen(spec.kind, weights, spec.timesteps)
        program = gen.build()
        rng = np.random.default_rng(3)
        payloads = [
            rng.normal(0.0, 1.0, (spec.timesteps, spec.effective_input_dim))
            for _ in range(4)
        ]
        lanes = run_batched(
            program,
            [(lambda xs: (lambda v: gen.preload_inputs(v, xs)))(xs) for xs in payloads],
            image=WeightImage.build(gen.preload_weights),
        )
        for index, xs in enumerate(payloads):
            expected = run_program(
                program, preload=lambda s, xs=xs: gen.preload(s, xs)
            ).dram.read(OUT_BASE, spec.hidden)
            assert np.array_equal(
                lanes.lane_dram_read(index, OUT_BASE, spec.hidden), expected
            )

    def test_singleton_batch_runs_batched(self):
        gen, program, payloads = _rnn_case("gru", 32, 2, 1, seed=5)
        lanes = run_batched(
            program,
            [lambda v: gen.preload_inputs(v, payloads[0])],
            image=WeightImage.build(gen.preload_weights),
        )
        assert not lanes.fallback and lanes.sim.batch == 1
        expected = run_program(
            program, preload=lambda s: gen.preload(s, payloads[0])
        ).dram.read(OUT_BASE, 32)
        assert np.array_equal(lanes.lane_dram_read(0, OUT_BASE, 32), expected)

    def test_force_scalar_falls_back_and_matches(self):
        gen, program, payloads = _rnn_case("lstm", 32, 3, 4, seed=9)
        preloads = [
            (lambda xs: (lambda v: gen.preload_inputs(v, xs)))(xs) for xs in payloads
        ]
        fast = run_batched(program, preloads, image=WeightImage.build(gen.preload_weights))
        slow = run_batched(
            program, preloads, image=WeightImage.build(gen.preload_weights), force_scalar=True
        )
        assert not fast.fallback and slow.fallback
        assert np.array_equal(
            fast.dram_read(OUT_BASE, 32), slow.dram_read(OUT_BASE, 32)
        )

    def test_empty_batch_rejected(self):
        _, program, _ = _rnn_case("gru", 32, 1, 2, seed=1)
        with pytest.raises(ExecutionError, match="at least one lane"):
            run_batched(program, [])

    def test_stats_aggregate_over_lanes(self):
        gen, program, payloads = _rnn_case("gru", 32, 2, 3, seed=2)
        lanes = run_batched(
            program,
            [(lambda xs: (lambda v: gen.preload_inputs(v, xs)))(xs) for xs in payloads],
            image=WeightImage.build(gen.preload_weights),
        )
        scalar = run_program(
            program, preload=lambda s: gen.preload(s, payloads[0])
        )
        # One batched instruction stream, not batch copies of it.
        assert lanes.stats.instructions == scalar.stats.instructions
        assert lanes.stats.mv_muls == scalar.stats.mv_muls

    def test_scalar_fallback_sums_every_stats_field(self, gru_small):
        """``ScalarLanes.stats`` sums every ``SimStats`` field, the sync
        counters included (replicas of a scale-out run exercise them)."""
        weights, xs = gru_small
        programs = build_scaleout_programs("gru", weights, xs.shape[0], 2)
        gens = [
            make_codegen("gru", weights, xs.shape[0], replicas=2, replica_index=i)
            for i in range(2)
        ]
        sims, _ = run_scaleout(programs, preload=lambda sim, i: gens[i].preload(sim, xs))
        merged = ScalarLanes(sims).stats
        for field in fields(SimStats):
            assert getattr(merged, field.name) == sum(
                getattr(sim.stats, field.name) for sim in sims
            ), field.name
        assert merged.sends > 0 and merged.recvs > 0


#: The certificate tests' operand and matrix addresses (the matrix on a
#: page of its own, so lane input writes leave it shared).
CERT_X, CERT_MAT = 0x100, 0x10000


def _product_program(rows: int, cols: int) -> Program:
    """``v1 = M @ v0`` for one ``(rows, cols)`` matrix."""
    program = Program(name="product")
    program.append(v_rd(0, CERT_X, cols))
    program.append(
        Instruction(Op.M_RD, dst=0, addr=CERT_MAT, length=rows, imm=float(cols))
    )
    program.append(mv_mul(1, 0, 0, rows))
    program.append(halt())
    return program


def _blocked(rng, magnitudes: np.ndarray) -> np.ndarray:
    """Normal values whose block ``j`` of each row is scaled by
    ``magnitudes[..., j]``."""
    block = DEFAULT_FORMAT.block_size
    cols = magnitudes.shape[-1] * block
    values = rng.normal(0.0, 1.0, (*magnitudes.shape[:-1], cols))
    return values * np.repeat(magnitudes, block, axis=-1)


def _batched_product(matrix: np.ndarray, vecs: np.ndarray):
    """Run :func:`_product_program` over ``vecs`` with ``matrix`` shared
    through a weight image; returns the finished batched simulator."""
    rows, cols = matrix.shape
    lanes = run_batched(
        _product_program(rows, cols),
        [(lambda x: (lambda view: view.dram.write(CERT_X, x)))(x) for x in vecs],
        image=WeightImage.build(lambda view: view.dram.write(CERT_MAT, matrix.ravel())),
    )
    return lanes.sim


def _scalar_product(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    sim = FunctionalSimulator(_product_program(*matrix.shape))
    sim.dram.write(CERT_X, x)
    sim.dram.write(CERT_MAT, matrix.ravel())
    sim.run()
    return sim.vector(1)


class TestExactnessCertificate:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 8),
        blocks=st.integers(1, 5),
        cut=st.integers(0, 15),
        batch=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_dgemm_equals_per_lane_dgemv(self, rows, blocks, cut, batch, seed):
        """Block magnitudes from 1e-3 to 10 in the matrix and in every lane:
        each lane is certified, and the one dgemm over the batch is bitwise
        the per-lane dgemv and the exactly rounded sum of its products."""
        rng = np.random.default_rng(seed)

        def magnitudes(shape):
            return 10.0 ** rng.uniform(-3.0, 1.0, shape)

        cols = blocks * DEFAULT_FORMAT.block_size - cut
        matrix = _blocked(rng, magnitudes((rows, blocks)))[:, :cols]
        vecs = _blocked(rng, magnitudes((batch, blocks)))[:, :cols]
        sim = BatchedFunctionalSimulator(Program([halt()]), batch=batch)
        sim.load_matrix(0, matrix)
        quantised, exponents = sim._convert(vecs)
        out = sim._matvec(0, sim.mrf[0], quantised, exponents)
        assert sim.inexact_lanes == 0
        for lane in range(batch):
            assert np.array_equal(out[lane], sim.mrf[0] @ quantised[lane])
            exact = [
                math.fsum(sim.mrf[0][row] * quantised[lane])
                for row in range(rows)
            ]
            assert np.array_equal(out[lane], exact)

    def test_zero_lane_is_certified(self):
        """An all-zero operand (an RNN's initial hidden state) multiplies
        nothing and passes the certificate."""
        rng = np.random.default_rng(2)
        matrix = rng.normal(0.0, 1.0, (4, 32))
        vecs = np.vstack([np.zeros(32), rng.normal(0.0, 1.0, 32)])
        sim = _batched_product(matrix, vecs)
        assert sim.inexact_lanes == 0
        assert np.array_equal(sim.vector(1)[0], np.zeros(4))
        for lane, x in enumerate(vecs):
            assert np.array_equal(sim.vector(1)[lane], _scalar_product(matrix, x))

    def test_forced_fallback_matches_scalar_and_is_counted(self):
        """A row whose blocks sit near 2**-300 and 2**300 spans far more
        than the 53-bit significand: every lane fails the certificate,
        runs the per-lane dgemv and still equals the scalar simulator.
        (The operand's second block is scaled down to keep the products
        in float16 range.)"""
        rng = np.random.default_rng(0)
        matrix = rng.normal(0.0, 1.0, (4, 32))
        matrix[1, :16] *= 2.0 ** -300
        matrix[1, 16:] *= 2.0 ** 300
        vecs = rng.normal(0.0, 1.0, (3, 32))
        vecs[:, 16:] *= 2.0 ** -300
        sim = _batched_product(matrix, vecs)
        assert sim.inexact_lanes == 3
        for lane, x in enumerate(vecs):
            assert np.array_equal(sim.vector(1)[lane], _scalar_product(matrix, x))

    def test_nonfinite_operand_lane_is_not_certified(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(0.0, 1.0, (4, 32))
        vecs = rng.normal(0.0, 1.0, (2, 32))
        vecs[1, 3] = np.inf
        with np.errstate(invalid="ignore"):
            sim = _batched_product(matrix, vecs)
        assert sim.inexact_lanes == 1
        assert np.array_equal(sim.vector(1)[0], _scalar_product(matrix, vecs[0]))
        assert np.isnan(sim.vector(1)[1]).all()


def _random_program(rng):
    """A type-correct random program plus its DRAM preload images.

    Exercises V_RD/V_WR (plain and loop-strided), M_RD + MV_MUL (shared
    and lane-divergent matrices), every MFU op, V_SLICE/V_CONCAT, and
    nested register reuse — the batched simulator must track the scalar
    one bitwise through all of it.  About half the programs multiply the
    loop's stream instead of writing it back: with a shared matrix those
    products are precomputed at loop entry (``hoisted``).
    """
    program = Program(name="prop")
    lengths = {}

    in_addr, mat_addr, stream_addr, out_addr = 0x100, 0x4000, 0x800, 0x6000
    # The stream's matrix sits on a page of its own, so it stays shared.
    stream_mat_addr = PAGE_WORDS
    n_inputs = int(rng.integers(2, 4))
    offset = 0
    for reg in range(n_inputs):
        length = int(rng.integers(4, 17))
        program.append(v_rd(reg, in_addr + offset, length))
        lengths[reg] = length
        offset += length
    total_in = offset
    next_reg = n_inputs

    # One matrix product: rows picked fresh, cols tied to an input register.
    src = int(rng.integers(0, n_inputs))
    rows, cols = int(rng.integers(3, 9)), lengths[src]
    shared_matrix = bool(rng.integers(0, 2))
    program.append(
        Instruction(Op.M_RD, dst=0, addr=mat_addr, length=rows, imm=float(cols))
    )
    program.append(mv_mul(next_reg, 0, src, rows))
    lengths[next_reg] = rows
    next_reg += 1

    # A loop with strided stream reads, and writes or products of them.
    iters, chunk = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    multiply = bool(rng.integers(0, 2))
    stream_rows = int(rng.integers(2, 7))
    if multiply:
        program.append(
            Instruction(Op.M_RD, dst=1, addr=stream_mat_addr, length=stream_rows,
                        imm=float(chunk))
        )
    program.append(loop(iters))
    program.append(
        Instruction(Op.V_RD, dst=next_reg, addr=stream_addr, length=chunk,
                    imm=float(chunk))
    )
    if multiply:
        program.append(mv_mul(next_reg + 1, 1, next_reg, stream_rows))
        lengths[next_reg + 1] = stream_rows
    else:
        program.append(
            Instruction(Op.V_WR, a=next_reg, addr=stream_addr + iters * chunk,
                        length=chunk, imm=float(chunk))
        )
    program.append(endloop())
    lengths[next_reg] = chunk
    next_reg += 2

    # Random MFU traffic over whatever is live.
    for _ in range(int(rng.integers(6, 16))):
        regs = list(lengths)
        a = int(rng.choice(regs))
        kind = int(rng.integers(0, 9))
        if kind < 3:  # binary op needs two same-length operands
            peers = [r for r in regs if lengths[r] == lengths[a]]
            b = int(rng.choice(peers))
            ctor = (vv_add, vv_sub, vv_mul)[kind]
            program.append(ctor(next_reg, a, b, lengths[a]))
            lengths[next_reg] = lengths[a]
        elif kind < 6:
            ctor = (v_sigm, v_tanh, v_relu)[kind - 3]
            program.append(ctor(next_reg, a, lengths[a]))
            lengths[next_reg] = lengths[a]
        elif kind == 6:
            program.append(v_copy(next_reg, a, lengths[a]))
            lengths[next_reg] = lengths[a]
        elif kind == 7 and lengths[a] >= 2:
            width = int(rng.integers(1, lengths[a]))
            start = int(rng.integers(0, lengths[a] - width + 1))
            program.append(v_slice(next_reg, a, start, width))
            lengths[next_reg] = width
        else:
            b = int(rng.choice(regs))
            program.append(v_concat(next_reg, a, b, lengths[a] + lengths[b]))
            lengths[next_reg] = lengths[a] + lengths[b]
        next_reg += 1
    fill = int(rng.integers(2, 9))
    program.append(v_fill(next_reg, float(rng.normal()), fill))
    lengths[next_reg] = fill

    # Spill every live register to a distinct DRAM window.
    spill = {}
    cursor = out_addr
    for reg, length in sorted(lengths.items()):
        program.append(v_wr(reg, cursor, length))
        spill[reg] = (cursor, length)
        cursor += length
    program.append(halt())

    matrix = rng.normal(0.0, 1.0, (rows, cols))
    return {
        "stream_mat_addr": stream_mat_addr,
        "stream_matrix": rng.normal(0.0, 1.0, (stream_rows, chunk)),
        "hoisted": multiply and shared_matrix,
        "iters": iters,
        "program": program,
        "lengths": lengths,
        "spill": spill,
        "in_addr": in_addr,
        "total_in": total_in,
        "mat_addr": mat_addr,
        "matrix": matrix,
        "shared_matrix": shared_matrix,
        "stream_addr": stream_addr,
        "stream_words": iters * chunk,
    }


class TestRandomProgramEquivalence:
    """Property-style: seeded random programs, random batch sizes, every
    architectural register and DRAM window compared bitwise."""

    SEEDS = range(10)

    def test_some_programs_are_hoisted(self):
        hoisted = [
            _random_program(np.random.default_rng(1000 + seed))["hoisted"]
            for seed in self.SEEDS
        ]
        assert any(hoisted) and not all(hoisted)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_tracks_scalar(self, seed):
        rng = np.random.default_rng(1000 + seed)
        case = _random_program(rng)
        batch = int(rng.integers(2, 9))

        lane_images = [
            {
                "inputs": rng.normal(0.0, 1.0, case["total_in"]),
                "stream": rng.normal(0.0, 1.0, case["stream_words"]),
                "matrix": case["matrix"]
                if case["shared_matrix"]
                else rng.normal(0.0, 1.0, case["matrix"].shape),
                "stream_matrix": case["stream_matrix"]
                if case["shared_matrix"]
                else rng.normal(0.0, 1.0, case["stream_matrix"].shape),
            }
            for _ in range(batch)
        ]

        def lane_preload(image):
            def preload(view):
                view.dram.write(case["in_addr"], image["inputs"])
                view.dram.write(case["stream_addr"], image["stream"])
                if not case["shared_matrix"]:
                    view.dram.write(case["mat_addr"], image["matrix"].ravel())
                    view.dram.write(case["stream_mat_addr"],
                                    image["stream_matrix"].ravel())
            return preload

        def shared_preload(view):
            if case["shared_matrix"]:
                view.dram.write(case["mat_addr"], case["matrix"].ravel())
                view.dram.write(case["stream_mat_addr"],
                                case["stream_matrix"].ravel())

        lanes = run_batched(
            case["program"],
            [lane_preload(image) for image in lane_images],
            image=WeightImage.build(shared_preload),
        )
        assert not lanes.fallback
        assert lanes.sim.streamed_mv_muls == (
            case["iters"] if case["hoisted"] else 0
        )

        for index, image in enumerate(lane_images):
            ref = FunctionalSimulator(case["program"])
            shared_preload(ref)
            lane_preload(image)(ref)
            ref.run()
            for reg in case["lengths"]:
                assert np.array_equal(
                    lanes.lane_vector(index, reg), ref.vector(reg)
                ), f"seed {seed}: v{reg} diverged on lane {index}"
            for reg, (addr, length) in case["spill"].items():
                assert np.array_equal(
                    lanes.lane_dram_read(index, addr, length),
                    ref.dram.read(addr, length),
                ), f"seed {seed}: DRAM spill of v{reg} diverged on lane {index}"


#: Input-stream hoist tests: the stream, the loop's matrix and a second
#: matrix (each on a page of its own, so lane writes leave them shared)
#: and the output.
H_X, H_MAT, H_MAT2, H_OUT = 0x100, 0x10000, 0x20000, 0x30000
H_ROWS, H_COLS = 5, 32

STREAM_READ = Instruction(Op.V_RD, dst=0, addr=H_X, length=H_COLS, imm=float(H_COLS))
PRODUCT = mv_mul(1, 0, 0, H_ROWS)
#: A body whose product is precomputed at loop entry.
HOISTED = (STREAM_READ, PRODUCT)
#: Bodies that must run the per-step product.
FALLBACK_BODIES = {
    "v_wr_into_stream": HOISTED + (
        Instruction(Op.V_WR, a=1, addr=H_X + H_COLS, length=H_ROWS,
                    imm=float(H_COLS)),
    ),
    "m_rd_in_body": HOISTED + (
        Instruction(Op.M_RD, dst=0, addr=H_MAT2, length=H_ROWS, imm=float(H_COLS)),
    ),
    "second_writer": (STREAM_READ, v_sigm(0, 0, H_COLS), PRODUCT),
    "product_before_read": (PRODUCT, STREAM_READ),
    "nested_loop": HOISTED + (loop(2), v_fill(3, 1.0, 4), endloop()),
}


def _hoist_program(trips: int, body) -> Program:
    """Accumulate ``body``'s ``v1`` over ``trips`` iterations into ``v2``
    (``v0`` holds the stream's first vector before the loop)."""
    program = Program(name="hoist")
    program.append(
        Instruction(Op.M_RD, dst=0, addr=H_MAT, length=H_ROWS, imm=float(H_COLS))
    )
    program.append(v_rd(0, H_X, H_COLS))
    program.append(v_fill(2, 0.0, H_ROWS))
    program.append(loop(trips))
    for inst in body:
        program.append(inst)
    program.append(vv_add(2, 2, 1, H_ROWS))
    program.append(endloop())
    program.append(v_wr(2, H_OUT, H_ROWS))
    program.append(halt())
    return program


def _run_hoist(program, trips: int, batch: int = 3, shared: bool = True,
               streams=None, loop_imm=None, prepare=None):
    """Run ``program`` batched and per lane on the scalar simulator with
    random streams (``streams[lane]`` when given) and assert the bitwise
    contract: every register, the output and ``SimStats`` equal each
    lane's scalar run.  ``loop_imm`` rewrites the ``LOOP`` count once the
    simulators are built (validation rejects a count below 1);
    ``prepare(sim)`` runs on every simulator before its run."""
    rng = np.random.default_rng(trips * 10 + batch)
    matrices = rng.normal(0.0, 1.0, (2, H_ROWS, H_COLS))
    lane_matrices = rng.normal(0.0, 1.0, (batch, H_ROWS, H_COLS))
    if streams is None:
        streams = rng.normal(0.0, 1.0, (batch, (trips + 1) * H_COLS))

    def weights(view):
        if shared:
            view.dram.write(H_MAT, matrices[0].ravel())
        view.dram.write(H_MAT2, matrices[1].ravel())

    def inputs(view, lane):
        view.dram.write(H_X, streams[lane])
        if not shared:
            view.dram.write(H_MAT, lane_matrices[lane].ravel())

    sim = BatchedFunctionalSimulator(program, batch, image=WeightImage.build(weights))
    refs = [FunctionalSimulator(program) for _ in range(batch)]
    for lane, ref in enumerate(refs):
        inputs(sim.lane(lane), lane)
        weights(ref)
        inputs(ref, lane)
    if loop_imm is not None:
        index = next(i for i, inst in enumerate(program.instructions)
                     if inst.op is Op.LOOP)
        program.instructions[index] = Instruction(Op.LOOP, imm=float(loop_imm))
    if prepare is not None:
        for each in (sim, *refs):
            prepare(each)
    sim.run()
    for lane, ref in enumerate(refs):
        ref.run()
        for register in (0, 1, 2):
            assert np.array_equal(sim.lane_vector(lane, register), ref.vector(register))
        assert np.array_equal(sim.dram.lane_read(lane, H_OUT, H_ROWS),
                              ref.dram.read(H_OUT, H_ROWS))
        assert sim.stats == ref.stats
    return sim


class TestInputStreamHoist:
    """A loop's input-stream ``MV_MUL``s run as chunked dgemms at loop
    entry; every body that breaks a condition of :func:`input_streams`
    runs the per-step product, bitwise the scalar simulator either way."""

    def test_hoisted_run_matches_scalar(self):
        sim = _run_hoist(_hoist_program(6, HOISTED), trips=6)
        assert sim.streamed_mv_muls == 6
        assert sim.inexact_lanes == 0

    def test_plan_maps_loop_to_its_stream_products(self):
        plan = input_streams(_hoist_program(6, HOISTED + (mv_mul(3, 0, 0, H_ROWS),)))
        assert plan == {3: {4: [5, 6]}}

    @pytest.mark.parametrize("body", sorted(FALLBACK_BODIES))
    def test_disqualified_body_falls_back(self, body):
        program = _hoist_program(6, FALLBACK_BODIES[body])
        assert input_streams(program) == {}
        sim = _run_hoist(program, trips=6)
        assert sim.streamed_mv_muls == 0

    def test_lane_divergent_matrix_falls_back(self):
        program = _hoist_program(6, HOISTED)
        assert input_streams(program)
        sim = _run_hoist(program, trips=6, shared=False)
        assert sim.mrf[0].ndim == 3
        assert sim.streamed_mv_muls == 0

    @pytest.mark.parametrize("loop_imm", [0, 1])
    def test_short_loop_falls_back(self, loop_imm):
        sim = _run_hoist(_hoist_program(1, HOISTED), trips=1, loop_imm=loop_imm)
        assert sim.stats.mv_muls == 1  # a zero-trip loop still runs once
        assert sim.streamed_mv_muls == 0

    def test_uncertified_rows_count_as_in_the_per_step_path(self):
        """Rows whose first block sits near 2**-40 span more than the
        certificate allows: each (lane, iteration) row of them reruns the
        dgemv and counts once, exactly as the per-step products count."""
        trips, batch = 8, 3
        rng = np.random.default_rng(5)
        streams = rng.normal(0.0, 1.0, (batch, trips + 1, H_COLS))
        wide = rng.random((batch, trips + 1)) < 0.3
        streams[..., :16] *= np.where(wide, 2.0 ** -40, 1.0)[..., None]
        streams = streams.reshape(batch, -1)
        hoisted = _run_hoist(_hoist_program(trips, HOISTED), trips, batch,
                             streams=streams)
        # A V_WR outside the stream keeps the products per step.
        spill = Instruction(Op.V_WR, a=1, addr=H_OUT + H_COLS, length=H_ROWS)
        per_step = _run_hoist(_hoist_program(trips, HOISTED + (spill,)),
                              trips, batch, streams=streams)
        assert hoisted.streamed_mv_muls == trips and per_step.streamed_mv_muls == 0
        assert hoisted.inexact_lanes == per_step.inexact_lanes
        assert hoisted.inexact_lanes == int(wide[:, :trips].sum()) > 0

    def test_trips_not_a_multiple_of_the_chunk(self, monkeypatch):
        """Seven trips of three lanes in chunks of about eight rows: three
        chunks of 9, 6 and 6 rows, each converted once."""
        monkeypatch.setattr(batched, "STREAM_ROWS", 8)
        calls = []
        quantise = batched.bfp_quantize_blocks

        def counting(values, fmt):
            calls.append(values.shape[0])
            return quantise(values, fmt)

        monkeypatch.setattr(batched, "bfp_quantize_blocks", counting)
        sim = _run_hoist(_hoist_program(7, HOISTED), trips=7, batch=3)
        assert calls == [9, 6, 6]
        assert sim.streamed_mv_muls == 7

    def test_matrix_loaded_by_the_host_mid_loop_runs_per_step(self):
        """The precomputed products hold only while the register *is* the
        matrix they came from."""
        other = np.random.default_rng(8).normal(0.0, 1.0, (H_ROWS, H_COLS))

        def reload_at_iteration_three(sim):
            _step_to_iteration(sim, 3)
            sim.load_matrix(0, other)

        sim = _run_hoist(_hoist_program(6, HOISTED), trips=6,
                         prepare=reload_at_iteration_three)
        assert sim.streamed_mv_muls == 3


def _step_to_iteration(sim, index: int) -> None:
    while not (sim.loop_stack and sim.loop_stack[-1][2] == index):
        assert sim.step() == "ok"


class TestScaleOutBatched:
    @pytest.mark.parametrize("replicas", [2, 4])
    def test_matches_per_lane_scaleout_bitwise(self, replicas, gru_small):
        weights, xs0 = gru_small
        h, t = weights.hidden, xs0.shape[0]
        rng = np.random.default_rng(17)
        payloads = [rng.normal(0.0, 0.5, (t, h)) for _ in range(3)]
        programs = build_scaleout_programs("gru", weights, t, replicas)
        gens = [
            make_codegen("gru", weights, t, replicas=replicas, replica_index=i)
            for i in range(replicas)
        ]

        lanes, fabric = run_scaleout_batched(
            programs,
            [
                (lambda xs: (lambda view, i: gens[i].preload_inputs(view, xs)))(xs)
                for xs in payloads
            ],
            images=[WeightImage.build(gen.preload_weights) for gen in gens],
        )
        assert fabric.bytes_transferred > 0
        # Sync transfers in the loop body leave the x stream hoistable.
        assert all(replica.sim.streamed_mv_muls == 3 * t for replica in lanes)
        slice_rows = h // replicas

        for index, xs in enumerate(payloads):
            sims, _ = run_scaleout(
                programs, preload=lambda sim, i, xs=xs: gens[i].preload(sim, xs)
            )
            for rep in range(replicas):
                expected = sims[rep].dram.read(
                    OUT_BASE + rep * slice_rows, slice_rows
                )
                got = lanes[rep].lane_dram_read(
                    index, OUT_BASE + rep * slice_rows, slice_rows
                )
                assert np.array_equal(got, expected)

    def test_sync_without_fabric_rejected_at_validation(self, gru_small):
        from repro.errors import ProgramValidationError

        weights, xs = gru_small
        programs = build_scaleout_programs("gru", weights, xs.shape[0], 2)
        with pytest.raises(ProgramValidationError, match="sync"):
            BatchedFunctionalSimulator(programs[0], batch=2)
