"""Resident weight images: image-backed execution is bitwise the image-less
simulator's, one image per model is shared by every
executor, plan width and replica of the process, copy-on-write keeps the image
intact when a program writes into its weight pages, and the executor
takes its programs from the decoded-program cache."""

import hashlib

import numpy as np
import pytest

from repro.accel.batched import BatchedFunctionalSimulator, run_batched
from repro.accel.codegen import OUT_BASE, build_scaleout_programs, make_codegen
from repro.accel.functional import (
    PAGE_WORDS,
    FunctionalSimulator,
    WeightImage,
    run_scaleout,
)
from repro.cluster import Task
from repro.isa.assembler import assemble
from repro.isa.bfp import DEFAULT_FORMAT, bfp_quantize
from repro.isa.instructions import Instruction, Op, halt, mv_mul, v_fill, v_wr
from repro.isa.program import Program
from repro.isa.progcache import PROGRAM_CACHE
from repro.runtime import BatchExecutor, BatchingParameters
from repro.runtime.batching import (
    WEIGHT_STORE,
    WEIGHT_STORE_CAPACITY,
    input_codegen,
    resident_weights,
)
from repro.workloads.deepbench import model_by_key

S_MODELS = ("gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25")
LANES = 8


def _payloads(spec, count: int, seed: int = 11) -> list:
    rng = np.random.default_rng(seed)
    return [
        rng.normal(0.0, 1.0, (spec.timesteps, spec.effective_input_dim))
        for _ in range(count)
    ]


def _tasks(model_key: str, payloads: list) -> list:
    return [
        Task(task_id=i, model_key=model_key, arrival_s=0.0, size_class="S",
             payload=xs)
        for i, xs in enumerate(payloads)
    ]


def _execute(executor: BatchExecutor, tasks: list, replicas: int = 1) -> list:
    for task in tasks:
        executor.submit(task, replicas=replicas)
    executor.flush()
    return [task.output for task in tasks]


@pytest.fixture(scope="module", params=S_MODELS)
def s_model(request):
    """One S model with image-less reference outputs for ``LANES`` inputs:
    a fresh simulator per request with the full ``gen.preload`` image."""
    spec = model_by_key(request.param)
    gen = make_codegen(spec.kind, spec.real_weights(seed=0), spec.timesteps)
    program = gen.build()
    payloads = _payloads(spec, LANES)
    expected = []
    for xs in payloads:
        sim = FunctionalSimulator(program)
        gen.preload(sim, xs)
        sim.run()
        expected.append(sim.dram.read(OUT_BASE, spec.hidden))
    return spec, payloads, expected


class TestImageEquivalence:
    @pytest.mark.parametrize("force_scalar", [False, True])
    def test_executor_matches_imageless_bitwise(self, s_model, force_scalar):
        spec, payloads, expected = s_model
        for batch in (1, 3, 8):
            executor = BatchExecutor(
                BatchingParameters(max_batch=batch, force_scalar=force_scalar)
            )
            outputs = _execute(executor, _tasks(spec.key, payloads[:batch]))
            for got, want in zip(outputs, expected):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            # A one-lane group runs batched too; only force_scalar does not.
            assert (executor.stats.batched_lanes > 0) == (not force_scalar)

    @pytest.mark.parametrize("force_scalar", [False, True])
    def test_two_replica_scaleout_matches_imageless(self, force_scalar):
        spec = model_by_key("gru-h512-t1")
        weights = spec.real_weights(seed=0)
        gens = [
            make_codegen(spec.kind, weights, spec.timesteps, replicas=2,
                         replica_index=i)
            for i in range(2)
        ]
        programs = build_scaleout_programs(spec.kind, weights, spec.timesteps, 2)
        payloads = _payloads(spec, 3)
        executor = BatchExecutor(
            BatchingParameters(max_batch=3, force_scalar=force_scalar)
        )
        outputs = _execute(executor, _tasks(spec.key, payloads), replicas=2)
        for xs, got in zip(payloads, outputs):
            sims, _ = run_scaleout(
                programs, preload=lambda sim, i, xs=xs: gens[i].preload(sim, xs)
            )
            want = np.concatenate([
                sims[i].dram.read(OUT_BASE + gens[i].slice.start,
                                  gens[i].slice.rows)
                for i in range(2)
            ])
            assert np.array_equal(got, want)


@pytest.fixture
def cold_store():
    """An empty process-wide weight store with zeroed counters, emptied
    again afterwards."""
    WEIGHT_STORE.clear()
    WEIGHT_STORE.reset_stats()
    yield WEIGHT_STORE
    WEIGHT_STORE.clear()
    WEIGHT_STORE.reset_stats()


def _digest(image: WeightImage) -> str:
    """A hash of every page and every memoised matrix of ``image``."""
    sha = hashlib.sha256()
    for number in sorted(image.pages):
        sha.update(repr(number).encode())
        sha.update(image.pages[number].tobytes())
    for key in sorted(image._matrices, key=repr):
        quantised, limits = image._matrices[key]
        sha.update(repr((key, limits)).encode())
        sha.update(quantised.tobytes(order="A"))
    return sha.hexdigest()


class TestWeightStore:
    def test_images_built_lazily_once_per_process(self, cold_store):
        spec = model_by_key("gru-h512-t1")
        payloads = _payloads(spec, 4)
        first = BatchExecutor(BatchingParameters(max_batch=2))
        assert len(cold_store) == 0
        _execute(first, _tasks(spec.key, payloads[:2]))
        assert cold_store.misses == 1
        image = resident_weights(spec.key)
        assert isinstance(image, WeightImage)
        # The executor's codegen writes inputs only: it holds no tensors.
        gen = input_codegen(spec)
        assert all(
            tensor is None
            for tensor in gen.weights.w + gen.weights.u + gen.weights.b
        )
        second = BatchExecutor(BatchingParameters(max_batch=2))
        _execute(second, _tasks(spec.key, payloads[2:]))
        assert cold_store.misses == 1 and len(cold_store) == 1
        assert resident_weights(spec.key) is image

    @pytest.mark.parametrize("replicas", [1, 2])
    @pytest.mark.parametrize("force_scalar", [False, True])
    def test_cold_and_warm_store_outputs_bitwise_equal(
        self, cold_store, force_scalar, replicas
    ):
        spec = model_by_key("gru-h512-t1")
        payloads = _payloads(spec, 3)
        params = BatchingParameters(max_batch=3, force_scalar=force_scalar)
        cold = _execute(BatchExecutor(params), _tasks(spec.key, payloads),
                        replicas=replicas)
        assert cold_store.misses == 1
        warm = _execute(BatchExecutor(params), _tasks(spec.key, payloads),
                        replicas=replicas)
        assert cold_store.misses == 1
        for got, want in zip(warm, cold):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_shared_image_unchanged_by_a_run(self, cold_store):
        spec = model_by_key("lstm-h512-t25")
        payloads = _payloads(spec, 2)
        _execute(BatchExecutor(BatchingParameters(max_batch=2)),
                 _tasks(spec.key, payloads))
        image = resident_weights(spec.key)
        assert image._matrices  # the first run filled the memo
        before = _digest(image)
        for force_scalar in (False, True):
            executor = BatchExecutor(
                BatchingParameters(max_batch=2, force_scalar=force_scalar)
            )
            _execute(executor, _tasks(spec.key, payloads))
            assert resident_weights(spec.key) is image
            assert _digest(image) == before
        assert not any(page.flags.writeable for page in image.pages.values())
        assert not any(
            quantised.flags.writeable for quantised, _ in image._matrices.values()
        )

    def test_store_evicts_least_recently_used_past_its_bound(
            self, cold_store, monkeypatch):
        assert cold_store.capacity == WEIGHT_STORE_CAPACITY
        # One image per model, and the registry holds fewer models than
        # the bound: a bound of two shows the eviction order on three
        # small models.
        monkeypatch.setattr(cold_store, "capacity", 2)
        first, second, third = S_MODELS
        resident_weights(first)
        resident_weights(second)
        assert cold_store.evictions == 0
        resident_weights(first)  # the first becomes the most recent
        resident_weights(third)
        assert cold_store.evictions == 1
        assert len(cold_store) == 2
        assert first in cold_store
        assert second not in cold_store

    def test_scaleout_widths_share_one_page_set(self, cold_store):
        """Width 1 and both replicas of a width-2 scale-out run on one
        image: one page set, whose matrix memo holds the full matrices
        and each replica's half-row slices."""
        spec = model_by_key("gru-h512-t1")
        payloads = _payloads(spec, 2)
        for replicas in (1, 2):
            _execute(BatchExecutor(BatchingParameters(max_batch=2)),
                     _tasks(spec.key, payloads), replicas=replicas)
        assert cold_store.misses == 1 and len(cold_store) == 1
        image = resident_weights(spec.key)
        rows = {key[1] for key in image._matrices}
        assert rows == {spec.hidden, spec.hidden // 2}
        addresses = {key[0] for key in image._matrices if key[1] == spec.hidden // 2}
        assert len(addresses) == 2 * 2 * 3  # W and U halves of 3 gates


class TestProgramSource:
    def test_repeated_executions_hit_the_program_cache(self):
        spec = model_by_key("gru-h512-t1")
        payloads = _payloads(spec, 3)
        executor = BatchExecutor(BatchingParameters(max_batch=1))
        _execute(executor, _tasks(spec.key, payloads[:1]))
        hits = PROGRAM_CACHE.hits
        _execute(executor, _tasks(spec.key, payloads[1:]))
        assert PROGRAM_CACHE.hits == hits + 2


# -- copy-on-write ----------------------------------------------------------------

#: A 4x4 weight matrix straddling a page boundary, and the word its first
#: row starts at.
MAT_ADDR = PAGE_WORDS - 6
MATRIX = np.arange(1.0, 17.0).reshape(4, 4) / 7.0


def _cow_program() -> Program:
    """Load the matrix, overwrite its first row from v0, load it again,
    and multiply with both copies (``M_RD``: length = rows, imm = cols)."""
    return Program(
        name="cow",
        instructions=[
            Instruction(Op.M_RD, dst=0, addr=MAT_ADDR, length=4, imm=4.0),
            v_fill(0, 3.0, 4),
            v_wr(0, MAT_ADDR, 4),
            Instruction(Op.M_RD, dst=1, addr=MAT_ADDR, length=4, imm=4.0),
            v_fill(1, 1.0, 4),
            mv_mul(2, 0, 1, 4),
            mv_mul(3, 1, 1, 4),
            halt(),
        ],
    )


def _weights(view):
    view.dram.write(MAT_ADDR, MATRIX)


def _pages(image):
    return {number: page.copy() for number, page in image.pages.items()}


class TestCopyOnWrite:
    def _assert_image_intact(self, image, before):
        assert set(image.pages) == set(before)
        for number, page in image.pages.items():
            assert not page.flags.writeable
            assert np.array_equal(page, before[number])

    def test_scalar_write_between_loads_requantises(self):
        image = WeightImage.build(_weights)
        before = _pages(image)
        sim = FunctionalSimulator(_cow_program(), image=image)
        sim.run()
        reference = FunctionalSimulator(_cow_program())
        _weights(reference)
        reference.run()

        modified = MATRIX.copy()
        modified[0] = 3.0
        assert np.array_equal(sim.mrf[0], bfp_quantize(MATRIX, DEFAULT_FORMAT))
        assert np.array_equal(sim.mrf[1], bfp_quantize(modified, DEFAULT_FORMAT))
        for register in (0, 1):
            assert np.array_equal(sim.mrf[register], reference.mrf[register])
        for register in (2, 3):
            assert np.array_equal(sim.vector(register), reference.vector(register))
        assert not np.array_equal(sim.vector(2), sim.vector(3))
        self._assert_image_intact(image, before)

        # The next request on the same image still sees the original weights.
        again = FunctionalSimulator(_cow_program(), image=image)
        again.run()
        assert np.array_equal(again.mrf[0], sim.mrf[0])
        assert np.array_equal(again.mrf[1], sim.mrf[1])
        self._assert_image_intact(image, before)

    def test_batched_write_between_loads_requantises(self):
        image = WeightImage.build(_weights)
        before = _pages(image)
        scalar = FunctionalSimulator(_cow_program(), image=image)
        scalar.run()
        for _ in range(2):  # the second request reuses the image
            sim = BatchedFunctionalSimulator(_cow_program(), batch=3, image=image)
            sim.run()
            # m0 stays one shared matrix; the per-lane V_WR diverged m1.
            assert np.array_equal(sim.mrf[0], scalar.mrf[0])
            assert sim.mrf[1].shape == (3, 4, 4)
            for lane in range(3):
                assert np.array_equal(sim.mrf[1][lane], scalar.mrf[1])
                for register in (2, 3):
                    assert np.array_equal(
                        sim.lane_vector(lane, register), scalar.vector(register)
                    )
            self._assert_image_intact(image, before)

    def test_lane_write_to_weight_page_diverges_that_lane_only(self):
        image = WeightImage.build(_weights)
        before = _pages(image)
        program = assemble("halt\n", name="noop")

        def lane0(view):
            view.dram.write(MAT_ADDR, np.zeros(4))

        lanes = run_batched(program, [lane0, lambda view: None], image=image)
        assert np.array_equal(lanes.lane_dram_read(0, MAT_ADDR, 4), np.zeros(4))
        assert np.array_equal(lanes.lane_dram_read(1, MAT_ADDR, 4), MATRIX[0])
        self._assert_image_intact(image, before)

    def test_memo_reused_only_for_unmodified_regions(self):
        image = WeightImage.build(_weights)
        sim = FunctionalSimulator(_cow_program(), image=image)
        sim.run()
        fresh = FunctionalSimulator(_cow_program(), image=image)
        fresh.run()
        # m0 (loaded before the write) is the image's memoised array in
        # both requests; m1 (after the write) was quantised per request.
        assert sim.mrf[0] is fresh.mrf[0]
        assert sim.mrf[1] is not fresh.mrf[1]
        with pytest.raises(ValueError):
            sim.mrf[0][0, 0] = 0.0
