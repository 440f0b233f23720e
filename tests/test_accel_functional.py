"""Functional-simulator tests: ISA semantics, DRAM, loops, strides, and the
end-to-end GRU/LSTM correctness story (single accelerator vs numpy
reference; scale-out vs single bitwise)."""

import numpy as np
import pytest

from repro.accel.codegen import (
    OUT_BASE,
    X_BASE,
    GRUCodegen,
    LSTMCodegen,
    build_scaleout_programs,
    reference_output,
)
from repro.accel.functional import (
    DRAM,
    PAGE_WORDS,
    FunctionalSimulator,
    ScaleOutFabric,
    run_program,
    run_scaleout,
)
from repro.errors import ExecutionError
from repro.isa.assembler import assemble
from repro.isa.instructions import SYNC_ADDRESS
from repro.isa.program import Program


class TestDRAM:
    def test_write_read_roundtrip(self):
        dram = DRAM()
        dram.write(100, np.arange(8.0))
        assert np.array_equal(dram.read(100, 8), np.arange(8.0))

    def test_grows_on_demand(self):
        dram = DRAM()
        dram.write(X_BASE, np.arange(16.0))
        assert np.array_equal(dram.read(X_BASE, 16), np.arange(16.0))
        touched = [
            number
            for number in range(X_BASE // PAGE_WORDS + 2)
            if dram.page(number) is not None
        ]
        assert touched == [X_BASE // PAGE_WORDS]

    def test_roundtrip_across_page_boundary(self):
        dram = DRAM()
        values = np.arange(1.0, 11.0)
        dram.write(PAGE_WORDS - 4, values)
        assert dram.page(0) is not None and dram.page(1) is not None
        assert np.array_equal(dram.read(PAGE_WORDS - 4, 10), values)
        assert np.array_equal(dram.read(PAGE_WORDS - 6, 3), [0.0, 0.0, 1.0])

    def test_unwritten_reads_zero(self):
        assert DRAM().read(5, 3).sum() == 0.0

    def test_matrix_flattened(self):
        dram = DRAM()
        dram.write(0, np.arange(6.0).reshape(2, 3))
        assert np.array_equal(dram.read(0, 6), np.arange(6.0))


class TestBasicExecution:
    def _run(self, source, preload=None):
        return run_program(assemble(source), preload=preload)

    def test_fill_and_copy(self):
        sim = self._run("v_fill v0, 2.5, 4\nv_copy v1, v0, 4\nhalt\n")
        assert np.all(sim.vector(1) == 2.5)

    def test_arithmetic(self):
        sim = self._run(
            "v_fill v0, 3.0, 4\nv_fill v1, 2.0, 4\n"
            "vv_add v2, v0, v1, 4\nvv_sub v3, v0, v1, 4\n"
            "vv_mul v4, v0, v1, 4\nhalt\n"
        )
        assert sim.vector(2)[0] == 5.0
        assert sim.vector(3)[0] == 1.0
        assert sim.vector(4)[0] == 6.0

    def test_activations(self):
        sim = self._run(
            "v_fill v0, 0.0, 4\nv_sigm v1, v0, 4\nv_tanh v2, v0, 4\n"
            "v_fill v3, -2.0, 4\nv_relu v4, v3, 4\nhalt\n"
        )
        assert sim.vector(1)[0] == pytest.approx(0.5)
        assert sim.vector(2)[0] == 0.0
        assert np.all(sim.vector(4) == 0.0)

    def test_float16_rounding_applied(self):
        sim = self._run("v_fill v0, 0.1, 4\nhalt\n")
        assert sim.vector(0)[0] == np.float64(np.float16(0.1))

    def test_slice_and_concat(self):
        def preload(sim):
            sim.dram.write(0x10, np.arange(8.0))

        sim = self._run(
            "v_rd v0, 0x10, 8\nv_slice v1, v0, 2, 3\n"
            "v_concat v2, v1, v1, 6\nhalt\n",
            preload,
        )
        assert np.array_equal(sim.vector(1), [2.0, 3.0, 4.0])
        assert sim.vector(2).size == 6

    def test_loop_iterates(self):
        sim = self._run(
            "v_fill v0, 0.0, 2\nv_fill v1, 1.0, 2\n"
            "loop 5\nvv_add v0, v0, v1, 2\nendloop\nhalt\n"
        )
        assert sim.vector(0)[0] == 5.0

    def test_nested_loops(self):
        sim = self._run(
            "v_fill v0, 0.0, 2\nv_fill v1, 1.0, 2\n"
            "loop 3\nloop 4\nvv_add v0, v0, v1, 2\nendloop\nendloop\nhalt\n"
        )
        assert sim.vector(0)[0] == 12.0

    def test_strided_stream_read(self):
        """V_RD inside a loop advances by imm (stride) per iteration."""
        program = Program()
        from repro.isa.instructions import (
            Instruction, Op, endloop, halt, loop, v_wr,
        )

        program.extend(
            [
                loop(3),
                Instruction(Op.V_RD, dst=0, addr=0x100, length=2, imm=2.0),
                v_wr(0, 0x500, 2),
                endloop(),
                halt(),
            ]
        )

        def preload(sim):
            sim.dram.write(0x100, np.array([1.0, 2, 3, 4, 5, 6]))

        sim = run_program(program, preload=preload)
        # Last iteration read words 4 and 5.
        assert np.array_equal(sim.vector(0), [5.0, 6.0])

    def test_mv_mul_uses_bfp(self, gru_small):
        weights, _ = gru_small
        sim = FunctionalSimulator(assemble("nop\nhalt\n"))
        sim.load_matrix(0, weights.w[0])
        stored = sim.mrf[0]
        # Stored matrix is the BFP-quantised version, not the original.
        assert not np.array_equal(stored, weights.w[0])

    def test_stats_counted(self):
        sim = self._run("v_fill v0, 1.0, 4\nv_wr v0, 0x10, 4\nhalt\n")
        assert sim.stats.dram_writes == 1
        assert sim.stats.instructions == 2


class TestExecutionErrors:
    def test_uninitialised_register_read(self):
        with pytest.raises(ExecutionError, match="uninitialised"):
            run_program(assemble("v_copy v1, v0, 4\nhalt\n"))

    def test_mv_mul_unloaded_matrix(self):
        with pytest.raises(ExecutionError, match="unloaded matrix"):
            run_program(assemble("v_fill v0, 1.0, 4\nmv_mul v1, m0, v0, 4\nhalt\n"))

    def test_slice_out_of_range(self):
        with pytest.raises(ExecutionError, match="out of range"):
            run_program(
                assemble("v_fill v0, 1.0, 4\nv_slice v1, v0, 3, 4\nhalt\n")
            )

    def test_sync_without_fabric_rejected_at_validation(self):
        from repro.errors import ProgramValidationError

        with pytest.raises(ProgramValidationError, match="sync"):
            run_program(assemble("v_fill v0, 1.0, 4\nv_wr v0, SYNC, 4\nhalt\n"))

    def test_blocked_without_cosim_raises(self):
        fabric = ScaleOutFabric(2)
        program = assemble("v_rd v0, SYNC, 4\nhalt\n")
        sim = FunctionalSimulator(program, fabric=fabric, replica_index=0)
        with pytest.raises(ExecutionError, match="blocked"):
            sim.run()


class TestScaleOutFabric:
    def test_combines_in_replica_order(self):
        fabric = ScaleOutFabric(2)
        fabric.send(1, SYNC_ADDRESS, np.array([3.0, 4.0]))
        assert fabric.try_recv(0, SYNC_ADDRESS, 4) is None  # replica 0 missing
        fabric.send(0, SYNC_ADDRESS, np.array([1.0, 2.0]))
        combined = fabric.try_recv(0, SYNC_ADDRESS, 4)
        assert np.array_equal(combined, [1.0, 2.0, 3.0, 4.0])

    def test_rounds_are_independent_per_receiver(self):
        fabric = ScaleOutFabric(2)
        fabric.send(0, SYNC_ADDRESS, np.array([1.0]))
        fabric.send(1, SYNC_ADDRESS, np.array([2.0]))
        assert fabric.try_recv(0, SYNC_ADDRESS, 2) is not None
        # Replica 1 still sees round 0.
        assert np.array_equal(fabric.try_recv(1, SYNC_ADDRESS, 2), [1.0, 2.0])

    def test_length_mismatch_raises(self):
        fabric = ScaleOutFabric(2)
        fabric.send(0, SYNC_ADDRESS, np.array([1.0]))
        fabric.send(1, SYNC_ADDRESS, np.array([2.0]))
        with pytest.raises(ExecutionError, match="expected"):
            fabric.try_recv(0, SYNC_ADDRESS, 10)

    def test_bytes_counted(self):
        fabric = ScaleOutFabric(2)
        fabric.send(0, SYNC_ADDRESS, np.zeros(8))
        assert fabric.bytes_transferred == 16

    def test_send_accepts_plain_lists(self):
        """Regression: send read ``values.size`` before ``np.asarray``, so a
        plain Python list crashed with AttributeError."""
        fabric = ScaleOutFabric(2)
        fabric.send(0, SYNC_ADDRESS, [1.0, 2.0])
        fabric.send(1, SYNC_ADDRESS, [3.0, 4.0])
        assert fabric.bytes_transferred == 8
        combined = fabric.try_recv(0, SYNC_ADDRESS, 4)
        assert combined.dtype == np.float64
        assert np.array_equal(combined, [1.0, 2.0, 3.0, 4.0])


class TestEndToEndRNN:
    def test_gru_matches_reference(self, gru_small):
        weights, xs = gru_small
        gen = GRUCodegen(weights, xs.shape[0])
        sim = run_program(gen.build(), preload=lambda s: gen.preload(s, xs))
        out = sim.dram.read(OUT_BASE, weights.hidden)
        ref = reference_output(weights, xs)
        assert np.max(np.abs(out - ref)) < 0.06

    def test_lstm_matches_reference(self, lstm_small):
        weights, xs = lstm_small
        gen = LSTMCodegen(weights, xs.shape[0])
        sim = run_program(gen.build(), preload=lambda s: gen.preload(s, xs))
        out = sim.dram.read(OUT_BASE, weights.hidden)
        ref = reference_output(weights, xs)
        assert np.max(np.abs(out - ref)) < 0.06

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    @pytest.mark.parametrize("replicas", [2, 4])
    def test_scaleout_bitwise_equals_single(self, kind, replicas, gru_small, lstm_small):
        """The headline correctness property of the scale-down
        transformation: k replicas exchanging slices produce *bitwise* the
        single-accelerator result (slices are BFP-block aligned)."""
        weights, xs = gru_small if kind == "gru" else lstm_small
        h, t = weights.hidden, xs.shape[0]
        cls = GRUCodegen if kind == "gru" else LSTMCodegen

        single_gen = cls(weights, t)
        single = run_program(
            single_gen.build(), preload=lambda s: single_gen.preload(s, xs)
        )
        expected = single.dram.read(OUT_BASE, h)

        programs = build_scaleout_programs(kind, weights, t, replicas)
        gens = [
            cls(weights, t, replicas=replicas, replica_index=i)
            for i in range(replicas)
        ]
        sims, fabric = run_scaleout(
            programs, preload=lambda sim, i: gens[i].preload(sim, xs)
        )
        slice_rows = h // replicas
        combined = np.concatenate(
            [
                sim.dram.read(OUT_BASE + i * slice_rows, slice_rows)
                for i, sim in enumerate(sims)
            ]
        )
        assert np.array_equal(combined, expected)
        assert fabric.bytes_transferred > 0

    def test_scaleout_send_recv_counts(self, gru_small):
        weights, xs = gru_small
        t = xs.shape[0]
        programs = build_scaleout_programs("gru", weights, t, 2)
        gens = [
            GRUCodegen(weights, t, replicas=2, replica_index=i)
            for i in range(2)
        ]
        sims, _ = run_scaleout(
            programs, preload=lambda sim, i: gens[i].preload(sim, xs)
        )
        for sim in sims:
            assert sim.stats.sends == t + 1  # init + one per step
            assert sim.stats.recvs == t
