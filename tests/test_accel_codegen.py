"""Codegen tests: program shape, addressing, slicing and tags."""

import collections

import numpy as np
import pytest

from repro.accel.codegen import (
    MAT_BASE,
    OUT_BASE,
    X_BASE,
    GRUCodegen,
    LSTMCodegen,
    RNNWeights,
    make_codegen,
)
from repro.errors import ISAError
from repro.isa.instructions import Op


def _meta_weights(kind="gru", hidden=64, input_dim=None):
    gates = 3 if kind == "gru" else 4
    return RNNWeights(
        kind=kind,
        hidden=hidden,
        input_dim=input_dim or hidden,
        w=[None] * gates,
        u=[None] * gates,
        b=[None] * gates,
    )


class TestRNNWeights:
    def test_random_shapes(self):
        weights = RNNWeights.random("lstm", 16, 8, seed=0)
        assert weights.gates == 4
        assert weights.w[0].shape == (16, 8)
        assert weights.u[0].shape == (16, 16)

    def test_unknown_kind(self):
        with pytest.raises(ISAError):
            RNNWeights.random("rnn", 16)

    def test_parameter_count(self):
        weights = _meta_weights("gru", hidden=64)
        assert weights.parameter_count == 3 * (64 * 64 + 64 * 64)

    def test_deterministic_by_seed(self):
        a = RNNWeights.random("gru", 8, seed=5)
        b = RNNWeights.random("gru", 8, seed=5)
        assert np.array_equal(a.w[0], b.w[0])


class TestProgramShape:
    def test_gru_op_census(self):
        program = GRUCodegen(_meta_weights(), timesteps=7).build()
        ops = collections.Counter(inst.op for inst in program)
        assert ops[Op.M_RD] == 6  # 3 gates x (W, U)
        assert ops[Op.MV_MUL] == 6
        assert ops[Op.LOOP] == 1
        assert ops[Op.HALT] == 1

    def test_lstm_op_census(self):
        program = LSTMCodegen(_meta_weights("lstm"), timesteps=7).build()
        ops = collections.Counter(inst.op for inst in program)
        assert ops[Op.M_RD] == 8
        assert ops[Op.MV_MUL] == 8

    def test_metadata(self):
        program = GRUCodegen(_meta_weights(), timesteps=9).build()
        assert program.metadata["timesteps"] == 9
        assert program.metadata["hidden"] == 64
        assert program.metadata["replicas"] == 1

    def test_x_load_strided(self):
        program = GRUCodegen(_meta_weights(), timesteps=3).build()
        load = next(i for i in program.instructions if i.tag == "load:x")
        assert load.addr == X_BASE
        assert load.imm == 64.0  # stride = input_dim

    def test_mv_mul_cols_in_imm(self):
        program = GRUCodegen(
            _meta_weights(hidden=64, input_dim=32), timesteps=2
        ).build()
        w_mv = next(i for i in program.instructions if i.tag == "compute:x")
        u_mv = next(i for i in program.instructions if i.tag == "consume:h")
        assert int(w_mv.imm) == 32
        assert int(u_mv.imm) == 64

    def test_tags_present(self):
        program = GRUCodegen(_meta_weights(), timesteps=2).build()
        tags = {inst.tag for inst in program.instructions}
        assert {"produce:h", "consume:h", "compute:x", "broadcast:h"} <= tags

    def test_output_written_to_slice_offset(self):
        program = GRUCodegen(
            _meta_weights(), timesteps=2, replicas=2, replica_index=1
        ).build()
        store = next(i for i in program.instructions if i.tag == "store:h")
        assert store.addr == OUT_BASE + 32

    def test_rejects_indivisible_hidden(self):
        with pytest.raises(ISAError, match="divisible"):
            GRUCodegen(_meta_weights(hidden=30), timesteps=1, replicas=4)

    def test_rejects_zero_timesteps(self):
        with pytest.raises(ISAError):
            GRUCodegen(_meta_weights(), timesteps=0)

    def test_wrong_gate_count_rejected(self):
        with pytest.raises(ISAError, match="gates"):
            GRUCodegen(_meta_weights("lstm"), timesteps=1)


class TestSlicing:
    def test_replica_matrix_addresses_offset_by_rows(self):
        gen0 = GRUCodegen(_meta_weights(), 1, replicas=2, replica_index=0)
        gen1 = GRUCodegen(_meta_weights(), 1, replicas=2, replica_index=1)
        # U matrix of gate 0: replica 1 starts 32 rows x 64 cols later.
        assert (
            gen1._matrix_addr("u", 0) - gen0._matrix_addr("u", 0) == 32 * 64
        )

    def test_w_then_u_layout(self):
        gen = GRUCodegen(_meta_weights(hidden=64, input_dim=32), 1)
        assert gen._matrix_addr("w", 0) == MAT_BASE
        assert gen._matrix_addr("u", 0) == MAT_BASE + 64 * 32

    def test_bias_addresses_sliced(self):
        gen1 = GRUCodegen(_meta_weights(), 1, replicas=2, replica_index=1)
        gen0 = GRUCodegen(_meta_weights(), 1, replicas=2, replica_index=0)
        assert gen1._bias_addr(0) - gen0._bias_addr(0) == 32

    def test_replica_program_lengths_sliced(self):
        program = GRUCodegen(
            _meta_weights(), 2, replicas=2, replica_index=0
        ).build()
        mv = next(i for i in program.instructions if i.tag == "consume:h")
        assert mv.length == 32  # output rows are sliced
        assert int(mv.imm) == 64  # but consume the full hidden vector

    def test_single_replica_broadcasts(self):
        program = GRUCodegen(_meta_weights(), 2).build()
        assert any(i.tag == "broadcast:h" for i in program.instructions)

    def test_multi_replica_template_has_no_broadcast(self):
        program = GRUCodegen(
            _meta_weights(), 2, replicas=2, replica_index=0
        ).build()
        assert not any(i.tag == "broadcast:h" for i in program.instructions)


class TestFactory:
    def test_make_codegen_dispatch(self):
        weights = _meta_weights("lstm")
        gen = make_codegen("LSTM", weights, 2)
        assert isinstance(gen, LSTMCodegen)

    def test_make_codegen_unknown(self):
        with pytest.raises(ISAError):
            make_codegen("transformer", _meta_weights(), 1)


class TestPreloadValidation:
    def test_wrong_xs_shape_rejected(self, gru_small):
        from repro.accel.functional import FunctionalSimulator
        from repro.isa.assembler import assemble

        weights, _ = gru_small
        gen = GRUCodegen(weights, timesteps=4)
        sim = FunctionalSimulator(assemble("nop\nhalt\n"))
        with pytest.raises(ISAError, match="shape"):
            gen.preload(sim, np.zeros((3, weights.hidden)))
