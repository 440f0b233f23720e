"""Program container and validation tests."""

import pytest

from repro.errors import ProgramValidationError
from repro.isa.instructions import (
    SYNC_ADDRESS,
    Instruction,
    Op,
    endloop,
    halt,
    loop,
    mv_mul,
    v_fill,
    v_rd,
    vv_add,
)
from repro.isa.program import ISALimits, Program


def _simple_program():
    program = Program(name="p")
    program.extend(
        [
            v_fill(0, 1.0, 8),
            loop(3),
            vv_add(1, 0, 0, 8),
            endloop(),
            halt(),
        ]
    )
    return program


class TestContainer:
    def test_len_iter_getitem(self):
        program = _simple_program()
        assert len(program) == 5
        assert program[0].op is Op.V_FILL
        assert [i.op for i in program][-1] is Op.HALT

    def test_dynamic_instruction_count_weights_loops(self):
        # fill + 3x add + halt = 5 dynamic issues
        assert _simple_program().dynamic_instruction_count() == 5

    def test_nested_loops_multiply(self):
        program = Program()
        program.extend(
            [loop(2), loop(3), vv_add(0, 0, 0, 1), endloop(), endloop()]
        )
        assert program.dynamic_instruction_count() == 6


class TestValidation:
    def test_valid_program_passes(self):
        _simple_program().validate()

    def test_bad_register_rejected(self):
        program = Program()
        program.append(v_fill(200, 0.0, 8))
        with pytest.raises(ProgramValidationError, match="out of range"):
            program.validate(ISALimits(vector_registers=64))

    def test_matrix_register_range(self):
        program = Program()
        program.append(mv_mul(0, 99, 0, 8))
        with pytest.raises(ProgramValidationError, match="m99"):
            program.validate(ISALimits(matrix_registers=64))

    def test_overlong_vector_rejected(self):
        program = Program()
        program.append(v_fill(0, 0.0, 5000))
        with pytest.raises(ProgramValidationError, match="native maximum"):
            program.validate(ISALimits(max_vector_length=4096))

    def test_unbalanced_loop_rejected(self):
        program = Program()
        program.append(loop(2))
        with pytest.raises(ProgramValidationError, match="unterminated"):
            program.validate()

    def test_stray_endloop_rejected(self):
        program = Program()
        program.append(endloop())
        with pytest.raises(ProgramValidationError, match="endloop"):
            program.validate()

    def test_zero_trip_loop_rejected(self):
        program = Program()
        program.extend([loop(0), endloop()])
        with pytest.raises(ProgramValidationError, match="loop count"):
            program.validate()

    def test_negative_address_rejected(self):
        program = Program()
        program.append(Instruction(Op.V_RD, dst=0, addr=-5, length=4))
        with pytest.raises(ProgramValidationError, match="negative"):
            program.validate()

    def test_sync_requires_permission(self):
        program = Program()
        program.append(v_rd(0, SYNC_ADDRESS, 8))
        program.validate(allow_sync=True)
        with pytest.raises(ProgramValidationError, match="sync"):
            program.validate(allow_sync=False)

    def test_near_sync_window_ordinary_access_rejected(self):
        program = Program()
        program.append(
            Instruction(Op.M_RD, dst=0, addr=SYNC_ADDRESS + 4, length=2, imm=2.0)
        )
        with pytest.raises(ProgramValidationError, match="sync window"):
            program.validate()


class TestRender:
    def test_render_roundtrip_through_assembler(self):
        from repro.isa.assembler import assemble

        program = _simple_program()
        text = program.render()
        again = assemble(text)
        assert [i.op for i in again] == [i.op for i in program]

    def test_render_indents_loop_bodies(self):
        text = _simple_program().render()
        assert "\n  vv_add" in text
