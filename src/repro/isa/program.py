"""Program container and static validation.

A :class:`Program` is a flat list of instructions with structured loops
(``LOOP n`` ... ``ENDLOOP``).  Validation enforces the constraints the
accelerator's decoder would: register indices within the configured file
sizes, vector lengths within the native maximum, balanced loops, and no
ordinary DRAM traffic in the synchronisation address window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ProgramValidationError
from .instructions import Instruction, Op, SYNC_ADDRESS, VECTOR_WRITERS


@dataclass(frozen=True)
class RegisterFootprint:
    """Architectural registers a program actually touches.

    The demand side of the state-size model
    (:func:`repro.migration.engine.architectural_state_bytes`): a move only
    needs to carry the registers the program can have written, not the full
    register files.
    ``matrix_words`` is the total word count of every distinct matrix
    register load (rows x cols per ``M_RD`` destination).
    """

    vector_registers: int
    matrix_registers: int
    max_vector_length: int
    matrix_words: int


@dataclass
class ISALimits:
    """Architectural limits a program is validated against.

    Defaults match the generated accelerator's architecture description
    (:class:`repro.accel.config.AcceleratorConfig` mirrors these).
    """

    vector_registers: int = 64
    matrix_registers: int = 64
    max_vector_length: int = 4096


@dataclass
class Program:
    """An ISA program: instructions plus optional name/metadata."""

    instructions: list = field(default_factory=list)
    name: str = "program"
    metadata: dict = field(default_factory=dict)

    # -- construction ----------------------------------------------------------

    def append(self, instruction: Instruction) -> "Program":
        self.instructions.append(instruction)
        return self

    def extend(self, instructions) -> "Program":
        self.instructions.extend(instructions)
        return self

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, index):
        return self.instructions[index]

    # -- queries -------------------------------------------------------------------

    def register_footprint(self) -> RegisterFootprint:
        """Registers and vector lengths this program can touch (static).

        Walks every instruction once: vector destinations, matrix loads
        (``M_RD`` carries rows in ``length`` and cols in ``imm``), vector
        sources and operand lengths.  Loop trip counts do not matter — a
        register written twice still occupies one architectural slot.
        """
        vector_regs: set[int] = set()
        matrix_words: dict[int, int] = {}
        max_length = 0
        for inst in self.instructions:
            if inst.op in (Op.LOOP, Op.ENDLOOP, Op.NOP, Op.HALT):
                continue
            max_length = max(max_length, inst.length)
            if inst.op is Op.M_RD:
                matrix_words[inst.dst] = max(
                    matrix_words.get(inst.dst, 0), inst.length * int(inst.imm)
                )
                continue
            if inst.op in VECTOR_WRITERS:
                vector_regs.add(inst.dst)
            for reg in inst.reads():
                vector_regs.add(reg)
        return RegisterFootprint(
            vector_registers=len(vector_regs),
            matrix_registers=len(matrix_words),
            max_vector_length=max_length,
            matrix_words=sum(matrix_words.values()),
        )

    def dynamic_instruction_count(self) -> int:
        """Instruction issues including loop trip counts."""
        count = 0
        multiplier = 1
        stack = []
        for inst in self.instructions:
            if inst.op is Op.LOOP:
                stack.append(multiplier)
                multiplier *= max(1, int(inst.imm))
                continue
            if inst.op is Op.ENDLOOP:
                if not stack:
                    raise ProgramValidationError(
                        f"{self.name}: ENDLOOP without LOOP"
                    )
                multiplier = stack.pop()
                continue
            count += multiplier
        if stack:
            raise ProgramValidationError(f"{self.name}: unterminated LOOP")
        return count

    # -- validation ------------------------------------------------------------------

    def validate(self, limits: ISALimits | None = None, allow_sync: bool = True) -> None:
        """Raise :class:`ProgramValidationError` on any static violation."""
        limits = limits or ISALimits()
        depth = 0
        for index, inst in enumerate(self.instructions):
            where = f"{self.name}[{index}] {inst.op.value}"
            if inst.op is Op.LOOP:
                depth += 1
                if int(inst.imm) < 1:
                    raise ProgramValidationError(f"{where}: loop count < 1")
                continue
            if inst.op is Op.ENDLOOP:
                depth -= 1
                if depth < 0:
                    raise ProgramValidationError(f"{where}: unmatched endloop")
                continue
            if inst.op in (Op.NOP, Op.HALT):
                continue
            self._validate_operands(inst, limits, allow_sync, where)
        if depth != 0:
            raise ProgramValidationError(f"{self.name}: {depth} unterminated loop(s)")

    @staticmethod
    def _validate_operands(
        inst: Instruction, limits: ISALimits, allow_sync: bool, where: str
    ) -> None:
        if inst.op in VECTOR_WRITERS and inst.op is not Op.M_RD:
            if not 0 <= inst.dst < limits.vector_registers:
                raise ProgramValidationError(
                    f"{where}: vector dst v{inst.dst} out of range"
                )
        if inst.op is Op.M_RD and not 0 <= inst.dst < limits.matrix_registers:
            raise ProgramValidationError(f"{where}: matrix dst m{inst.dst} out of range")
        if inst.op is Op.MV_MUL and not 0 <= inst.ma < limits.matrix_registers:
            raise ProgramValidationError(f"{where}: matrix src m{inst.ma} out of range")
        for reg in inst.reads():
            if not 0 <= reg < limits.vector_registers:
                raise ProgramValidationError(f"{where}: vector src v{reg} out of range")
        if inst.length < 0 or inst.length > limits.max_vector_length:
            raise ProgramValidationError(
                f"{where}: length {inst.length} exceeds native maximum "
                f"{limits.max_vector_length}"
            )
        if inst.op in (Op.V_RD, Op.V_WR, Op.M_RD):
            if inst.addr < 0:
                raise ProgramValidationError(f"{where}: negative DRAM address")
            if inst.is_sync and not allow_sync:
                raise ProgramValidationError(
                    f"{where}: sync-window address without scale-out deployment"
                )
            if not inst.is_sync and inst.addr >= SYNC_ADDRESS:
                raise ProgramValidationError(
                    f"{where}: ordinary access inside sync window 0x{inst.addr:x}"
                )

    # -- display ---------------------------------------------------------------------

    def render(self) -> str:
        """Assembly text (round-trips through the assembler)."""
        lines = [f"; program {self.name}"]
        indent = 0
        for inst in self.instructions:
            if inst.op is Op.ENDLOOP:
                indent -= 1
            prefix = "  " * max(0, indent)
            suffix = f"  ; {inst.tag}" if inst.tag else ""
            lines.append(prefix + inst.render() + suffix)
            if inst.op is Op.LOOP:
                indent += 1
        return "\n".join(lines) + "\n"
