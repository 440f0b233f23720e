"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Sub-hierarchies mirror
the package layout: RTL-level errors, ISA-level errors, mapping errors raised
by the decompose/partition tools, and runtime errors raised by the system
controller.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# RTL substrate
# ---------------------------------------------------------------------------


class RTLError(ReproError):
    """Base class for errors in the structural RTL intermediate form."""


class RTLValidationError(RTLError):
    """A design violates a structural invariant (dangling net, bad port...)."""


class RTLParseError(RTLError):
    """The structural-Verilog parser rejected the input text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownModuleError(RTLError):
    """An instance references a module that is not defined in the design."""


# ---------------------------------------------------------------------------
# AS ISA substrate
# ---------------------------------------------------------------------------


class ISAError(ReproError):
    """Base class for instruction-set level errors."""


class AssemblerError(ISAError):
    """The assembler rejected an assembly source program."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EncodingError(ISAError):
    """An instruction cannot be encoded (field overflow) or decoded."""


class ExecutionError(ISAError):
    """The functional simulator hit an illegal operation at runtime."""


class ProgramValidationError(ISAError):
    """A program violates ISA constraints (bad register index, etc.)."""


# ---------------------------------------------------------------------------
# Mapping tools (decompose / partition / HS compile)
# ---------------------------------------------------------------------------


class MappingError(ReproError):
    """Base class for errors raised by the mapping tool chain."""


class DecomposeError(MappingError):
    """The decomposing tool could not process the accelerator design."""


class PartitionError(MappingError):
    """The partitioning tool could not split a soft-block tree."""


class CompileError(MappingError):
    """The HS-abstraction compiler could not map a cluster of soft blocks."""


# ---------------------------------------------------------------------------
# Runtime system
# ---------------------------------------------------------------------------


class RuntimeSystemError(ReproError):
    """Base class for runtime management errors."""


class AllocationError(RuntimeSystemError):
    """No feasible allocation exists for a deployment request."""


class DeploymentError(RuntimeSystemError):
    """A deployment request is malformed or references unknown state."""


class SimulationError(ReproError):
    """The discrete-event cluster simulator detected an inconsistency."""
