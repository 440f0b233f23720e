"""The application-specific ISA substrate.

A BrainWave-like soft-NPU instruction set (paper Section 3): matrix-vector
multiplication in block-floating-point, float16-style vector operations on
multi-function units, DRAM vector load/store, and loop control.  The ISA is
what gives the framework its *software programming flow*: applications are
ISA programs, not Verilog.

Modules:

* :mod:`~repro.isa.instructions` — opcodes and the instruction record.
* :mod:`~repro.isa.program`      — program container and validation.
* :mod:`~repro.isa.assembler`    — two-pass text assembler.
* :mod:`~repro.isa.encoder`      — fixed-width binary encode/decode.
* :mod:`~repro.isa.bfp`          — block-floating-point arithmetic.
* :mod:`~repro.isa.dependencies` — register/memory dependence analysis.
* :mod:`~repro.isa.comm_insertion` — the custom tool that inserts inter-FPGA
  communication instructions for scale-out (Section 2.3).
* :mod:`~repro.isa.reorder`      — the custom tool that reorders instructions
  under dependence constraints to overlap communication and computation.
"""

from .instructions import Instruction, Op, SYNC_ADDRESS
from .program import Program
from .assembler import assemble, disassemble
from .encoder import decode_program, encode_program
from .bfp import BFPFormat, bfp_quantize
from .dependencies import DependenceGraph, build_dependence_graph
from .comm_insertion import insert_scaleout_communication
from .progcache import PROGRAM_CACHE, ProgramCache, program_cache_key
from .reorder import reorder_for_overlap

__all__ = [
    "BFPFormat",
    "DependenceGraph",
    "Instruction",
    "Op",
    "PROGRAM_CACHE",
    "Program",
    "ProgramCache",
    "SYNC_ADDRESS",
    "assemble",
    "bfp_quantize",
    "build_dependence_graph",
    "decode_program",
    "disassemble",
    "encode_program",
    "insert_scaleout_communication",
    "program_cache_key",
    "reorder_for_overlap",
]
