"""Structural RTL intermediate representation.

This subpackage is the substrate the decomposing tool (Section 2.2.1 of the
paper) operates on.  The paper decomposes accelerators "at the intermediate
RTL level" because RTL is FPGA-independent; we model RTL as a structural
module graph:

* :class:`~repro.rtl.ir.Design` — a set of named modules plus a top.
* :class:`~repro.rtl.ir.Module` — ports, nets, child instances, assigns.
* :class:`~repro.rtl.ir.Instance` — a named instantiation of another module
  (or of a primitive cell) with port-to-net connections.

A *basic module* — the unit the paper assigns to one leaf soft block — is a
module that instantiates no other (non-primitive) modules; see
:func:`~repro.rtl.hierarchy.is_basic_module`.

Supporting tools: a fluent :class:`~repro.rtl.builder.ModuleBuilder`, a
structural-Verilog parser/emitter pair for round-tripping designs to text,
a primitive cell library with resource costs, structural equivalence
checking (used to detect data parallelism), and design validation.
"""

from .ir import Design, Direction, Instance, Module, Net, Port
from .builder import DesignBuilder, ModuleBuilder
from .hierarchy import (
    basic_module_instances,
    design_resources,
    instance_resources,
    is_basic_module,
)
from .equivalence import modules_equivalent, structural_signature
from .parser import parse_design
from .emitter import emit_design, emit_module
from .validate import validate_design

__all__ = [
    "Design",
    "DesignBuilder",
    "Direction",
    "Instance",
    "Module",
    "ModuleBuilder",
    "Net",
    "Port",
    "basic_module_instances",
    "design_resources",
    "emit_design",
    "emit_module",
    "instance_resources",
    "is_basic_module",
    "modules_equivalent",
    "parse_design",
    "structural_signature",
    "validate_design",
]
