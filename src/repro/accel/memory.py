"""The parameterised memory module (paper Section 3).

The accelerator design includes "a parameterized memory module so that it
can leverage the unique hardware resources (e.g., URAM) when being deployed
onto heterogeneous FPGAs.  The parameter of this module will be configured
when mapping it onto the HS abstraction of a specific type of FPGA."

:func:`build_weight_memory` produces the RTL module for one tile's weight
store under a given :class:`~repro.accel.config.MemoryPlan`.  The module is
*basic* (instantiates only memory primitives) and declares its aggregated
resource cost so estimation stays exact without instantiating hundreds of
identical macros per tile.
"""

from __future__ import annotations

from ..resources import ResourceVector
from ..rtl.builder import ModuleBuilder
from ..rtl.ir import Module
from .config import MemoryPlan, BRAM36_BITS, URAM288_BITS, WORD_BITS


def memory_resources(plan: MemoryPlan) -> ResourceVector:
    """Physical resource cost of one tile's weight memory.

    Includes a small LUT/FF cost for the unified read interface mux, which
    grows with the number of banks.
    """
    banks = plan.bram_blocks_per_tile + plan.uram_blocks_per_tile
    return ResourceVector(
        luts=24.0 * banks,
        ffs=16.0 * banks,
        bram_bits=float(plan.bram_blocks_per_tile * BRAM36_BITS),
        uram_bits=float(plan.uram_blocks_per_tile * URAM288_BITS),
    )


def build_weight_memory(plan: MemoryPlan, name: str = "weight_mem") -> Module:
    """Build the weight-memory module for one tile.

    The module exposes the unified 512-word, 72-bit interface of Section 3
    regardless of the backing primitive mix.  Representative primitive
    instances are chained so the structure is visible to the tools; the
    declared ``resources`` attribute carries the exact aggregate cost.
    """
    builder = ModuleBuilder(name)
    builder.inputs(
        "clk",
        ("we", 1),
        ("addr_w", 9),
        ("addr_r", 9),
        ("din", WORD_BITS),
    )
    builder.outputs(("dout", WORD_BITS))
    builder.attribute("resources", memory_resources(plan))
    builder.attribute(
        "memory_plan",
        f"bram={plan.bram_blocks_per_tile},uram={plan.uram_blocks_per_tile}",
    )

    # Representative bank chain: one exemplar of each primitive kind used,
    # wired through the output mux path so intra-block analysis sees a
    # single connected component (not spurious data-parallel lanes).
    previous_out = None
    bank_index = 0
    if plan.bram_blocks_per_tile > 0:
        builder.net("bram_out", WORD_BITS)
        builder.instance(
            f"bank{bank_index}",
            "BRAM36",
            clk="clk",
            we="we",
            addr_w="addr_w",
            addr_r="addr_r",
            din="din",
            dout="bram_out",
        )
        previous_out = "bram_out"
        bank_index += 1
    if plan.uram_blocks_per_tile > 0:
        builder.net("uram_addr_w", 12)
        builder.net("uram_addr_r", 12)
        builder.net("uram_out", WORD_BITS)
        builder.instance(
            f"bank{bank_index}",
            "URAM288",
            clk="clk",
            we="we",
            addr_w="uram_addr_w",
            addr_r="uram_addr_r",
            din=previous_out or "din",
            dout="uram_out",
        )
        previous_out = "uram_out"
    if previous_out is None:
        # Degenerate plan with no banks: pass-through register file.
        builder.net("reg_q", WORD_BITS)
        previous_out = "reg_q"
    builder.assign("dout", previous_out)
    return builder.build()
