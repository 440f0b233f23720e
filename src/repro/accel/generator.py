"""RTL generator for the BrainWave-like accelerator (paper Fig. 9).

Organisation (one instance)::

    top
    |- instr_buffer   \\
    |- instr_decoder   |  control path (kept in one soft block)
    |- dram_iface      |
    |- fp16_bfp_conv   |  moved to control per Section 3
    |- vector_regfile /
    `- lane{0..T-1}       data path: T identical SIMD compute lanes
       |- mvm_tile        tile engine: weight memory + BFP MAC array
       |- lane_acc        accumulator (BFP -> wide fixed point)
       `- mfu_slice       float16 multi-function unit for this row slice

Each lane owns a row-slice of every weight matrix, so point-wise MFU
operations are row-local and the lanes are genuinely data-parallel: the
decomposing tool extracts a DATA root over per-lane PIPELINEs, which is the
property (Section 3) that makes the scale-down optimisation applicable and
lets the partitioner keep SIMD pipelines intact.

Resource calibration: the per-lane costs below put the 21-tile instance at
~610k LUTs / ~660k FFs / ~7.5k DSPs — Table 2's BW-V37 — and scale linearly
with tiles; see the constants and `repro/accel/config.py` notes.
"""

from __future__ import annotations

from ..resources import ResourceVector
from ..rtl.builder import DesignBuilder
from ..rtl.ir import Design
from .config import AcceleratorConfig
from .memory import build_weight_memory

#: Module names forming the control path; passed to the decomposer exactly
#: as the paper's system designer would mark them.
CONTROL_MODULES = (
    "instr_buffer",
    "instr_decoder",
    "dram_iface",
    "fp16_bfp_conv",
    "vector_regfile",
)

# -- calibrated per-component costs (see module docstring) --------------------

#: MAC array: per-MAC cost in the BFP datapath.  2048 MACs/tile at these
#: rates yields ~26.6k LUTs, ~28.7k FFs and ~344 DSPs per tile.
_MAC_LUTS = 13.0
_MAC_FFS = 14.0
_MAC_DSPS = 0.168

_ACC_COST = ResourceVector(luts=600.0, ffs=900.0, dsps=2.0)
_MFU_LANE_COST = ResourceVector(luts=420.0, ffs=520.0, dsps=2.0)
_DECODER_COST = ResourceVector(luts=3200.0, ffs=2600.0)
_DRAM_IFACE_COST = ResourceVector(luts=5200.0, ffs=6800.0, bram_bits=18.0 * 1024 * 16)
_CONV_COST = ResourceVector(luts=2400.0, ffs=2100.0, dsps=8.0)
_VRF_COST_PER_KB = ResourceVector(luts=40.0, ffs=24.0, bram_bits=8.0 * 1024)


def _mac_array_resources(config: AcceleratorConfig) -> ResourceVector:
    macs = config.native_rows * config.native_lanes
    return ResourceVector(
        luts=_MAC_LUTS * macs, ffs=_MAC_FFS * macs, dsps=_MAC_DSPS * macs
    )


def _vrf_resources(config: AcceleratorConfig) -> ResourceVector:
    # Vector register file: V registers x max vector length x 16 bits.
    kilobytes = (
        config.vector_registers * config.max_vector_length * 16 / 8.0 / 1024.0
    )
    return _VRF_COST_PER_KB * kilobytes


def _instr_buffer_resources(config: AcceleratorConfig) -> ResourceVector:
    return ResourceVector(
        luts=900.0,
        ffs=1100.0,
        bram_bits=float(config.instruction_buffer_bytes * 8),
    )


def generate_accelerator(config: AcceleratorConfig) -> Design:
    """Build the structural RTL design for one accelerator instance."""
    db = DesignBuilder(config.name)

    _build_control_modules(db, config)
    _build_lane_modules(db, config)
    _build_top(db, config)
    db.top("top")
    return db.build()


# ---------------------------------------------------------------------------
# control path
# ---------------------------------------------------------------------------


def _build_control_modules(db: DesignBuilder, config: AcceleratorConfig) -> None:
    m = db.module("instr_buffer")
    m.inputs("clk", ("wr_instr", 128), ("wr_en", 1))
    m.outputs(("rd_instr", 128))
    m.attribute("resources", _instr_buffer_resources(config))
    m.net("fifo_out", 72)
    m.instance("store", "FIFO", clk="clk")
    m.build()

    m = db.module("instr_decoder")
    m.inputs("clk", ("instr", 128))
    m.outputs(("ctl", 64), ("dram_cmd", 64))
    m.attribute("resources", _DECODER_COST)
    m.net("stage_q", 1)
    m.instance("pipe0", "DFF", clk="clk")
    m.build()

    m = db.module("dram_iface")
    m.inputs("clk", ("cmd", 64), ("wr_data", 512))
    m.outputs(("rd_data", 512))
    m.attribute("resources", _DRAM_IFACE_COST)
    m.instance("rdq", "FIFO", clk="clk")
    m.build()

    m = db.module("fp16_bfp_conv")
    m.inputs("clk", ("vec_fp16", 256))
    m.outputs(("vec_bfp", 128))
    m.attribute("resources", _CONV_COST)
    m.instance("norm", "DSP_MAC", clk="clk")
    m.build()

    m = db.module("vector_regfile")
    m.inputs("clk", ("ctl", 64), ("wr_vec", 256), ("lane_in", 16 * config.tiles))
    m.outputs(("rd_vec", 256))
    m.attribute("resources", _vrf_resources(config))
    m.instance("bank", "BRAM36", clk="clk")
    m.build()


# ---------------------------------------------------------------------------
# data path: one lane = tile engine -> accumulator -> MFU slice
# ---------------------------------------------------------------------------


def _build_lane_modules(db: DesignBuilder, config: AcceleratorConfig) -> None:
    db.add(build_weight_memory(config.memory, name="weight_mem"))

    m = db.module("mac_array")
    m.inputs("clk", ("vec_bfp", 128), ("weights", 72))
    m.outputs(("partial", 48))
    m.attribute("resources", _mac_array_resources(config))
    m.net("chain0", 24)
    m.instance("mac0", "BFP_MAC", clk="clk", acc_out="chain0")
    m.instance("mac1", "BFP_MAC", clk="clk", acc_in="chain0")
    m.build()

    # The tile engine wraps weight memory + MAC array (non-basic; its two
    # basic children decompose into a pipeline inside the lane).
    m = db.module("mvm_tile")
    m.inputs("clk", ("vec_bfp", 128), ("wmem_we", 1), ("wmem_din", 72))
    m.outputs(("partial", 48))
    m.net("wdata", 72)
    m.instance(
        "wmem", "weight_mem", clk="clk", we="wmem_we", din="wmem_din", dout="wdata"
    )
    m.instance("macs", "mac_array", clk="clk", vec_bfp="vec_bfp", weights="wdata",
               partial="partial")
    m.build()

    m = db.module("lane_acc")
    m.inputs("clk", ("partial", 48))
    m.outputs(("acc_fp16", 64))
    m.attribute("resources", _ACC_COST)
    m.net("sum0", 32)
    m.instance("add0", "INT_ADD", y="sum0")
    m.instance("reg0", "DFF", clk="clk")
    m.build()

    mfu_cost = _MFU_LANE_COST * config.mfu_lanes_per_tile
    m = db.module("mfu_slice")
    m.inputs("clk", ("acc_fp16", 64), ("ctl", 64))
    m.outputs(("result", 16))
    m.attribute("resources", mfu_cost)
    m.net("mul_out", 16)
    m.instance("mul0", "FP16_MUL", clk="clk", y="mul_out")
    m.instance("add0", "FP16_ADD", clk="clk", a="mul_out")
    m.build()

    m = db.module("compute_lane")
    m.inputs(
        "clk",
        ("vec_bfp", 128),
        ("ctl", 64),
        ("wmem_we", 1),
        ("wmem_din", 72),
    )
    m.outputs(("result", 16))
    m.nets(("partial", 48), ("acc_out", 64))
    m.instance(
        "tile",
        "mvm_tile",
        clk="clk",
        vec_bfp="vec_bfp",
        wmem_we="wmem_we",
        wmem_din="wmem_din",
        partial="partial",
    )
    m.instance("acc", "lane_acc", clk="clk", partial="partial", acc_fp16="acc_out")
    m.instance("mfu", "mfu_slice", clk="clk", acc_fp16="acc_out", result="result")
    m.build()


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def _build_top(db: DesignBuilder, config: AcceleratorConfig) -> None:
    m = db.module("top", attributes={"accelerator": config.name})
    m.inputs(
        "clk",
        ("host_instr", 128),
        ("host_instr_en", 1),
        ("dram_wr", 512),
    )
    m.outputs(("dram_rd", 512), ("status", 16))
    m.nets(
        ("instr", 128),
        ("ctl", 64),
        ("dram_cmd", 64),
        ("vec_fp16", 256),
        ("vec_bfp", 128),
        ("lane_results", 16 * config.tiles),
        ("wmem_we", 1),
        ("wmem_din", 72),
    )
    m.instance(
        "ibuf",
        "instr_buffer",
        clk="clk",
        wr_instr="host_instr",
        wr_en="host_instr_en",
        rd_instr="instr",
    )
    m.instance("dec", "instr_decoder", clk="clk", instr="instr", ctl="ctl",
               dram_cmd="dram_cmd")
    m.instance("dram", "dram_iface", clk="clk", cmd="dram_cmd", wr_data="dram_wr",
               rd_data="dram_rd")
    m.instance("conv", "fp16_bfp_conv", clk="clk", vec_fp16="vec_fp16",
               vec_bfp="vec_bfp")
    m.instance(
        "vrf",
        "vector_regfile",
        clk="clk",
        ctl="ctl",
        wr_vec="vec_fp16",
        lane_in="lane_results",
        rd_vec="vec_fp16",
    )
    for index in range(config.tiles):
        lane_out = f"lane_out{index}"
        m.net(lane_out, 16)
        m.instance(
            f"lane{index}",
            "compute_lane",
            clk="clk",
            vec_bfp="vec_bfp",
            ctl="ctl",
            wmem_we="wmem_we",
            wmem_din="wmem_din",
            result=lane_out,
        )
    m.build()
