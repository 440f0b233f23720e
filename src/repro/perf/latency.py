"""Instance sizing and single-FPGA task latency.

"Multiple accelerator instances with different number of MVM Tiles (the
SIMD units) are compiled" to match varying task demands (Section 4.2).  We
size instances storage-first: tile engines are added until the model's
weights are resident (each tile brings its own weight memory), clamped to
the device-matched maximum — the same pressure that makes large models
spill to multiple FPGAs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..accel.config import AcceleratorConfig, BW_K115, BW_V37
from ..accel.timing import CycleModel, LatencyReport, VirtualizationContext
from ..errors import ReproError
from ..isa.program import Program

#: Base (device-matched, maximal) instances per device type.
BASE_INSTANCES = {"XCVU37P": BW_V37, "XCKU115": BW_K115}

#: Smallest instance worth building (control overhead dominates below).
MIN_TILES = 2

#: Weight reload path: fixed setup plus PCIe/DRAM streaming (weights ship
#: as float16 and are BFP-quantised on chip).
WEIGHT_LOAD_FIXED_S = 0.002
WEIGHT_LOAD_BYTES_PER_S = 12e9
WEIGHT_BYTES_PER_PARAM = 2.0


def weight_load_seconds(parameter_count: int) -> float:
    """Time to swap one model's weights onto an accelerator."""
    return (
        WEIGHT_LOAD_FIXED_S
        + parameter_count * WEIGHT_BYTES_PER_PARAM / WEIGHT_LOAD_BYTES_PER_S
    )


@dataclass(frozen=True)
class InstanceChoice:
    """A sized accelerator instance for one model on one device type."""

    config: AcceleratorConfig
    device_type: str
    resident_fraction: float


def demand_sized_instance(
    weight_bits_needed: int,
    device_type: str = "XCVU37P",
    replicas: int = 1,
) -> InstanceChoice:
    """Size an instance for a model of ``weight_bits_needed`` total weights.

    ``replicas`` divides the weights (scale-down deployments slice the
    matrices row-wise).  Tiles are clamped to the device-matched maximum;
    when even the maximum cannot hold the slice, the instance is returned
    at maximum size with ``resident_fraction < 1`` (the timing model's fit
    rule decides deployability).
    """
    try:
        base = BASE_INSTANCES[device_type]
    except KeyError:
        raise ReproError(f"unknown device type {device_type!r}") from None
    per_replica_bits = weight_bits_needed / max(1, replicas)
    per_tile_bits = base.memory.usable_bits_per_tile
    wanted = math.ceil(per_replica_bits / per_tile_bits)
    tiles = max(MIN_TILES, min(base.tiles, wanted))
    # Small instances keep a healthy MFU width: the vector units are cheap
    # (the parameterised design scales them independently of tile count),
    # and without this the elementwise gate math dominates small models.
    mfu_lanes = max(base.mfu_lanes_per_tile, math.ceil(32 / tiles))
    config = replace(
        base.with_tiles(tiles, name=f"{base.name}-t{tiles}"),
        mfu_lanes_per_tile=mfu_lanes,
    )
    resident = min(1.0, tiles * per_tile_bits / per_replica_bits)
    return InstanceChoice(
        config=config, device_type=device_type, resident_fraction=resident
    )


def single_fpga_latency(
    program: Program,
    instance: AcceleratorConfig,
    virtualization: VirtualizationContext | None = None,
    frequency_hz: float | None = None,
) -> LatencyReport:
    """Task latency on one FPGA (optionally through the HS abstraction).

    ``frequency_hz`` overrides the instance clock with the achieved clock of
    the compiled image (device- and floorplan-dependent).
    """
    config = instance
    if frequency_hz is not None:
        config = instance.with_frequency(frequency_hz)
    model = CycleModel(config)
    return model.latency(program, virtualization=virtualization)
