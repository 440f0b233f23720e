"""Floorplanning-quality frequency model.

Section 4.2 / Fig. 10: both the baseline accelerators and the ViTAL virtual
blocks are manually floorplanned with Vivado so the comparison is fair —
without floorplanning, congested placements lose clock frequency.

We model the phenomenon rather than the P&R algorithm: achieved frequency is
the device's calibrated clock when floorplanned, degraded by congestion (a
function of utilisation) when not.  This feeds Table 2/3's "Freq." column
and the floorplanning ablation benchmark.
"""

from __future__ import annotations

import enum

from ..resources import ResourceVector
from .device import FPGAModel


class FloorplanQuality(enum.Enum):
    """How placement was performed."""

    #: Manual region constraints per component (the paper's methodology).
    FLOORPLANNED = "floorplanned"
    #: Tool-default placement.
    AUTOMATIC = "automatic"


#: Base frequency penalty of skipping floorplanning.
_AUTOMATIC_BASE_PENALTY = 0.08
#: Additional congestion penalty per unit of binding utilisation above 50%.
_CONGESTION_SLOPE = 0.35


def achieved_frequency(
    device: FPGAModel,
    demand: ResourceVector,
    quality: FloorplanQuality = FloorplanQuality.FLOORPLANNED,
) -> float:
    """Achieved clock for a design of ``demand`` resources on ``device``.

    Floorplanned designs reach the device's calibrated clock.  Automatic
    placement loses a base margin plus a congestion term that grows with
    the binding resource utilisation — heavily packed designs suffer most.
    """
    if quality is FloorplanQuality.FLOORPLANNED:
        return device.frequency_hz
    utilisation = min(1.0, demand.max_ratio(device.resources))
    congestion = max(0.0, utilisation - 0.5) * _CONGESTION_SLOPE
    penalty = min(0.35, _AUTOMATIC_BASE_PENALTY + congestion)
    return device.frequency_hz * (1.0 - penalty)
