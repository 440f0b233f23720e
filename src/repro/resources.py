"""FPGA resource algebra.

Every layer of the framework reasons about the same five physical resource
classes found on the evaluated Xilinx UltraScale/UltraScale+ parts:

* LUTs  - lookup tables (logic)
* FFs   - D flip-flops (registers)
* BRAM  - block RAM capacity, in bits
* URAM  - UltraRAM capacity, in bits (zero on devices without URAM)
* DSPs  - DSP48 slices

:class:`ResourceVector` is an immutable value type with element-wise
arithmetic, scaling, and containment tests.  It is used by the RTL resource
estimator, by soft blocks (which aggregate their children), by the ViTAL
virtual-block compiler (fit checks), and by the runtime allocator
(free-capacity bookkeeping).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

#: Names of the resource classes, in canonical order.
RESOURCE_KINDS = ("luts", "ffs", "bram_bits", "uram_bits", "dsps")


@dataclass(frozen=True)
class ResourceVector:
    """An immutable bundle of FPGA resource quantities.

    Supports ``+``, ``-``, scalar ``*``, ``<=`` (component-wise containment,
    used for "does this fit?"), and utilisation computation against a
    capacity vector.
    """

    luts: float = 0.0
    ffs: float = 0.0
    bram_bits: float = 0.0
    uram_bits: float = 0.0
    dsps: float = 0.0

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "ResourceVector":
        """The additive identity."""
        return cls()

    @classmethod
    def from_dict(cls, values: dict) -> "ResourceVector":
        """Build from a mapping; unknown keys raise ``TypeError``."""
        return cls(**values)

    # -- iteration / conversion ----------------------------------------------

    def __iter__(self) -> Iterator[float]:
        return iter(getattr(self, kind) for kind in RESOURCE_KINDS)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return ResourceVector(
            *(a + b for a, b in zip(self, other))
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return ResourceVector(
            *(a - b for a, b in zip(self, other))
        )

    def __mul__(self, factor: float) -> "ResourceVector":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return ResourceVector(*(a * factor for a in self))

    __rmul__ = __mul__

    def __le__(self, other: "ResourceVector") -> bool:
        """Component-wise containment: ``need <= capacity`` means "fits"."""
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return all(a <= b for a, b in zip(self, other))

    def ceil(self) -> "ResourceVector":
        """Round each component up to an integer count."""
        return ResourceVector(*(float(math.ceil(a)) for a in self))

    def max_ratio(self, capacity: "ResourceVector") -> float:
        """The binding utilisation ratio against ``capacity``.

        This is the quantity that determines how many identical blocks a
        request needs: ``ceil(max_ratio)`` blocks of ``capacity`` suffice
        component-wise.  Components with zero capacity and zero demand are
        ignored; zero capacity with nonzero demand yields ``inf``.
        """
        worst = 0.0
        for need, have in zip(self, capacity):
            if need <= 0:
                continue
            if have <= 0:
                return math.inf
            worst = max(worst, need / have)
        return worst

    def utilisation(self, capacity: "ResourceVector") -> dict:
        """Per-component utilisation fractions (``nan`` for 0-capacity)."""
        report = {}
        for kind in RESOURCE_KINDS:
            need = getattr(self, kind)
            have = getattr(capacity, kind)
            report[kind] = (need / have) if have > 0 else float("nan")
        return report

    # -- display ----------------------------------------------------------------

    def describe(self) -> str:
        """A compact human-readable rendering used in reports."""
        from .units import fmt_bits

        return (
            f"LUT={self.luts / 1e3:.1f}k FF={self.ffs / 1e3:.1f}k "
            f"BRAM={fmt_bits(self.bram_bits)} URAM={fmt_bits(self.uram_bits)} "
            f"DSP={self.dsps:.0f}"
        )


def total(vectors) -> ResourceVector:
    """Sum an iterable of :class:`ResourceVector`."""
    acc = ResourceVector.zero()
    for vec in vectors:
        acc = acc + vec
    return acc
