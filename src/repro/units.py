"""Unit helpers used throughout the library.

The paper mixes several unit systems (Mb of BRAM, MHz clock frequencies,
microsecond network latencies, millisecond inference latencies).  To avoid
unit bugs, the library stores everything internally in *base* units:

* time        -> seconds
* frequency   -> hertz
* memory      -> bits
* bandwidth   -> bits per second

and exposes tiny constructor/formatter helpers so call sites read naturally
(``us(0.6)``, ``mhz(400)``, ``mbit(51.5)``).
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------

US = 1e-6
MS = 1e-3


def us(value: float) -> float:
    """Microseconds to seconds."""
    return value * US


def ms(value: float) -> float:
    """Milliseconds to seconds."""
    return value * MS


def to_ms(seconds: float) -> float:
    """Seconds to milliseconds."""
    return seconds / MS


# --- frequency ---------------------------------------------------------------

MHZ = 1e6


def mhz(value: float) -> float:
    """Megahertz to hertz."""
    return value * MHZ


def to_mhz(hertz: float) -> float:
    """Hertz to megahertz."""
    return hertz / MHZ


# --- memory ------------------------------------------------------------------

KBIT = 1 << 10
MBIT = 1 << 20


def mbit(value: float) -> float:
    """Megabits (1024-based) to bits."""
    return value * MBIT


def to_mbit(bits: float) -> float:
    """Bits to megabits."""
    return bits / MBIT


# --- bandwidth ---------------------------------------------------------------

GBPS = 1e9


def gbps(value: float) -> float:
    """Gigabits per second to bits per second."""
    return value * GBPS


# --- compute -----------------------------------------------------------------

TFLOPS = 1e12


def tflops(value: float) -> float:
    """TeraFLOP/s to FLOP/s."""
    return value * TFLOPS


def to_tflops(flops: float) -> float:
    """FLOP/s to TeraFLOP/s."""
    return flops / TFLOPS


# --- formatting --------------------------------------------------------------


def fmt_bits(bits: float) -> str:
    """Render a memory size, e.g. ``'51.5 Mb'``."""
    if abs(bits) >= MBIT:
        return f"{bits / MBIT:.3g} Mb"
    if abs(bits) >= KBIT:
        return f"{bits / KBIT:.3g} Kb"
    return f"{bits:.0f} b"
