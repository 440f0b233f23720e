"""Throughput accounting helpers for the system evaluation."""

from __future__ import annotations

from ..errors import ReproError


def speedup(candidate: float, baseline: float) -> float:
    """Throughput ratio candidate/baseline (the Fig. 12 bar heights)."""
    if baseline <= 0:
        raise ReproError("baseline throughput must be positive")
    return candidate / baseline


def arithmetic_mean(values) -> float:
    """Plain average (the paper reports average throughput improvement)."""
    values = list(values)
    if not values:
        raise ReproError("mean of empty sequence")
    return sum(values) / len(values)
