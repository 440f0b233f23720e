"""Synthetic workload sets (paper Table 1).

No real-world cloud FPGA workload trace is public, so the paper
synthetically generates ten workload sets with different S/M/L task
compositions.  Each set is a sequence of GRU/LSTM inference tasks (drawn
from the first benchmark set) arriving at random intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.simulator import Task
from ..errors import ReproError
from .arrival import poisson_arrivals
from .deepbench import MODEL_POOL


@dataclass(frozen=True)
class WorkloadComposition:
    """One row of Table 1: fractions of S/M/L tasks."""

    index: int
    small: float
    medium: float
    large: float

    def __post_init__(self):
        total = self.small + self.medium + self.large
        if abs(total - 1.0) > 1e-9:
            raise ReproError(
                f"composition {self.index} fractions sum to {total}, not 1"
            )

    def describe(self) -> str:
        parts = []
        for fraction, label in (
            (self.small, "S"),
            (self.medium, "M"),
            (self.large, "L"),
        ):
            if fraction > 0:
                parts.append(f"{fraction * 100:.0f}% {label}")
        return " + ".join(parts)


#: The ten compositions of Table 1.
TABLE1_COMPOSITIONS = (
    WorkloadComposition(1, 1.00, 0.00, 0.00),
    WorkloadComposition(2, 0.00, 1.00, 0.00),
    WorkloadComposition(3, 0.00, 0.00, 1.00),
    WorkloadComposition(4, 0.50, 0.50, 0.00),
    WorkloadComposition(5, 0.50, 0.00, 0.50),
    WorkloadComposition(6, 0.00, 0.50, 0.50),
    WorkloadComposition(7, 0.33, 0.33, 0.34),
    WorkloadComposition(8, 0.10, 0.30, 0.60),
    WorkloadComposition(9, 0.30, 0.60, 0.10),
    WorkloadComposition(10, 0.60, 0.10, 0.30),
)


def generate_workload(
    composition: WorkloadComposition,
    task_count: int = 200,
    arrival_rate_per_s: float = 500.0,
    seed: int = 0,
) -> list:
    """Build one task stream for a composition.

    Size classes are drawn per the composition's fractions; within a class
    the concrete model is drawn uniformly from the benchmark pool.  Arrivals
    are Poisson.  Deterministic for a given seed.
    """
    if task_count < 1:
        raise ReproError("task_count must be positive")
    rng = np.random.default_rng(seed)
    classes = rng.choice(
        ["S", "M", "L"],
        size=task_count,
        p=[composition.small, composition.medium, composition.large],
    )
    arrivals = poisson_arrivals(task_count, arrival_rate_per_s, seed=seed + 1)
    tasks = []
    for task_id, (size_class, arrival) in enumerate(zip(classes, arrivals)):
        pool = MODEL_POOL[size_class]
        spec = pool[int(rng.integers(0, len(pool)))]
        tasks.append(
            Task(
                task_id=task_id,
                model_key=spec.key,
                arrival_s=float(arrival),
                size_class=size_class,
            )
        )
    return tasks
