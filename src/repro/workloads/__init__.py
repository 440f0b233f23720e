"""Workloads: DeepBench-style benchmark models and synthetic cloud mixes.

* :mod:`~repro.workloads.deepbench` — the first benchmark set (Section 4.1):
  representative GRU/LSTM inference tasks at batch size one, including the
  exact seven configurations of Table 4.
* :mod:`~repro.workloads.synthetic` — the second benchmark set: the ten
  S/M/L compositions of Table 1, generated as task streams with random
  arrival intervals.
* :mod:`~repro.workloads.arrival` — arrival processes.
"""

from .deepbench import (
    ModelSpec,
    TABLE4_BENCHMARKS,
    MODEL_POOL,
    model_by_key,
    size_class_of,
)
from .synthetic import (
    TABLE1_COMPOSITIONS,
    WorkloadComposition,
    generate_workload,
)
from .arrival import diurnal_arrivals, mmpp_arrivals, poisson_arrivals

__all__ = [
    "MODEL_POOL",
    "ModelSpec",
    "TABLE1_COMPOSITIONS",
    "TABLE4_BENCHMARKS",
    "WorkloadComposition",
    "diurnal_arrivals",
    "generate_workload",
    "mmpp_arrivals",
    "model_by_key",
    "poisson_arrivals",
    "size_class_of",
]
