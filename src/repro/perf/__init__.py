"""Performance models composed from the accelerator timing model, the
latency-insensitive interface costs and the ring network.

* :mod:`~repro.perf.latency`    — instance sizing and single-/multi-FPGA
  task latency.
* :mod:`~repro.perf.overlap`    — communication/computation overlap for
  scale-out deployments (the Fig. 11 model).
* :mod:`~repro.perf.throughput` — throughput accounting helpers.

Runtime counters are not kept here: each layer counts on its own per-run
stats (``ControllerStats``, ``ServingStats``, ``ClusterSimulator``
attributes, ...).
"""

from .latency import demand_sized_instance, single_fpga_latency, InstanceChoice
from .overlap import (
    ScaleOutLatency,
    overlap_window_seconds,
    scaleout_latency,
)
from .throughput import speedup

__all__ = [
    "InstanceChoice",
    "ScaleOutLatency",
    "demand_sized_instance",
    "overlap_window_seconds",
    "scaleout_latency",
    "single_fpga_latency",
    "speedup",
]
