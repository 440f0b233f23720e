"""Experiment drivers — one module per table/figure of the paper.

Each driver returns a structured result object and renders the same
rows/series the paper reports:

* :mod:`~repro.experiments.table2`  — baseline accelerator implementations.
* :mod:`~repro.experiments.table3`  — one ViTAL virtual block per device.
* :mod:`~repro.experiments.table4`  — single-FPGA inference latency and
  virtualization overhead.
* :mod:`~repro.experiments.fig11`   — inference latency vs added inter-FPGA
  communication latency on a two-FPGA deployment.
* :mod:`~repro.experiments.fig12`   — aggregated system throughput on the
  ten Table-1 workload sets.
* :mod:`~repro.experiments.compile_overhead` — Section 4.3's compilation
  cost accounting (decompose/partition share, amortised scale-down cost).
* :mod:`~repro.experiments.isolation` — Section 4.4's performance-isolation
  result (instruction buffer vs shared-DRAM contention).
* :mod:`~repro.experiments.bench_fig12` — Fig. 12 benchmark driver (emits
  ``BENCH_fig12.json`` with wall-clock and the placement counters summed
  from every run's simulator and controller stats).
"""

from .report import format_table
from .table2 import run_table2, Table2Row
from .table3 import run_table3, Table3Row
from .table4 import run_table4, Table4Row
from .fig11 import run_fig11, Fig11Curve
from .fig12 import run_fig12, Fig12Row
from .compile_overhead import run_compile_overhead, CompileOverheadResult
from .isolation import run_isolation, IsolationRow

# NOTE: bench_fig12 is deliberately not imported here so that
# ``python -m repro.experiments.bench_fig12`` runs without the runpy
# already-imported warning; use it as a module entry point.

__all__ = [
    "CompileOverheadResult",
    "IsolationRow",
    "run_isolation",
    "Fig11Curve",
    "Fig12Row",
    "Table2Row",
    "Table3Row",
    "Table4Row",
    "format_table",
    "run_compile_overhead",
    "run_fig11",
    "run_fig12",
    "run_table2",
    "run_table3",
    "run_table4",
]
