"""Fig. 12 — aggregated system throughput on the ten Table-1 workload sets.

Runs the three systems (AS-ISA baseline, restricted same-type policy, the
proposed framework) on identical saturating task streams over the 3x
XCVU37P + 1x XCKU115 cluster, averaged over several seeds, and reports
tasks/second plus the ratios the paper headlines (2.54x over the baseline
on average, ~16% over the restricted policy).
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field

from ..cluster import ClusterSimulator, paper_cluster
from ..perf.throughput import arithmetic_mean
from ..runtime import Catalog, build_system
from ..vital import VitalCompiler
from ..workloads import TABLE1_COMPOSITIONS, WorkloadComposition, generate_workload
from .report import format_table

SYSTEMS = ("baseline", "restricted", "proposed")
#: Per-run counters a row sums over its seeds and systems (the baseline
#: system has no controller, so it adds simulator counters only).
SIMULATOR_COUNTERS = ("try_start_attempts", "watermark_skips")
CONTROLLER_COUNTERS = ("deploy_calls", "placement_searches", "fast_rejects")


@dataclass
class Fig12Row:
    """Throughput of the three systems on one workload set."""

    composition: WorkloadComposition
    throughput: dict = field(default_factory=dict)
    #: DES ``events`` plus the :data:`SIMULATOR_COUNTERS` and
    #: :data:`CONTROLLER_COUNTERS` of every run behind this row.
    counters: Counter = field(default_factory=Counter)

    @property
    def speedup_vs_baseline(self) -> float:
        return self.throughput["proposed"] / self.throughput["baseline"]

    @property
    def speedup_vs_restricted(self) -> float:
        return self.throughput["proposed"] / self.throughput["restricted"]


def run_fig12(
    compositions=TABLE1_COMPOSITIONS,
    task_count: int = 150,
    arrival_rate_per_s: float = 1e5,
    seeds=(1, 2, 3),
) -> list:
    """Run every composition under every system; average over seeds."""
    rows = []
    for composition in compositions:
        sums = {name: 0.0 for name in SYSTEMS}
        counters = Counter()
        for seed in seeds:
            tasks = generate_workload(
                composition,
                task_count=task_count,
                arrival_rate_per_s=arrival_rate_per_s,
                seed=seed * 1000 + composition.index,
            )
            for name in SYSTEMS:
                cluster = paper_cluster()
                catalog = Catalog(VitalCompiler())
                system = build_system(name, cluster, catalog)
                simulator = ClusterSimulator(system, name)
                result = simulator.run([copy.deepcopy(task) for task in tasks])
                sums[name] += result.throughput
                counters["events"] += simulator.queue.processed
                for key in SIMULATOR_COUNTERS:
                    counters[key] += getattr(simulator, key)
                controller = getattr(system, "controller", None)
                if controller is not None:
                    for key in CONTROLLER_COUNTERS:
                        counters[key] += getattr(controller.stats, key)
        rows.append(
            Fig12Row(
                composition=composition,
                throughput={
                    name: total / len(seeds) for name, total in sums.items()
                },
                counters=counters,
            )
        )
    return rows


def average_speedups(rows: list) -> tuple:
    """(mean speedup vs baseline, mean speedup vs restricted)."""
    return (
        arithmetic_mean(row.speedup_vs_baseline for row in rows),
        arithmetic_mean(row.speedup_vs_restricted for row in rows),
    )


def render(rows: list) -> str:
    body = []
    for row in rows:
        body.append(
            [
                row.composition.index,
                row.composition.describe(),
                f"{row.throughput['baseline']:.1f}",
                f"{row.throughput['restricted']:.1f}",
                f"{row.throughput['proposed']:.1f}",
                f"{row.speedup_vs_baseline:.2f}x",
                f"{row.speedup_vs_restricted:.2f}x",
            ]
        )
    from .charts import grouped_bar_chart

    chart = grouped_bar_chart(
        [
            f"set {row.composition.index} ({row.composition.describe()})"
            for row in rows
        ],
        {name: [row.throughput[name] for row in rows] for name in SYSTEMS},
        y_label="throughput, tasks/s",
    )
    vs_base, vs_restricted = average_speedups(rows)
    return (
        chart
        + "\n\n"
        + format_table(
            [
                "Set", "Composition", "Baseline (t/s)", "Restricted (t/s)",
                "Proposed (t/s)", "vs baseline", "vs restricted",
            ],
            body,
            title="Fig. 12: aggregated system throughput",
        )
        + f"\n\naverage speedup vs baseline:   {vs_base:.2f}x (paper: 2.54x)"
        + f"\naverage speedup vs restricted: {vs_restricted:.2f}x (paper: ~1.16x)"
    )


if __name__ == "__main__":  # pragma: no cover - manual driver
    print(render(run_fig12()))
