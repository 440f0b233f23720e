"""Benchmark driver for the multi-tenant fairness layer.

Runs a premium (high-priority, non-preemptible) and a best-effort
(low-priority, preemptible, block-quota-bounded) tenant together on a
16-board cluster at 2x the measured saturating rate, with the
best-effort stream alone saturating the machine, and emits
``BENCH_tenancy.json`` with three arms:

* ``premium_solo``       — the premium stream with the cluster to itself:
  the interference-free reference its p99 bound is measured against;
* ``mixed_untenanted``   — both streams through the plain scheduler (no
  tenancy layer): the headline interference the layer exists to remove;
* ``mixed_tenancy``      — both streams under the
  :class:`~repro.tenancy.TenantScheduler` with quotas, weighted
  fair-share, strict priority and checkpoint + requeue preemption.

The acceptance gate (the report's ``gate`` block): **zero quota
violations** (the ledger's per-tenant peak resident blocks/replicas never
exceeded a quota — exact, not sampled), the premium tenant's p99 latency
in the tenancy arm within ``P99_BOUND_FACTOR`` (2x) of its solo p99, and
every preempted best-effort task eventually completing (recovery rate
1.0).  Regenerate with::

    PYTHONPATH=src python -m repro.experiments.bench_tenancy           # full
    PYTHONPATH=src python -m repro.experiments.bench_tenancy --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from ..cluster import ClusterSimulator, Task, scaled_cluster
from ..runtime import Catalog, build_system
from ..tenancy import TenancyParameters, TenantParameters, TenantScheduler
from ..vital import VitalCompiler
from ..workloads import poisson_arrivals
from .report import percentile

#: Bench cluster: 16 boards in the paper mix (3:1 VU37P:KU115).
BOARD_COUNT = 16

PREMIUM = "premium"
BEST_EFFORT = "besteffort"

#: Disjoint model sets: contention is for *blocks*, not deployments.
TENANT_MODELS = {
    PREMIUM: ("gru-h512-t1",),
    BEST_EFFORT: ("lstm-h256-t150", "lstm-h512-t25"),
}

#: Measured saturating rate of the combined stream on this cluster (the
#: mixed arms run at OVERLOAD_FACTOR times this, split 1:3
#: premium:best-effort so the best-effort stream alone saturates).
BASE_RATE_PER_S = 6400.0
OVERLOAD_FACTOR = 2.0
PREMIUM_SHARE = 0.25

#: Block quotas as fractions of the cluster's total virtual blocks: the
#: best-effort tenant may fill most of the machine (so the premium tenant
#: must *preempt* to get in), but never all of it.
BEST_EFFORT_BLOCK_FRACTION = 0.8
PREMIUM_BLOCK_FRACTION = 0.3

#: Premium p99 in the tenancy arm must stay within this factor of solo.
P99_BOUND_FACTOR = 2.0

SMOKE_TASK_COUNT = 160
FULL_TASK_COUNT = 640
ARRIVAL_SEED = 17


def build_tenants(total_blocks: int) -> list:
    """The bench's two tenant contracts, quotas sized to the cluster."""
    return [
        TenantParameters(
            name=PREMIUM,
            priority=1,
            weight=2.0,
            block_quota=max(1, int(total_blocks * PREMIUM_BLOCK_FRACTION)),
            preemptible=False,
        ),
        TenantParameters(
            name=BEST_EFFORT,
            priority=0,
            weight=1.0,
            block_quota=max(1, int(total_blocks * BEST_EFFORT_BLOCK_FRACTION)),
            preemptible=True,
        ),
    ]


def build_streams(
    task_count: int, rate_per_s: float, seed: int = ARRIVAL_SEED
) -> dict:
    """Per-tenant Poisson task streams; the premium tenant gets
    PREMIUM_SHARE of the tasks and of the rate, so per-stream mean gaps
    match."""
    premium_count = max(1, int(task_count * PREMIUM_SHARE))
    counts = {PREMIUM: premium_count, BEST_EFFORT: task_count - premium_count}
    rates = {
        PREMIUM: rate_per_s * PREMIUM_SHARE,
        BEST_EFFORT: rate_per_s * (1.0 - PREMIUM_SHARE),
    }
    streams = {}
    for offset, name in enumerate(sorted(counts)):
        models = TENANT_MODELS[name]
        arrivals = poisson_arrivals(counts[name], rates[name], seed=seed + offset)
        streams[name] = [
            Task(
                task_id=offset * task_count + index,
                model_key=models[index % len(models)],
                arrival_s=arrival_s,
                size_class="S",
                tenant=name,
            )
            for index, arrival_s in enumerate(arrivals)
        ]
    return streams


def _tenant_latencies(result) -> dict:
    latencies: dict = {}
    for task in result.completed:
        latencies.setdefault(task.tenant, []).append(task.latency_s)
    return latencies


def _latency_block(latencies: dict) -> dict:
    return {
        name: {
            "completed": len(values),
            "mean_s": sum(values) / len(values) if values else 0.0,
            "p50_s": percentile(values, 0.50),
            "p99_s": percentile(values, 0.99),
        }
        for name, values in sorted(latencies.items())
    }


def run_arm(streams: dict, tenants: list | None, label: str) -> dict:
    """One simulated arm; ``tenants=None`` runs the plain scheduler.

    ``streams`` must be freshly built for this arm — the simulator
    mutates task state (start/finish stamps, run epochs), so arms must
    never share :class:`Task` objects.
    """
    cluster = scaled_cluster(BOARD_COUNT)
    system = build_system("proposed", cluster, Catalog(VitalCompiler()))
    scheduler = system
    tenancy = None
    if tenants is not None:
        tenancy = TenantScheduler(system, tenants, TenancyParameters())
        scheduler = tenancy
    tasks = sorted(
        (task for stream in streams.values() for task in stream),
        key=lambda task: (task.arrival_s, task.task_id),
    )
    start = time.perf_counter()
    result = ClusterSimulator(scheduler, label).run(tasks)
    wall_s = time.perf_counter() - start
    latencies = _tenant_latencies(result)
    arm = {
        "label": label,
        "offered": len(tasks),
        "completed": len(result.completed),
        "dropped": len(result.dropped),
        "makespan_s": result.makespan_s,
        "wall_clock_s": wall_s,
        "tenants": _latency_block(latencies),
        "placement_failures": system.controller.stats.placement_failures,
        "quota_rejections": system.controller.stats.quota_rejections,
    }
    if tenancy is not None:
        stats = tenancy.stats
        arm["tenancy"] = {
            "preemption_sweeps": stats.preemption_sweeps,
            "deployments_preempted": stats.deployments_preempted,
            "tasks_preempted": stats.tasks_preempted,
            "preempted_distinct": stats.preempted_distinct,
            "preempted_completed": stats.preempted_completed,
            "recovery_rate": (
                stats.preempted_completed / stats.preempted_distinct
                if stats.preempted_distinct
                else 1.0
            ),
            "quota_sheds": stats.quota_sheds,
            "checkpoint_s": stats.checkpoint_s,
            "restore_s": stats.restore_s,
            "quota_violations": tenancy.quota_violations(),
            "report": tenancy.tenant_report(),
        }
    return arm


def run_bench(
    task_count: int = FULL_TASK_COUNT,
    output: str | pathlib.Path | None = "BENCH_tenancy.json",
) -> dict:
    """Run the three arms at 2x overload; write (unless ``output`` is
    None) and return the report."""
    cluster = scaled_cluster(BOARD_COUNT)
    total_blocks = sum(len(board.blocks) for board in cluster.boards.values())
    tenants = build_tenants(total_blocks)
    rate = BASE_RATE_PER_S * OVERLOAD_FACTOR
    # Each arm gets its own freshly built (seed-identical) Task objects:
    # the simulator stamps start/finish state into tasks, so sharing them
    # across arms would leak one run's state into the next.
    solo = run_arm(
        {PREMIUM: build_streams(task_count, rate)[PREMIUM]},
        [t for t in tenants if t.name == PREMIUM],
        "tenancy-premium-solo",
    )
    untenanted = run_arm(
        build_streams(task_count, rate), None,
        "tenancy-mixed-untenanted",
    )
    tenanted = run_arm(
        build_streams(task_count, rate), tenants, "tenancy-mixed"
    )
    solo_p99 = solo["tenants"][PREMIUM]["p99_s"]
    mixed_p99 = tenanted["tenants"][PREMIUM]["p99_s"]
    tenancy = tenanted["tenancy"]
    gate = {
        "overload_factor": OVERLOAD_FACTOR,
        "quota_violations": tenancy["quota_violations"],
        "premium_solo_p99_s": solo_p99,
        "premium_mixed_p99_s": mixed_p99,
        "p99_bound_factor": P99_BOUND_FACTOR,
        "p99_ratio": mixed_p99 / solo_p99 if solo_p99 else 0.0,
        "tasks_preempted": tenancy["tasks_preempted"],
        "recovery_rate": tenancy["recovery_rate"],
        "pass": (
            not tenancy["quota_violations"]
            and (solo_p99 == 0.0 or mixed_p99 <= P99_BOUND_FACTOR * solo_p99)
            and tenancy["recovery_rate"] >= 1.0
        ),
    }
    report = {
        "workload": {
            "task_count": task_count,
            "boards": BOARD_COUNT,
            "total_blocks": total_blocks,
            "base_rate_per_s": BASE_RATE_PER_S,
            "overload_factor": OVERLOAD_FACTOR,
            "premium_share": PREMIUM_SHARE,
            "trace": "poisson",
            "arrival_seed": ARRIVAL_SEED,
            "tenant_models": {k: list(v) for k, v in TENANT_MODELS.items()},
            "tenants": [
                {
                    "name": t.name,
                    "priority": t.priority,
                    "weight": t.weight,
                    "block_quota": t.block_quota,
                    "preemptible": t.preemptible,
                }
                for t in tenants
            ],
        },
        "premium_solo": solo,
        "mixed_untenanted": untenanted,
        "mixed_tenancy": tenanted,
        "gate": gate,
    }
    if output is not None:
        path = pathlib.Path(output)
        path.write_text(json.dumps(report, indent=1) + "\n")
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tasks", type=int, default=FULL_TASK_COUNT)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI scale: {SMOKE_TASK_COUNT} tasks",
    )
    parser.add_argument("--output", default="BENCH_tenancy.json")
    args = parser.parse_args(argv)
    task_count = SMOKE_TASK_COUNT if args.smoke else args.tasks
    report = run_bench(task_count=task_count, output=args.output)
    for key in ("premium_solo", "mixed_untenanted", "mixed_tenancy"):
        arm = report[key]
        premium = arm["tenants"].get(PREMIUM, {})
        print(
            f"{key}: {arm['completed']}/{arm['offered']} completed, "
            f"premium p99 {premium.get('p99_s', 0.0) * 1e3:.2f} ms, "
            f"makespan {arm['makespan_s'] * 1e3:.1f} ms"
        )
    tenancy = report["mixed_tenancy"]["tenancy"]
    print(
        f"tenancy: {tenancy['preemption_sweeps']} sweeps preempted "
        f"{tenancy['deployments_preempted']} deployments / "
        f"{tenancy['tasks_preempted']} tasks "
        f"(recovery {tenancy['recovery_rate']:.3f}), "
        f"{report['mixed_tenancy']['quota_rejections']} quota rejections, "
        f"violations {tenancy['quota_violations']}"
    )
    gate = report["gate"]
    print(
        f"gate (x{gate['overload_factor']:g} overload): p99 ratio "
        f"{gate['p99_ratio']:.2f} <= {gate['p99_bound_factor']:g}, "
        f"violations {gate['quota_violations']}, recovery "
        f"{gate['recovery_rate']:.3f} -> "
        f"{'PASS' if gate['pass'] else 'FAIL'}"
    )
    print(f"report written to {args.output}")


if __name__ == "__main__":  # pragma: no cover - manual driver
    main()
