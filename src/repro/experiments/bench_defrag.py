"""Benchmark driver for the defragmentation subsystem.

Runs one fragmented-arrival workload twice through the proposed system —
defrag off, then defrag on — and emits ``BENCH_defrag.json`` comparing
placement-failure rate, throughput, eviction/migration counts and host
wall-clock, with the migration engine's counters attached.

The workload models the steady state that motivates compaction: a cluster
carrying long-lived small tenants whose neighbours have departed, leaving
every board with free blocks but none with a hole large enough for a big
model.  A mixed arrival stream then interleaves small-model traffic (which
keeps the resident tenants hot) with periodic large-model arrivals that
cannot place without either destructive eviction (defrag off) or live
compaction (defrag on).  Regenerate with::

    PYTHONPATH=src python -m repro.experiments.bench_defrag           # full
    PYTHONPATH=src python -m repro.experiments.bench_defrag --smoke   # CI
"""

from __future__ import annotations

import argparse
import copy
import json
import pathlib
import time

from ..cluster import ClusterSimulator, Task, paper_cluster
from ..runtime import Catalog, build_system
from ..vital import VitalCompiler

#: The small tenant whose shattered residents fragment the VU37P boards.
SMALL_MODEL = "gru-h512-t1"
#: The large arrival that needs a compacted hole (14 VU37P blocks).
LARGE_MODEL = "gru-h1536-t375"
#: A second small model for background traffic variety.
FILLER_MODEL = "lstm-h256-t150"

SMOKE_SMALL_TASKS = 30
FULL_SMALL_TASKS = 120
#: One large arrival per this many small ones.
LARGE_EVERY = 15
#: Background arrival spacing (seconds of simulated time).
ARRIVAL_GAP_S = 0.004


def _fragment_cluster(controller) -> None:
    """Shatter the cluster's free space before the measured stream.

    Pins the KU115 (modelling a tenant outside this experiment's control),
    fills the VU37P boards with 4-block small-model deployments, then
    evicts half of them in alternating positions: every board ends with 8
    free blocks — 24 free in aggregate, no 14-block hole anywhere.
    """
    ku115 = controller.cluster.board("ku115-0")
    ku115.allocate("external-tenant", ku115.free_blocks)
    deployments = [controller.deploy(SMALL_MODEL)[0] for _ in range(12)]
    by_board: dict[str, list] = {}
    for deployment in deployments:
        by_board.setdefault(deployment.placements[0].fpga_id, []).append(
            deployment
        )
    for residents in by_board.values():
        controller.evict(residents[0])
        controller.evict(residents[2])


def _build_tasks(small_tasks: int) -> list:
    """Deterministic mixed stream: small traffic with periodic large jobs."""
    tasks = []
    task_id = 0
    now = 0.0
    for index in range(small_tasks):
        key = SMALL_MODEL if index % 3 else FILLER_MODEL
        tasks.append(
            Task(task_id=task_id, model_key=key, arrival_s=now, size_class="S")
        )
        task_id += 1
        now += ARRIVAL_GAP_S
        if index % LARGE_EVERY == LARGE_EVERY - 1:
            tasks.append(
                Task(
                    task_id=task_id,
                    model_key=LARGE_MODEL,
                    arrival_s=now,
                    size_class="L",
                )
            )
            task_id += 1
            now += ARRIVAL_GAP_S
    return tasks


def _run_once(defrag: bool, tasks: list) -> dict:
    """One full run; returns the per-config metrics block."""
    system = build_system(
        "proposed", paper_cluster(), Catalog(VitalCompiler()), defrag=defrag
    )
    controller = system.controller
    _fragment_cluster(controller)
    simulator = ClusterSimulator(system, f"proposed-defrag-{'on' if defrag else 'off'}")
    start = time.perf_counter()
    result = simulator.run(copy.deepcopy(tasks))
    wall_s = time.perf_counter() - start
    stats = controller.stats
    migration = controller.migration
    deploys = max(1, stats.deploy_calls)
    return {
        "defrag": defrag,
        "completed": len(result.completed),
        "makespan_s": result.makespan_s,
        "throughput_tasks_per_s": result.throughput,
        "mean_latency_s": result.mean_latency(),
        "wall_clock_s": wall_s,
        "placement_failures": stats.placement_failures,
        "deploy_calls": stats.deploy_calls,
        "placement_failure_rate": stats.placement_failures / deploys,
        "evictions": stats.deployments_evicted,
        "reuse_hits": stats.reuse_hits,
        "defrag_plans": stats.defrag_plans,
        "migrations_completed": migration.migrations_completed,
        "migration_counters": {
            "migrations_planned": migration.migrations_planned,
            "bytes_migrated": migration.bytes_migrated,
            # One DES external event per defrag plan: its moves finishing.
            "external_events": simulator.external_events,
        },
    }


def run_bench(
    small_tasks: int = FULL_SMALL_TASKS,
    output: str | pathlib.Path = "BENCH_defrag.json",
) -> dict:
    """Run the fragmented workload with defrag off and on; write the report."""
    tasks = _build_tasks(small_tasks)
    off = _run_once(defrag=False, tasks=tasks)
    on = _run_once(defrag=True, tasks=tasks)
    report = {
        "workload": {
            "small_tasks": small_tasks,
            "large_tasks": small_tasks // LARGE_EVERY,
            "total_tasks": len(tasks),
            "small_model": SMALL_MODEL,
            "filler_model": FILLER_MODEL,
            "large_model": LARGE_MODEL,
            "arrival_gap_s": ARRIVAL_GAP_S,
        },
        "defrag_off": off,
        "defrag_on": on,
        "comparison": {
            "failure_rate_off": off["placement_failure_rate"],
            "failure_rate_on": on["placement_failure_rate"],
            "failure_rate_reduction": (
                off["placement_failure_rate"] - on["placement_failure_rate"]
            ),
            "throughput_gain": (
                on["throughput_tasks_per_s"] / off["throughput_tasks_per_s"]
                if off["throughput_tasks_per_s"]
                else None
            ),
            "evictions_avoided": off["evictions"] - on["evictions"],
        },
    }
    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=1) + "\n")
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small-tasks", type=int, default=FULL_SMALL_TASKS)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI scale: {SMOKE_SMALL_TASKS} small tasks",
    )
    parser.add_argument("--output", default="BENCH_defrag.json")
    args = parser.parse_args(argv)
    small_tasks = SMOKE_SMALL_TASKS if args.smoke else args.small_tasks
    report = run_bench(small_tasks=small_tasks, output=args.output)
    off, on = report["defrag_off"], report["defrag_on"]
    print(
        f"placement-failure rate: {off['placement_failure_rate']:.3f} off -> "
        f"{on['placement_failure_rate']:.3f} on"
    )
    print(
        f"throughput: {off['throughput_tasks_per_s']:.1f} off -> "
        f"{on['throughput_tasks_per_s']:.1f} on tasks/s"
    )
    print(
        f"migrations: {on['migrations_completed']} "
        f"({on['migration_counters']['bytes_migrated']} state bytes)"
    )
    print(f"report written to {args.output}")


if __name__ == "__main__":  # pragma: no cover - manual driver
    main()
