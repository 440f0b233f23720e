"""Scale benchmark for the control plane's placement index.

Sweeps cluster size (4 -> 1000 boards, the paper platform's 3:1
VU37P:KU115 mix) under a fully backlogged mixed task stream and emits
``BENCH_scale.json``: wall-clock, DES events/s, placement-search and
board-probe counts, parked dispatch passes, and a schedule digest per
point.  The gate checks
that boards probed per placement search grow sub-linearly in board
count; the regression gate (``bench_gate scale``) holds every
digest to the committed baseline's.

Regenerate with::

    PYTHONPATH=src python -m repro.experiments.bench_scale           # full
    PYTHONPATH=src python -m repro.experiments.bench_scale --smoke   # CI
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import time

from ..cluster import ClusterSimulator, scaled_cluster
from ..runtime import Catalog, build_system
from ..vital import VitalCompiler
from ..workloads import TABLE1_COMPOSITIONS, generate_workload

#: Full sweep: the ROADMAP's 100x-and-beyond cluster sizes.
FULL_BOARDS = (4, 64, 256, 1000)
FULL_TASKS_PER_BOARD = 100
#: Hard cap on any single point's stream (the 1000-board point).
MAX_TASKS = 100_000

#: Reduced scale for CI smoke runs (largest point: 256 boards).
SMOKE_BOARDS = (4, 64, 256)
SMOKE_TASKS_PER_BOARD = 8

#: The mixed composition (33% S + 33% M + 34% L) — exercises single- and
#: multi-replica plans plus cross-type pressure.
COMPOSITION = TABLE1_COMPOSITIONS[6]
SEED = 7
#: Everything arrives essentially at once (as in the Fig. 12 runs): the
#: backlog stresses the pending-queue and placement paths at full depth.
ARRIVAL_RATE_PER_S = 1e5

#: Probe growth must stay below this fraction of board growth between the
#: smallest and largest sweep points (0.5 = "at most half as fast as
#: linear"; the bisect index lands orders of magnitude under it).
SUBLINEAR_FRACTION = 0.5

_TOO_FEW_BOARDS = (
    "the scale gate needs at least two distinct board counts to measure "
    "probe growth, got {}"
)


def _schedule_digest(result) -> str:
    """Stable digest of one run's schedule (task id, start, finish)."""
    lines = sorted(
        f"{task.task_id}:{task.start_s!r}:{task.finish_s!r}"
        for task in result.completed
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _run_point(catalog, board_count: int, task_count: int) -> dict:
    """One simulation at one cluster size."""
    cluster = scaled_cluster(board_count)
    system = build_system("proposed", cluster, catalog)
    tasks = generate_workload(
        COMPOSITION,
        task_count=task_count,
        arrival_rate_per_s=ARRIVAL_RATE_PER_S,
        seed=SEED,
    )
    simulator = ClusterSimulator(system, "proposed")
    start = time.perf_counter()
    result = simulator.run(tasks)
    wall_s = time.perf_counter() - start
    stats = system.controller.stats
    searches = stats.placement_searches
    events = simulator.queue.processed
    return {
        "boards": board_count,
        "tasks": task_count,
        "wall_s": wall_s,
        "events": events,
        "events_per_s": events / wall_s if wall_s > 0 else 0.0,
        "completed": len(result.completed),
        "throughput": result.throughput,
        "placement_searches": searches,
        "boards_probed": stats.boards_probed,
        "probes_per_search": (
            stats.boards_probed / searches if searches else 0.0
        ),
        # Dispatch passes ended before asking the scheduler anything.
        "parked_passes": simulator.parked_passes,
        "schedule_digest": _schedule_digest(result),
    }


def run_bench(
    boards=FULL_BOARDS,
    tasks_per_board: int = FULL_TASKS_PER_BOARD,
    output: str | pathlib.Path = "BENCH_scale.json",
) -> dict:
    """Run the sweep; write and return the report.

    The gate compares the smallest and largest points, so ``boards`` needs
    at least two distinct counts; fewer raise :class:`ValueError`.
    """
    if len(set(boards)) < 2:
        raise ValueError(_TOO_FEW_BOARDS.format(list(boards)))
    catalog = Catalog(VitalCompiler())
    points = [
        _run_point(catalog, board_count,
                   min(board_count * tasks_per_board, MAX_TASKS))
        for board_count in boards
    ]
    smallest, largest = points[0], points[-1]
    board_growth = largest["boards"] / smallest["boards"]
    probe_growth = (
        largest["probes_per_search"] / smallest["probes_per_search"]
        if smallest["probes_per_search"]
        else 0.0
    )
    gate = {
        "board_growth": board_growth,
        "probe_growth": probe_growth,
        "sublinear_fraction": SUBLINEAR_FRACTION,
        "sublinear": probe_growth <= SUBLINEAR_FRACTION * board_growth,
    }
    gate["pass"] = gate["sublinear"]
    report = {
        "scale": {
            "boards": list(boards),
            "tasks_per_board": tasks_per_board,
            "max_tasks": MAX_TASKS,
            "composition": COMPOSITION.describe(),
            "seed": SEED,
        },
        "points": points,
        "gate": gate,
    }
    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=1) + "\n")
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--boards", type=int, nargs="+", default=None)
    parser.add_argument("--tasks-per-board", type=int, default=None)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI scale: boards {SMOKE_BOARDS}, "
        f"{SMOKE_TASKS_PER_BOARD} tasks/board",
    )
    parser.add_argument("--output", default="BENCH_scale.json")
    args = parser.parse_args(argv)
    if args.boards is not None and len(set(args.boards)) < 2:
        parser.error(_TOO_FEW_BOARDS.format(args.boards))
    boards = tuple(args.boards) if args.boards else (
        SMOKE_BOARDS if args.smoke else FULL_BOARDS
    )
    tasks_per_board = args.tasks_per_board or (
        SMOKE_TASKS_PER_BOARD if args.smoke else FULL_TASKS_PER_BOARD
    )
    report = run_bench(
        boards=boards, tasks_per_board=tasks_per_board, output=args.output
    )
    for point in report["points"]:
        print(
            f"{point['boards']:>5} boards / {point['tasks']:>6} tasks: "
            f"{point['wall_s']:.2f}s, {point['events_per_s']:.0f} events/s, "
            f"{point['probes_per_search']:.2f} probes/search, "
            f"{point['parked_passes']} parked passes, schedule "
            f"{point['schedule_digest'][:12]}"
        )
    gate = report["gate"]
    print(
        f"gate: {'PASS' if gate['pass'] else 'FAIL'} "
        f"(probe growth {gate['probe_growth']:.2f}x vs board growth "
        f"{gate['board_growth']:.0f}x)"
    )
    print(f"report written to {args.output}")


if __name__ == "__main__":  # pragma: no cover - manual driver
    main()
