"""Benchmark driver for the Fig. 12 runtime hot path.

Runs :func:`~repro.experiments.fig12.run_fig12` and emits
``BENCH_fig12.json`` — wall-clock, DES event count and placement-attempt
counters (summed from every run's simulator and controller stats) plus the
throughput rows — so allocator/DES regressions show up as numbers across
PRs instead of anecdotes.

The recorded reference point is the pre-index implementation (per-event
cluster rescans, ``sum(...)``-genexpr free-block counts): 125.3 s of
wall-clock and 2.2 M ``_find_placement`` calls for the full-scale run on
the same machine class.  Regenerate with::

    PYTHONPATH=src python -m repro.experiments.bench_fig12           # full
    PYTHONPATH=src python -m repro.experiments.bench_fig12 --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time
from collections import Counter

from ..workloads import TABLE1_COMPOSITIONS
from .fig12 import average_speedups, run_fig12

#: Full-scale wall-clock of the pre-overhaul runtime on the dev box, kept as
#: the fixed "before" reference the JSON reports speedup against.
BASELINE_FULL_WALL_S = 125.28
#: `_find_placement` call count of the pre-overhaul runtime at full scale.
BASELINE_FIND_PLACEMENT_CALLS = 2_200_000

#: Reduced scale for CI smoke runs (same compositions, shorter streams).
SMOKE_TASK_COUNT = 30
SMOKE_SEEDS = (1,)


def run_bench(
    task_count: int = 150,
    seeds=(1, 2, 3),
    compositions=TABLE1_COMPOSITIONS,
    output: str | pathlib.Path = "BENCH_fig12.json",
) -> dict:
    """Run the Fig. 12 experiment once; write and return the report."""
    start = time.perf_counter()
    rows = run_fig12(
        compositions=compositions, task_count=task_count, seeds=seeds
    )
    wall_s = time.perf_counter() - start
    counters = sum((row.counters for row in rows), Counter())
    full_scale = task_count == 150 and tuple(seeds) == (1, 2, 3) and len(
        compositions
    ) == len(TABLE1_COMPOSITIONS)
    vs_baseline, vs_restricted = average_speedups(rows)
    report = {
        "scale": {
            "task_count": task_count,
            "seeds": list(seeds),
            "compositions": len(compositions),
            "full_scale": full_scale,
        },
        "wall_s": {
            "before": BASELINE_FULL_WALL_S if full_scale else None,
            "after": wall_s,
            "speedup": BASELINE_FULL_WALL_S / wall_s if full_scale else None,
        },
        "events": counters["events"],
        "placement": {
            "find_placement_calls": counters["placement_searches"],
            "find_placement_calls_before": (
                BASELINE_FIND_PLACEMENT_CALLS if full_scale else None
            ),
            "deploy_calls": counters["deploy_calls"],
            "fast_rejects": counters["fast_rejects"],
            "try_start_attempts": counters["try_start_attempts"],
            "watermark_skips": counters["watermark_skips"],
        },
        "throughput_rows": [
            {
                "set": row.composition.index,
                "composition": row.composition.describe(),
                "throughput": dict(row.throughput),
                "speedup_vs_baseline": row.speedup_vs_baseline,
                "speedup_vs_restricted": row.speedup_vs_restricted,
            }
            for row in rows
        ],
        "average_speedups": {
            "vs_baseline": vs_baseline,
            "vs_restricted": vs_restricted,
        },
    }
    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=1) + "\n")
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tasks", type=int, default=150)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI scale: {SMOKE_TASK_COUNT} tasks, seed {SMOKE_SEEDS}",
    )
    parser.add_argument("--output", default="BENCH_fig12.json")
    args = parser.parse_args(argv)
    task_count = SMOKE_TASK_COUNT if args.smoke else args.tasks
    seeds = SMOKE_SEEDS if args.smoke else tuple(args.seeds)
    report = run_bench(task_count=task_count, seeds=seeds, output=args.output)
    wall = report["wall_s"]
    print(
        f"fig12 wall-clock: {wall['after']:.2f}s"
        + (
            f" ({wall['speedup']:.1f}x vs {wall['before']:.1f}s baseline)"
            if wall["speedup"]
            else ""
        )
    )
    print(
        "placement attempts: "
        f"{report['placement']['find_placement_calls']} find_placement, "
        f"{report['placement']['watermark_skips']} watermark skips"
    )
    print(f"report written to {args.output}")


if __name__ == "__main__":  # pragma: no cover - manual driver
    main()
