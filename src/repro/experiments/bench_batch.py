"""Benchmark driver for batched functional simulation.

Sweeps batch size × model over identical-deployment request groups and
measures *requests per wall-second* through the scalar
:class:`~repro.accel.functional.FunctionalSimulator` versus the batched
:mod:`repro.accel.batched` path, verifying bit-identical outputs at every
point (the batched path's contract, not a tolerance check).  Emits
``BENCH_batch.json``.  Regenerate with::

    PYTHONPATH=src python -m repro.experiments.bench_batch           # full
    PYTHONPATH=src python -m repro.experiments.bench_batch --smoke   # CI

The acceptance gate lives in the report's ``gate`` block: at the gate
batch size (8) the batched path must clear a >= 5x speedup over the
scalar simulator on every swept model.  The CI regression gate
(:mod:`repro.experiments.bench_gate`) compares the measured *speedup
ratio* against the committed smoke baseline — a within-run ratio, so the
gate is insensitive to absolute runner speed.  Each arm is timed as the
median of :data:`REPEATS` runs, and every run's outputs are checked, so
one noisy scalar run cannot move the gated ratio on its own.

Run as a module, the bench pins the BLAS thread pools to one thread (as
``benchmarks/e2e/run.py`` does for its workers) so both arms measure the
program rather than a small host's thread scheduler.  The package imports
numpy before the module body runs, so an unpinned invocation re-executes
itself with the pin; the report's ``thread_env`` records what the run saw.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

import numpy as np

from ..accel.batched import run_batched
from ..accel.codegen import OUT_BASE, make_codegen
from ..accel.functional import FunctionalSimulator, WeightImage
from ..isa.progcache import PROGRAM_CACHE
from ..runtime.batching import WEIGHT_SEED
from ..workloads.deepbench import model_by_key

#: Two model configurations (the acceptance criterion's minimum); both are
#: members of the serving stream in ``bench_serving``.
MODELS = ("lstm-h256-t150", "lstm-h512-t25")

FULL_BATCH_SIZES = (1, 2, 4, 8, 16, 32)
SMOKE_BATCH_SIZES = (1, 8)

#: Requests measured per (model, batch) point.
FULL_REQUESTS = 32
SMOKE_REQUESTS = 8

#: The gate point and its floor: >= 5x at batch 8 (target 10x).
GATE_BATCH = 8
GATE_SPEEDUP_FLOOR = 5.0

#: Timed runs per arm (scalar, and each batch size); the median wall time
#: is reported.
REPEATS = 5

INPUT_SEED = 1234

#: BLAS / OpenMP thread pools pinned to one thread for a module run.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _payloads(spec, count: int) -> list:
    rng = np.random.default_rng(INPUT_SEED)
    return [
        rng.normal(0.0, 1.0, (spec.timesteps, spec.effective_input_dim))
        for _ in range(count)
    ]


def _run_scalar(spec, gen, program, payloads: list) -> tuple:
    """(outputs, wall_s): one full scalar simulation per request, DRAM
    image and all — the per-request serving cost the batched path
    amortises."""
    outputs = []
    start = time.perf_counter()
    for xs in payloads:
        sim = FunctionalSimulator(program)
        gen.preload(sim, xs)
        sim.run()
        outputs.append(sim.dram.read(OUT_BASE, spec.hidden))
    return outputs, time.perf_counter() - start


def _run_batched(spec, gen, program, payloads: list, batch: int) -> tuple:
    """(outputs, wall_s, inexact_lanes, streamed_mv_muls): requests in
    ``batch``-wide groups (the final group may be narrower), with the
    lanes that failed the ``MV_MUL`` exactness certificate and ran the
    per-lane dgemv, and the ``MV_MUL``s that installed a product
    precomputed at loop entry."""
    outputs = []
    inexact = streamed = 0
    start = time.perf_counter()
    for begin in range(0, len(payloads), batch):
        group = payloads[begin : begin + batch]
        lanes = run_batched(
            program,
            [
                (lambda xs: (lambda view: gen.preload_inputs(view, xs)))(xs)
                for xs in group
            ],
            image=WeightImage.build(gen.preload_weights),
        )
        for index in range(len(group)):
            outputs.append(lanes.lane_dram_read(index, OUT_BASE, spec.hidden))
        inexact += lanes.sim.inexact_lanes
        streamed += lanes.sim.streamed_mv_muls
    return outputs, time.perf_counter() - start, inexact, streamed


def run_model(model_key: str, batch_sizes, requests: int) -> dict:
    """Sweep batch sizes for one model; returns its report block."""
    spec = model_by_key(model_key)
    weights = spec.real_weights(seed=WEIGHT_SEED)
    gen = make_codegen(spec.kind, weights, spec.timesteps)
    program = gen.build()
    payloads = _payloads(spec, requests)
    scalar_runs = [
        _run_scalar(spec, gen, program, payloads) for _ in range(REPEATS)
    ]
    scalar_outputs = scalar_runs[0][0]

    def matches(outputs) -> bool:
        return all(
            np.array_equal(got, want)
            for got, want in zip(outputs, scalar_outputs)
        )

    # The scalar simulator is the reference: its repeats must agree too.
    scalar_stable = all(matches(outputs) for outputs, _ in scalar_runs)
    scalar_wall = statistics.median(wall for _, wall in scalar_runs)
    scalar_rate = requests / scalar_wall
    points = []
    for batch in batch_sizes:
        runs = [
            _run_batched(spec, gen, program, payloads, batch)
            for _ in range(REPEATS)
        ]
        identical = scalar_stable and all(matches(run[0]) for run in runs)
        wall = statistics.median(run[1] for run in runs)
        inexact = max(run[2] for run in runs)
        rate = requests / wall
        points.append(
            {
                "batch": batch,
                "requests": requests,
                "wall_s": wall,
                "requests_per_s": rate,
                "speedup": rate / scalar_rate,
                "bit_identical": identical,
                "fallback_lanes": inexact,
                "streamed_mv_muls": max(run[3] for run in runs),
            }
        )
    return {
        "model": model_key,
        "hidden": spec.hidden,
        "timesteps": spec.timesteps,
        "scalar": {
            "requests": requests,
            "wall_s": scalar_wall,
            "requests_per_s": scalar_rate,
        },
        "points": points,
    }


def run_bench(
    batch_sizes=FULL_BATCH_SIZES,
    requests: int = FULL_REQUESTS,
    output: str | pathlib.Path = "BENCH_batch.json",
) -> dict:
    """Full batch × model sweep; writes and returns the report."""
    PROGRAM_CACHE.clear()
    PROGRAM_CACHE.reset_stats()
    models = [run_model(key, batch_sizes, requests) for key in MODELS]
    # Exercise the decoded-program cache the way repeat deployments do.
    for key in MODELS:
        for _ in range(3):
            model_by_key(key).program()
    gate_speedups = {}
    identical = True
    for block in models:
        point = next(
            (p for p in block["points"] if p["batch"] == GATE_BATCH), None
        )
        if point is not None:
            gate_speedups[block["model"]] = point["speedup"]
        identical = identical and all(p["bit_identical"] for p in block["points"])
    gate_pass = (
        identical
        and len(gate_speedups) == len(MODELS)
        and all(s >= GATE_SPEEDUP_FLOOR for s in gate_speedups.values())
    )
    report = {
        "scale": {
            "requests": requests,
            "repeats": REPEATS,
            "batch_sizes": list(batch_sizes),
            "models": list(MODELS),
            "weight_seed": WEIGHT_SEED,
            "input_seed": INPUT_SEED,
        },
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "models": models,
        "program_cache": PROGRAM_CACHE.stats(),
        "gate": {
            "batch": GATE_BATCH,
            "speedup_floor": GATE_SPEEDUP_FLOOR,
            "speedups": gate_speedups,
            "bit_identical": identical,
            "pass": gate_pass,
        },
    }
    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=1) + "\n")
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=FULL_REQUESTS)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI scale: {SMOKE_REQUESTS} requests, batches "
        f"{SMOKE_BATCH_SIZES}",
    )
    parser.add_argument("--output", default="BENCH_batch.json")
    args = parser.parse_args(argv)
    batch_sizes = SMOKE_BATCH_SIZES if args.smoke else FULL_BATCH_SIZES
    requests = SMOKE_REQUESTS if args.smoke else args.requests
    report = run_bench(batch_sizes=batch_sizes, requests=requests,
                       output=args.output)
    for block in report["models"]:
        scalar = block["scalar"]
        print(
            f"{block['model']}: scalar {scalar['requests_per_s']:.1f} req/s"
        )
        for point in block["points"]:
            flag = "" if point["bit_identical"] else "  OUTPUT MISMATCH"
            print(
                f"  batch {point['batch']:>3}: "
                f"{point['requests_per_s']:.1f} req/s "
                f"({point['speedup']:.2f}x, {point['streamed_mv_muls']} "
                f"streamed MV_MULs){flag}"
            )
    cache = report["program_cache"]
    print(
        f"program cache: {cache['hits']} hits / {cache['misses']} misses "
        f"({cache['entries']} entries)"
    )
    gate = report["gate"]
    speedups = ", ".join(
        f"{key} {value:.2f}x" for key, value in gate["speedups"].items()
    )
    print(
        f"gate (batch {gate['batch']}, floor {gate['speedup_floor']:g}x): "
        f"{speedups} -> {'PASS' if gate['pass'] else 'FAIL'}"
    )
    print(f"report written to {args.output}")


if __name__ == "__main__":  # pragma: no cover - manual driver
    if any(os.environ.get(name) != "1" for name in THREAD_ENV):
        os.execve(
            sys.executable,
            [sys.executable, "-m", __spec__.name, *sys.argv[1:]],
            {**os.environ, **dict.fromkeys(THREAD_ENV, "1")},
        )
    main()
