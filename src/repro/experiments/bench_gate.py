"""CI bench regression gate: compare a fresh smoke ``BENCH_fig12.json``
against the committed baseline and fail on real slowdowns.

Wall-clock is the gating metric: more than ``--tolerance`` (default 25%)
over the baseline fails the build — generous enough to absorb shared-runner
noise, tight enough to catch an accidentally re-quadratic allocator.  The
deterministic work counters (placement attempts, DES events) are compared
exactly but only *warn* on drift: a drift there is intentional behaviour
change territory, and the golden tests — not this gate — decide whether it
is correct.  Refresh the baseline when a PR legitimately changes the
counters or the smoke workload::

    PYTHONPATH=src python -m repro.experiments.bench_fig12 --smoke \
        --output benchmarks/baselines/BENCH_fig12_smoke.json

The gate also (optionally, via ``--serving-current``) checks the serving
smoke report: the overload gate point must still pass, and its
admitted-request SLO attainment may not drop more than 5 percentage
points below the committed baseline.  Refresh that baseline with::

    PYTHONPATH=src python -m repro.experiments.bench_serving --smoke \
        --output benchmarks/baselines/BENCH_serving_smoke.json

And (optionally, via ``--batch-current``) the batched-simulation smoke
report: batched outputs must stay bit-identical to scalar, the gate
point's speedup floor must hold, and the measured batched-vs-scalar
speedup may not drop more than 25% below the committed baseline.  The
speedup is a within-run ratio, so this gate is insensitive to absolute
runner speed.  Refresh with::

    PYTHONPATH=src python -m repro.experiments.bench_batch --smoke \
        --output benchmarks/baselines/BENCH_batch_smoke.json

And (optionally, via ``--scale-current``) the cluster-scale smoke report:
every point's schedule digest must equal the baseline's, board probes
per placement search must keep growing
sub-linearly in board count, and the largest point's wall-clock gets the
same ``--tolerance`` bound as the fig12 gate.  Refresh with::

    PYTHONPATH=src python -m repro.experiments.bench_scale --smoke \
        --output benchmarks/baselines/BENCH_scale_smoke.json

And (optionally, via ``--autoscale-current``) the elastic-autoscaling
smoke report: every trace's own gate must still pass (SLO within its
margin of the static-peak arm, replica-second savings at or above the
absolute floor), and the measured savings may not regress more than 25%
below the committed baseline.  Savings are a within-run ratio of the two
arms, so this gate is insensitive to absolute runner speed.  Refresh
with::

    PYTHONPATH=src python -m repro.experiments.bench_autoscale --smoke \
        --output benchmarks/baselines/BENCH_autoscale_smoke.json

And (optionally, via ``--tenancy-current``) the multi-tenancy smoke
report: the tenancy arm's own gate must still pass (zero quota
violations, premium p99 within its solo-run bound, every preempted task
recovered), and the premium tenant's mixed-arm p99 may not regress more
than 25% over the committed baseline.  Refresh with::

    PYTHONPATH=src python -m repro.experiments.bench_tenancy --smoke \
        --output benchmarks/baselines/BENCH_tenancy_smoke.json

``--all-current`` runs every gate at once against the default produced
report names (``BENCH_fig12.json``, ``BENCH_serving.json``,
``BENCH_batch.json``, ``BENCH_scale.json``, ``BENCH_autoscale.json``,
``BENCH_tenancy.json``) and the committed baselines — the single CI
entry point.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

DEFAULT_BASELINE = "benchmarks/baselines/BENCH_fig12_smoke.json"
DEFAULT_TOLERANCE = 0.25

SERVING_BASELINE = "benchmarks/baselines/BENCH_serving_smoke.json"
#: Allowed drop in admitted-request SLO attainment at the gate point
#: (5 percentage points).
SLO_DROP_TOLERANCE = 0.05

BATCH_BASELINE = "benchmarks/baselines/BENCH_batch_smoke.json"
#: Allowed fractional drop in batched-vs-scalar speedup at the gate batch.
BATCH_SPEEDUP_DROP_TOLERANCE = 0.25

SCALE_BASELINE = "benchmarks/baselines/BENCH_scale_smoke.json"

AUTOSCALE_BASELINE = "benchmarks/baselines/BENCH_autoscale_smoke.json"
#: Allowed fractional drop in replica-second savings vs the baseline.
AUTOSCALE_SAVINGS_DROP_TOLERANCE = 0.25

TENANCY_BASELINE = "benchmarks/baselines/BENCH_tenancy_smoke.json"
#: Allowed fractional growth of the premium tenant's mixed-arm p99 over
#: the committed baseline.
TENANCY_P99_DRIFT_TOLERANCE = 0.25

#: ``--all-current`` shorthand: every gate's default produced report.
ALL_CURRENT_DEFAULTS = {
    "current": "BENCH_fig12.json",
    "serving_current": "BENCH_serving.json",
    "batch_current": "BENCH_batch.json",
    "scale_current": "BENCH_scale.json",
    "autoscale_current": "BENCH_autoscale.json",
    "tenancy_current": "BENCH_tenancy.json",
}

#: Deterministic work counters (exact comparison, warnings only).
COUNTER_KEYS = (
    "find_placement_calls",
    "deploy_calls",
    "fast_rejects",
    "try_start_attempts",
    "watermark_skips",
)


def compare(current: dict, baseline: dict, tolerance: float) -> tuple:
    """Returns ``(failures, warnings)`` message lists."""
    failures: list = []
    warnings: list = []
    if current["scale"] != baseline["scale"]:
        failures.append(
            f"scale mismatch: current {current['scale']} vs baseline "
            f"{baseline['scale']} — comparing different workloads"
        )
        return failures, warnings
    base_wall = baseline["wall_s"]["after"]
    cur_wall = current["wall_s"]["after"]
    ratio = cur_wall / base_wall if base_wall else float("inf")
    if ratio > 1.0 + tolerance:
        failures.append(
            f"wall-clock regression: {cur_wall:.2f}s vs baseline "
            f"{base_wall:.2f}s ({ratio:.2f}x, tolerance "
            f"{1.0 + tolerance:.2f}x)"
        )
    else:
        warnings.append(
            f"wall-clock: {cur_wall:.2f}s vs baseline {base_wall:.2f}s "
            f"({ratio:.2f}x) — within tolerance"
        )
    for key in COUNTER_KEYS:
        cur = current["placement"].get(key)
        base = baseline["placement"].get(key)
        if cur != base:
            warnings.append(
                f"counter drift: placement.{key} {base} -> {cur} "
                f"(behaviour change — the golden tests arbitrate)"
            )
    if current.get("events") != baseline.get("events"):
        warnings.append(
            f"counter drift: simulator events "
            f"{baseline.get('events')} -> {current.get('events')}"
        )
    return failures, warnings


def compare_serving(
    current: dict, baseline: dict, slo_tolerance: float = SLO_DROP_TOLERANCE
) -> tuple:
    """SLO-attainment gate on the serving smoke report: ``(failures,
    warnings)``.  Fails when the overload gate point no longer passes or
    its SLO attainment regressed more than ``slo_tolerance`` below the
    committed baseline; latency/shed drift only warns (the bench's own
    ``gate.pass`` bounds the absolutes)."""
    failures: list = []
    warnings: list = []
    cur_work = current["workload"]
    base_work = baseline["workload"]
    if cur_work["task_count"] != base_work["task_count"]:
        failures.append(
            f"serving scale mismatch: current {cur_work['task_count']} "
            f"tasks vs baseline {base_work['task_count']} — comparing "
            f"different workloads"
        )
        return failures, warnings
    cur_gate = current["gate"]
    base_gate = baseline["gate"]
    if not cur_gate["pass"]:
        failures.append(
            f"serving gate point failed outright: SLO "
            f"{cur_gate['slo_admitted']:.3f} (floor "
            f"{cur_gate['slo_floor']}), p99 "
            f"{cur_gate['p99_latency_s'] * 1e3:.1f} ms (bound "
            f"{cur_gate['p99_bound_s'] * 1e3:.0f} ms)"
        )
    drop = base_gate["slo_admitted"] - cur_gate["slo_admitted"]
    if drop > slo_tolerance:
        failures.append(
            f"serving SLO regression: attainment "
            f"{cur_gate['slo_admitted']:.3f} vs baseline "
            f"{base_gate['slo_admitted']:.3f} "
            f"({drop * 100:.1f} pp drop, tolerance "
            f"{slo_tolerance * 100:.0f} pp)"
        )
    else:
        warnings.append(
            f"serving SLO: {cur_gate['slo_admitted']:.3f} vs baseline "
            f"{base_gate['slo_admitted']:.3f} — within tolerance"
        )
    if cur_gate["p99_latency_s"] > 1.25 * base_gate["p99_latency_s"]:
        warnings.append(
            f"serving p99 drift: {cur_gate['p99_latency_s'] * 1e3:.1f} ms "
            f"vs baseline {base_gate['p99_latency_s'] * 1e3:.1f} ms "
            f"(still inside the gate's absolute bound)"
        )
    return failures, warnings


def compare_batch(
    current: dict,
    baseline: dict,
    drop_tolerance: float = BATCH_SPEEDUP_DROP_TOLERANCE,
) -> tuple:
    """Batched-throughput regression gate: ``(failures, warnings)``.

    Hard failures: any non-bit-identical point (the batched path's
    correctness contract), the gate point's absolute speedup floor no
    longer holding, or a per-model speedup more than ``drop_tolerance``
    below the committed baseline.
    """
    failures: list = []
    warnings: list = []
    cur_scale = current["scale"]
    base_scale = baseline["scale"]
    if (
        cur_scale["requests"] != base_scale["requests"]
        or cur_scale["models"] != base_scale["models"]
    ):
        failures.append(
            f"batch scale mismatch: current {cur_scale} vs baseline "
            f"{base_scale} — comparing different workloads"
        )
        return failures, warnings
    cur_gate = current["gate"]
    base_gate = baseline["gate"]
    if not cur_gate["bit_identical"]:
        failures.append(
            "batched outputs no longer bit-identical to the scalar "
            "simulator (see the report's per-point bit_identical flags)"
        )
    if not cur_gate["pass"]:
        failures.append(
            f"batch gate point failed outright: speedups "
            f"{cur_gate['speedups']} (floor {cur_gate['speedup_floor']}x "
            f"at batch {cur_gate['batch']})"
        )
    for model, base_speedup in base_gate["speedups"].items():
        cur_speedup = cur_gate["speedups"].get(model)
        if cur_speedup is None:
            failures.append(f"batch gate lost model {model}")
            continue
        floor = base_speedup * (1.0 - drop_tolerance)
        if cur_speedup < floor:
            failures.append(
                f"batched speedup regression on {model}: "
                f"{cur_speedup:.2f}x vs baseline {base_speedup:.2f}x "
                f"(floor {floor:.2f}x at {drop_tolerance * 100:.0f}% drop)"
            )
        else:
            warnings.append(
                f"batched speedup on {model}: {cur_speedup:.2f}x vs "
                f"baseline {base_speedup:.2f}x — within tolerance"
            )
    return failures, warnings


def compare_scale(
    current: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> tuple:
    """Cluster-scale regression gate: ``(failures, warnings)``.

    Hard failures: scale mismatch, any schedule digest differing from the
    baseline's at the same board count (schedules must stay
    bit-identical), a sub-linearity gate failure, or the largest point's
    wall-clock exceeding the baseline by more than ``tolerance``.
    Per-point probe and event drift only warns (deterministic counters;
    the equivalence tests arbitrate behaviour changes)."""
    failures: list = []
    warnings: list = []
    if current["scale"] != baseline["scale"]:
        failures.append(
            f"scale-bench mismatch: current {current['scale']} vs baseline "
            f"{baseline['scale']} — comparing different sweeps"
        )
        return failures, warnings
    cur_gate = current["gate"]
    # Equal "scale" blocks mean equal board counts, point for point.
    for point, base_point in zip(current["points"], baseline["points"]):
        cur = point["schedule_digest"]
        base = base_point["schedule_digest"]
        if cur != base:
            failures.append(
                f"schedule digest changed at {point['boards']} boards: "
                f"{cur[:12]} vs baseline {base[:12]} (schedules must stay "
                f"bit-identical)"
            )
    if not cur_gate["sublinear"]:
        failures.append(
            f"probe growth no longer sub-linear: {cur_gate['probe_growth']:.2f}x "
            f"probes vs {cur_gate['board_growth']:.0f}x boards (allowed "
            f"fraction {cur_gate['sublinear_fraction']})"
        )
    cur_wall = current["points"][-1]["wall_s"]
    base_wall = baseline["points"][-1]["wall_s"]
    ratio = cur_wall / base_wall if base_wall else float("inf")
    if ratio > 1.0 + tolerance:
        failures.append(
            f"scale wall-clock regression at "
            f"{current['points'][-1]['boards']} boards: {cur_wall:.2f}s vs "
            f"baseline {base_wall:.2f}s ({ratio:.2f}x, tolerance "
            f"{1.0 + tolerance:.2f}x)"
        )
    else:
        warnings.append(
            f"scale wall-clock: {cur_wall:.2f}s vs baseline "
            f"{base_wall:.2f}s ({ratio:.2f}x) — within tolerance"
        )
    for cur_point, base_point in zip(current["points"], baseline["points"]):
        for key in ("placement_searches", "boards_probed", "events"):
            cur = cur_point.get(key)
            base = base_point.get(key)
            if cur != base:
                warnings.append(
                    f"counter drift at {cur_point['boards']} boards: "
                    f"{key} {base} -> {cur} (behaviour change — the "
                    f"equivalence tests arbitrate)"
                )
    return failures, warnings


def compare_autoscale(
    current: dict,
    baseline: dict,
    drop_tolerance: float = AUTOSCALE_SAVINGS_DROP_TOLERANCE,
) -> tuple:
    """Elastic-autoscaling regression gate: ``(failures, warnings)``.

    Hard failures: workload mismatch, any trace whose own gate no longer
    passes (SLO fell more than the bench's margin below the static-peak
    arm, or replica-second savings dipped under the absolute floor), or a
    trace's savings more than ``drop_tolerance`` below the committed
    baseline.  SLO-delta drift inside the margin only warns.
    """
    failures: list = []
    warnings: list = []
    cur_work = current["workload"]
    base_work = baseline["workload"]
    if (
        cur_work["task_count"] != base_work["task_count"]
        or cur_work["traces"] != base_work["traces"]
    ):
        failures.append(
            f"autoscale scale mismatch: current {cur_work['task_count']} "
            f"tasks over {cur_work['traces']} vs baseline "
            f"{base_work['task_count']} over {base_work['traces']} — "
            f"comparing different workloads"
        )
        return failures, warnings
    cur_gate = current["gate"]
    base_gate = baseline["gate"]
    for trace, base_point in base_gate["per_trace"].items():
        cur_point = cur_gate["per_trace"].get(trace)
        if cur_point is None:
            failures.append(f"autoscale gate lost trace {trace}")
            continue
        if not cur_point["pass"]:
            failures.append(
                f"autoscale gate failed outright on {trace}: dSLO "
                f"{cur_point['slo_delta_pp']:.2f} pp (margin "
                f"{cur_gate['slo_margin_pp']} pp), savings "
                f"{cur_point['replica_second_savings']:.1%} (floor "
                f"{cur_gate['savings_floor']:.0%})"
            )
            continue
        base_savings = base_point["replica_second_savings"]
        cur_savings = cur_point["replica_second_savings"]
        floor = base_savings * (1.0 - drop_tolerance)
        if cur_savings < floor:
            failures.append(
                f"autoscale savings regression on {trace}: "
                f"{cur_savings:.1%} vs baseline {base_savings:.1%} "
                f"(floor {floor:.1%} at {drop_tolerance * 100:.0f}% drop)"
            )
        else:
            warnings.append(
                f"autoscale savings on {trace}: {cur_savings:.1%} vs "
                f"baseline {base_savings:.1%}, dSLO "
                f"{cur_point['slo_delta_pp']:.2f} pp — within tolerance"
            )
    return failures, warnings


def compare_tenancy(
    current: dict,
    baseline: dict,
    drift_tolerance: float = TENANCY_P99_DRIFT_TOLERANCE,
) -> tuple:
    """Multi-tenancy regression gate: ``(failures, warnings)``.

    Hard failures: workload mismatch, any quota violation (the ledger's
    per-tenant peak resident usage exceeded a quota — the layer's
    zero-violation contract), the bench's own gate no longer passing
    (premium p99 out of its solo-run bound, or a preempted task never
    completing), or the premium tenant's mixed-arm p99 more than
    ``drift_tolerance`` above the committed baseline.  Preemption-count
    drift only warns (deterministic counters; the tenancy tests
    arbitrate behaviour changes).

    Unlike the other gates, a workload mismatch is not fatal: the
    zero-violation / recovery / p99-bound checks are intrinsic to the
    run (each arm carries its own solo reference), so the nightly
    full-scale report is gated on those and only the baseline-drift
    comparison is skipped, with a warning."""
    failures: list = []
    warnings: list = []
    cur_work = current["workload"]
    base_work = baseline["workload"]
    same_workload = (
        cur_work["task_count"] == base_work["task_count"]
        and cur_work["boards"] == base_work["boards"]
    )
    if not same_workload:
        warnings.append(
            f"tenancy workload differs from baseline: "
            f"{cur_work['task_count']} tasks on {cur_work['boards']} "
            f"boards vs baseline {base_work['task_count']} on "
            f"{base_work['boards']} — intrinsic checks only, baseline "
            f"drift comparison skipped"
        )
    cur_gate = current["gate"]
    base_gate = baseline["gate"]
    if cur_gate["quota_violations"]:
        failures.append(
            f"tenant quota violated: {cur_gate['quota_violations']} "
            f"(the quota guard's zero-violation contract is broken)"
        )
    if cur_gate["recovery_rate"] < 1.0:
        failures.append(
            f"preempted work lost: recovery rate "
            f"{cur_gate['recovery_rate']:.3f} < 1.0 "
            f"({cur_gate['tasks_preempted']} preemptions)"
        )
    if not cur_gate["pass"]:
        failures.append(
            f"tenancy gate point failed outright: premium p99 "
            f"{cur_gate['premium_mixed_p99_s'] * 1e3:.2f} ms vs solo "
            f"{cur_gate['premium_solo_p99_s'] * 1e3:.2f} ms "
            f"(bound {cur_gate['p99_bound_factor']:g}x)"
        )
    if not same_workload:
        return failures, warnings
    base_p99 = base_gate["premium_mixed_p99_s"]
    cur_p99 = cur_gate["premium_mixed_p99_s"]
    ceiling = base_p99 * (1.0 + drift_tolerance)
    if base_p99 and cur_p99 > ceiling:
        failures.append(
            f"premium p99 regression: {cur_p99 * 1e3:.2f} ms vs baseline "
            f"{base_p99 * 1e3:.2f} ms (ceiling {ceiling * 1e3:.2f} ms at "
            f"{drift_tolerance * 100:.0f}% drift)"
        )
    else:
        warnings.append(
            f"tenancy premium p99: {cur_p99 * 1e3:.2f} ms vs baseline "
            f"{base_p99 * 1e3:.2f} ms — within tolerance"
        )
    cur_tenancy = current["mixed_tenancy"]["tenancy"]
    base_tenancy = baseline["mixed_tenancy"]["tenancy"]
    for key in ("preemption_sweeps", "tasks_preempted", "quota_sheds"):
        if cur_tenancy.get(key) != base_tenancy.get(key):
            warnings.append(
                f"counter drift: tenancy.{key} "
                f"{base_tenancy.get(key)} -> {cur_tenancy.get(key)} "
                f"(behaviour change — the tenancy tests arbitrate)"
            )
    return failures, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", default="BENCH_fig12.json",
                        help="freshly produced smoke report (pass an empty "
                        "string to skip the fig12 gate, e.g. when gating a "
                        "full-scale report that has no smoke counterpart)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="committed reference report")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional wall-clock slowdown "
                        "(default 0.25)")
    parser.add_argument("--serving-current", default=None,
                        help="freshly produced serving smoke report "
                        "(omit to skip the serving gate)")
    parser.add_argument("--serving-baseline", default=SERVING_BASELINE,
                        help="committed serving reference report")
    parser.add_argument("--batch-current", default=None,
                        help="freshly produced batched-simulation smoke "
                        "report (omit to skip the batch gate)")
    parser.add_argument("--batch-baseline", default=BATCH_BASELINE,
                        help="committed batched-simulation reference report")
    parser.add_argument("--scale-current", default=None,
                        help="freshly produced cluster-scale smoke report "
                        "(omit to skip the scale gate)")
    parser.add_argument("--scale-baseline", default=SCALE_BASELINE,
                        help="committed cluster-scale reference report")
    parser.add_argument("--autoscale-current", default=None,
                        help="freshly produced autoscaling smoke report "
                        "(omit to skip the autoscale gate)")
    parser.add_argument("--autoscale-baseline", default=AUTOSCALE_BASELINE,
                        help="committed autoscaling reference report")
    parser.add_argument("--tenancy-current", default=None,
                        help="freshly produced multi-tenancy smoke report "
                        "(omit to skip the tenancy gate)")
    parser.add_argument("--tenancy-baseline", default=TENANCY_BASELINE,
                        help="committed multi-tenancy reference report")
    parser.add_argument("--all-current", action="store_true",
                        help="run every gate against the default produced "
                        "report names and committed baselines (the single "
                        "CI entry point)")
    args = parser.parse_args(argv)
    if args.all_current:
        for attr, default in ALL_CURRENT_DEFAULTS.items():
            if getattr(args, attr) in (None, parser.get_default(attr)):
                setattr(args, attr, default)
    failures: list = []
    warnings: list = []
    if args.current:
        current = json.loads(pathlib.Path(args.current).read_text())
        baseline = json.loads(pathlib.Path(args.baseline).read_text())
        failures, warnings = compare(current, baseline, args.tolerance)
    if args.serving_current:
        serving_current = json.loads(
            pathlib.Path(args.serving_current).read_text()
        )
        serving_baseline = json.loads(
            pathlib.Path(args.serving_baseline).read_text()
        )
        serving_failures, serving_warnings = compare_serving(
            serving_current, serving_baseline
        )
        failures.extend(serving_failures)
        warnings.extend(serving_warnings)
    if args.batch_current:
        batch_current = json.loads(pathlib.Path(args.batch_current).read_text())
        batch_baseline = json.loads(
            pathlib.Path(args.batch_baseline).read_text()
        )
        batch_failures, batch_warnings = compare_batch(
            batch_current, batch_baseline
        )
        failures.extend(batch_failures)
        warnings.extend(batch_warnings)
    if args.scale_current:
        scale_current = json.loads(pathlib.Path(args.scale_current).read_text())
        scale_baseline = json.loads(
            pathlib.Path(args.scale_baseline).read_text()
        )
        scale_failures, scale_warnings = compare_scale(
            scale_current, scale_baseline, args.tolerance
        )
        failures.extend(scale_failures)
        warnings.extend(scale_warnings)
    if args.autoscale_current:
        autoscale_current = json.loads(
            pathlib.Path(args.autoscale_current).read_text()
        )
        autoscale_baseline = json.loads(
            pathlib.Path(args.autoscale_baseline).read_text()
        )
        autoscale_failures, autoscale_warnings = compare_autoscale(
            autoscale_current, autoscale_baseline
        )
        failures.extend(autoscale_failures)
        warnings.extend(autoscale_warnings)
    if args.tenancy_current:
        tenancy_current = json.loads(
            pathlib.Path(args.tenancy_current).read_text()
        )
        tenancy_baseline = json.loads(
            pathlib.Path(args.tenancy_baseline).read_text()
        )
        tenancy_failures, tenancy_warnings = compare_tenancy(
            tenancy_current, tenancy_baseline
        )
        failures.extend(tenancy_failures)
        warnings.extend(tenancy_warnings)
    for message in warnings:
        print(f"[warn] {message}")
    for message in failures:
        print(f"[FAIL] {message}")
    if failures:
        return 1
    print("bench gate: OK")
    return 0


if __name__ == "__main__":  # pragma: no cover - CI driver
    sys.exit(main())
