"""CI bench regression gate: one comparator over a declarative check table.

Each bench writes ``BENCH_<gate>.json`` into the working directory; the
gate checks every row of :data:`TABLE` for the named gates (all of them by
default) and exits 1 when a hard row fails::

    PYTHONPATH=src python -m repro.experiments.bench_gate            # all
    PYTHONPATH=src python -m repro.experiments.bench_gate tenancy    # one

A row is ``(gate, path, check, tolerance, level)``.  ``path`` is dotted;
``*`` fans out over dict keys or list items and ``-1`` is a list's last
item.  ``check`` is one of :data:`CHECKS`: ``true``, ``zero``,
``at_least`` and ``above`` look at the report alone; ``equal``,
``ratio_max``, ``ratio_min`` and ``drop_max`` compare it against the
committed baseline ``benchmarks/baselines/BENCH_<gate>_smoke.json``
(those rows fan out over the baseline, so a value the report lost
fails).  ``level`` is ``hard`` (fails the build), ``warn`` (drift in a
deterministic counter: a behaviour change, which the golden and
equivalence tests arbitrate) or ``id``: the rows naming the workload.
On an ``id`` mismatch a gate fails at once, except the gates in
:data:`INTRINSIC_ON_MISMATCH`, which run only their baseline-free rows:
the nightly full-scale tenancy report has no smoke baseline, but its
quota, recovery and p99-bound checks carry their own references.

Wall-clock rows allow 25% over the baseline, generous enough to absorb
shared-runner noise and tight enough to catch an accidentally quadratic
allocator; the speedup and savings rows are within-run ratios, so they
are insensitive to absolute runner speed.  Refresh a baseline when a
change legitimately moves it::

    PYTHONPATH=src python -m repro.experiments.bench_<gate> --smoke \\
        --output benchmarks/baselines/BENCH_<gate>_smoke.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

BASELINE_DIR = pathlib.Path("benchmarks/baselines")
#: Allowed fractional drift of wall-clock, speedup, savings and p99.
TOLERANCE = 0.25
#: Allowed drop in admitted-request SLO attainment (5 percentage points).
SLO_DROP = 0.05

HARD, WARN, ID = "hard", "warn", "id"

#: check -> (passes(current, baseline, tolerance), requirement text).
CHECKS = {
    "equal": (lambda cur, base, tol: cur == base, "== baseline {base!r}"),
    "true": (lambda cur, base, tol: bool(cur), "true"),
    "zero": (lambda cur, base, tol: not cur, "zero"),
    "at_least": (lambda cur, base, tol: cur >= tol, ">= {tol:g}"),
    "above": (lambda cur, base, tol: cur > tol, "> {tol:g}"),
    "ratio_max": (
        lambda cur, base, tol: cur <= base * (1.0 + tol),
        "<= baseline {base:.4g} + {tol:.0%}",
    ),
    "ratio_min": (
        lambda cur, base, tol: cur >= base * (1.0 - tol),
        ">= baseline {base:.4g} - {tol:.0%}",
    ),
    "drop_max": (
        lambda cur, base, tol: base - cur <= tol,
        ">= baseline {base:.4g} - {tol:g}",
    ),
}
BASELINE_FREE = {"true", "zero", "at_least", "above"}
#: Checks allowing drift against the baseline; a passing hard one is
#: reported as within tolerance.
DRIFT = {"ratio_max", "ratio_min", "drop_max"}

TABLE = (
    ("fig12", "scale", "equal", None, ID),
    ("fig12", "wall_s.after", "ratio_max", TOLERANCE, HARD),
    ("fig12", "placement.find_placement_calls", "equal", None, WARN),
    ("fig12", "placement.deploy_calls", "equal", None, WARN),
    ("fig12", "placement.fast_rejects", "equal", None, WARN),
    ("fig12", "placement.try_start_attempts", "equal", None, WARN),
    ("fig12", "placement.watermark_skips", "equal", None, WARN),
    ("fig12", "events", "equal", None, WARN),
    ("serving", "workload.task_count", "equal", None, ID),
    ("serving", "gate.pass", "true", None, HARD),
    ("serving", "gate.slo_admitted", "drop_max", SLO_DROP, HARD),
    ("serving", "gate.p99_latency_s", "ratio_max", TOLERANCE, WARN),
    ("batch", "scale.requests", "equal", None, ID),
    ("batch", "scale.models", "equal", None, ID),
    ("batch", "gate.bit_identical", "true", None, HARD),
    ("batch", "gate.pass", "true", None, HARD),
    ("batch", "gate.speedups.*", "ratio_min", TOLERANCE, HARD),
    ("scale", "scale", "equal", None, ID),
    ("scale", "points.*.schedule_digest", "equal", None, HARD),
    ("scale", "gate.sublinear", "true", None, HARD),
    ("scale", "points.-1.wall_s", "ratio_max", TOLERANCE, HARD),
    ("scale", "points.*.placement_searches", "equal", None, WARN),
    ("scale", "points.*.boards_probed", "equal", None, WARN),
    ("scale", "points.*.events", "equal", None, WARN),
    ("autoscale", "workload.task_count", "equal", None, ID),
    ("autoscale", "workload.traces", "equal", None, ID),
    ("autoscale", "gate.per_trace.*.pass", "true", None, HARD),
    ("autoscale", "gate.per_trace.*.replica_second_savings", "ratio_min", TOLERANCE, HARD),
    ("tenancy", "workload.task_count", "equal", None, ID),
    ("tenancy", "workload.boards", "equal", None, ID),
    ("tenancy", "gate.quota_violations", "zero", None, HARD),
    ("tenancy", "gate.recovery_rate", "at_least", 1.0, HARD),
    ("tenancy", "gate.pass", "true", None, HARD),
    ("tenancy", "gate.premium_mixed_p99_s", "ratio_max", TOLERANCE, HARD),
    ("tenancy", "mixed_tenancy.tenancy.preemption_sweeps", "equal", None, WARN),
    ("tenancy", "mixed_tenancy.tenancy.tasks_preempted", "equal", None, WARN),
    ("tenancy", "mixed_tenancy.tenancy.quota_sheds", "equal", None, WARN),
    ("faults", "comparison.min_recovery_rate", "at_least", 1.0, HARD),
    # evictions_off - evictions_on: compaction must spare some eviction.
    ("defrag", "comparison.evictions_avoided", "above", 0, HARD),
    ("defrag", "defrag_on.migrations_completed", "at_least", 1, HARD),
    ("defrag", "defrag_on.migration_counters.bytes_migrated", "above", 0, HARD),
)
GATES = tuple(dict.fromkeys(row[0] for row in TABLE))
INTRINSIC_ON_MISMATCH = {"tenancy"}

#: A path component with nothing behind it.
MISSING = object()


def resolve(doc, path: str) -> dict:
    """``{concrete path: value}`` for every match of a dotted ``path``."""
    found = {"": doc}
    for part in path.split("."):
        step = {}
        for prefix, node in found.items():
            try:
                if part == "*":
                    items = (
                        node.items() if isinstance(node, dict)
                        else enumerate(node)
                    )
                elif isinstance(node, list):
                    items = [(part, node[int(part)])]
                else:
                    items = [(part, node[part])]
            except (KeyError, IndexError, TypeError, ValueError):
                items = [(part, MISSING)]
            for key, value in items:
                step[f"{prefix}.{key}" if prefix else str(key)] = value
        found = step
    return found


def needs_baseline(gate: str) -> bool:
    """Whether any of ``gate``'s rows reads the committed baseline."""
    return any(
        row[0] == gate and (row[4] == ID or row[2] not in BASELINE_FREE)
        for row in TABLE
    )


def _show(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else repr(value)


def _check(gate, path, check, tol, current, baseline) -> list:
    """``[(passed, message)]`` for every value ``path`` matches."""
    passes, requirement = CHECKS[check]
    free = check in BASELINE_FREE
    results = []
    for where, value in resolve(current if free else baseline, path).items():
        cur, base = (value, None) if free else (
            resolve(current, where)[where], value
        )
        if MISSING in (cur, base):
            results.append((False, f"{gate} {where}: missing"))
            continue
        rule = requirement.format(base=base, tol=tol)
        message = f"{gate} {where}: {_show(cur)} (needs {rule})"
        results.append((passes(cur, base, tol), message))
    return results


def compare(gate: str, current: dict, baseline: dict | None = None) -> tuple:
    """``(failures, warnings)`` message lists for one gate's rows."""
    rows = [row[1:] for row in TABLE if row[0] == gate]
    mismatches = [
        message
        for path, check, tol, level in rows if level == ID
        for passed, message in _check(gate, path, check, tol, current, baseline)
        if not passed
    ]
    warnings = []
    if mismatches:
        if gate not in INTRINSIC_ON_MISMATCH:
            return [f"{m} — comparing different workloads" for m in mismatches], []
        warnings = [f"{m} — baseline rows skipped" for m in mismatches]
        rows = [row for row in rows if row[1] in BASELINE_FREE]
    failures = []
    for path, check, tol, level in rows:
        if level == ID:
            continue
        for passed, message in _check(gate, path, check, tol, current, baseline):
            if not passed:
                (failures if level == HARD else warnings).append(message)
            elif level == HARD and check in DRIFT:
                warnings.append(f"{message} — within tolerance")
    return failures, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "gates", nargs="*", metavar="GATE",
        help=f"gates to run (default: all of {', '.join(GATES)})",
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.gates) - set(GATES))
    if unknown:
        parser.error(f"unknown gate(s): {', '.join(unknown)}")
    failures: list = []
    warnings: list = []
    for gate in args.gates or GATES:
        current = json.loads(pathlib.Path(f"BENCH_{gate}.json").read_text())
        baseline = None
        if needs_baseline(gate):
            path = BASELINE_DIR / f"BENCH_{gate}_smoke.json"
            baseline = json.loads(path.read_text())
        gate_failures, gate_warnings = compare(gate, current, baseline)
        failures.extend(gate_failures)
        warnings.extend(gate_warnings)
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
