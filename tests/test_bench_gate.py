"""The bench gate is one comparator over a declarative table.  Each
committed smoke baseline passes against itself; breaking the value behind
one hard row fails on exactly that row, and drift behind a warn row only
warns.  The scale gate holds every ``bench_scale`` schedule digest to the
committed baseline's, and its probe growth check needs at least two board
counts to compare."""

import copy
import json
import pathlib

import pytest

from repro.experiments import bench_scale
from repro.experiments.bench_gate import (
    BASELINE_DIR,
    GATES,
    HARD,
    ID,
    INTRINSIC_ON_MISMATCH,
    TABLE,
    compare,
    main,
    needs_baseline,
    resolve,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The gated values of the two benches without a committed baseline, as
#: their smoke runs produce them.
SMOKE_REPORTS = {
    "faults": {"comparison": {"min_recovery_rate": 1.0}},
    "defrag": {
        "comparison": {
            "failure_rate_off": 0.06666666666666667,
            "failure_rate_on": 0.06666666666666667,
            "failure_rate_reduction": 0.0,
            "evictions_avoided": 3,
        },
        "defrag_on": {
            "migrations_completed": 2,
            "migration_counters": {"bytes_migrated": 2779648},
        },
    },
}


def reference(gate: str) -> tuple:
    """``(report, baseline)``: an unchanged report and what it is gated on."""
    if not needs_baseline(gate):
        return copy.deepcopy(SMOKE_REPORTS[gate]), None
    path = ROOT / BASELINE_DIR / f"BENCH_{gate}_smoke.json"
    baseline = json.loads(path.read_text())
    return copy.deepcopy(baseline), baseline


def _set(doc, where: str, value) -> None:
    *parents, last = where.split(".")
    for part in parents:
        doc = doc[int(part) if isinstance(doc, list) else part]
    doc[int(last) if isinstance(doc, list) else last] = value


def _other(value):
    """A value unequal to ``value`` of the same shape."""
    if isinstance(value, str):
        return ("0" if value[0] != "0" else "1") + value[1:]
    if isinstance(value, list):
        return value + ["extra"]
    if isinstance(value, dict):
        return {**value, "extra": 1}
    return value + 1


def _broken(value, check: str, tol):
    """A value that fails ``check`` against a baseline of ``value``."""
    return {
        "equal": lambda: _other(value),
        "true": lambda: False,
        "zero": lambda: {"premium": 1},
        "at_least": lambda: tol - 1,
        "above": lambda: tol,
        "ratio_max": lambda: value * (1.0 + tol) * 2.0,
        "ratio_min": lambda: value * (1.0 - tol) / 2.0,
        "drop_max": lambda: value - 2.0 * tol,
    }[check]()


def test_identical_report_passes():
    for gate in GATES:
        assert compare(gate, *reference(gate))[0] == []


def mutation_cases() -> list:
    """``(case id, gate, report, baseline, fails, where)`` per table row:
    the report breaks the first value the row matches."""
    cases = []
    for gate, path, check, tol, level in TABLE:
        report, baseline = reference(gate)
        where, value = next(iter(resolve(report, path).items()))
        _set(report, where, _broken(value, check, tol))
        fails = level == HARD or (
            level == ID and gate not in INTRINSIC_ON_MISMATCH
        )
        cases.append((f"{gate}-{level}-{where}", gate, report, baseline, fails,
                      where))
    return cases


CASES = mutation_cases()


@pytest.mark.parametrize(
    "gate, report, baseline, fails, where",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_mutation_table(gate, report, baseline, fails, where):
    failures, warnings = compare(gate, report, baseline)
    if fails:
        assert len(failures) == 1
        assert failures[0].startswith(f"{gate} {where}:")
    else:
        assert failures == []
        assert [w for w in warnings if w.startswith(f"{gate} {where}:")]


def test_tenancy_nightly_report_keeps_intrinsic_rows():
    """A full-scale tenancy report names another workload than the smoke
    baseline: a violated quota still fails, p99 drift is not compared."""
    report, baseline = reference("tenancy")
    report["workload"]["task_count"] *= 10
    report["gate"]["quota_violations"] = {"premium": 3}
    report["gate"]["premium_mixed_p99_s"] *= 10
    failures, warnings = compare("tenancy", report, baseline)
    assert failures == [
        "tenancy gate.quota_violations: {'premium': 3} (needs zero)"
    ]
    assert any("baseline rows skipped" in w for w in warnings)
    assert not any("premium_mixed_p99_s" in m for m in failures + warnings)


def test_defrag_rows_fail_without_migrations():
    report, _ = reference("defrag")
    report["comparison"]["evictions_avoided"] = 0
    report["defrag_on"]["migrations_completed"] = 0
    report["defrag_on"]["migration_counters"]["bytes_migrated"] = 0
    failures, _ = compare("defrag", report)
    assert [f.split(":")[0] for f in failures] == [
        "defrag comparison.evictions_avoided",
        "defrag defrag_on.migrations_completed",
        "defrag defrag_on.migration_counters.bytes_migrated",
    ]


def test_lost_value_fails():
    report, baseline = reference("batch")
    del report["gate"]["speedups"]["lstm-h512-t25"]
    failures, _ = compare("batch", report, baseline)
    assert failures == ["batch gate.speedups.lstm-h512-t25: missing"]


def test_resolve_paths():
    doc = {"points": [{"a": 1}, {"a": 2}], "gate": {"x": {"p": 3}}}
    assert resolve(doc, "points.*.a") == {"points.0.a": 1, "points.1.a": 2}
    assert resolve(doc, "points.-1.a") == {"points.-1.a": 2}
    assert resolve(doc, "gate.*.p") == {"gate.x.p": 3}
    assert list(resolve(doc, "gate.y.p")) == ["gate.y.p"]


def test_cli_runs_every_gate_by_default(tmp_path, monkeypatch, capsys):
    (tmp_path / "benchmarks").symlink_to(ROOT / "benchmarks")
    for gate in GATES:
        report, _ = reference(gate)
        (tmp_path / f"BENCH_{gate}.json").write_text(json.dumps(report))
    monkeypatch.chdir(tmp_path)
    assert main([]) == 0
    assert "bench gate: OK" in capsys.readouterr().out
    (tmp_path / "BENCH_faults.json").write_text(
        json.dumps({"comparison": {"min_recovery_rate": 0.5}})
    )
    assert main(["faults"]) == 1
    assert "[FAIL] faults comparison.min_recovery_rate: 0.5" in (
        capsys.readouterr().out
    )
    with pytest.raises(SystemExit) as exit_info:
        main(["nonsense"])
    assert exit_info.value.code == 2


# bench_scale used to run every point twice, through a pod-sharded router
# and through a flat control index, and committed both digests; they were
# equal.  The single flat-index arm must go on reproducing each of them.
RETIRED_ARM_DIGESTS = dict.fromkeys(
    ("flat", "pod"),
    {
        4: "c15586653d80d1aa92480f62a864ff54b97d39b4148b8c11eb6dc4dca969c285",
        64: "619d61ea22ae0266788eadd61cbc46b123a7593e49c0ceaf1e8d981a6e78ebce",
        256: "823d76fc11d811595386a65c7d346f6e13dd7cb6932bc3b95b6079f0bb5af6cf",
    },
)


@pytest.mark.parametrize("arm", ["flat", "pod"])
def test_tampered_digest_fails(arm):
    current, baseline = reference("scale")
    committed = RETIRED_ARM_DIGESTS[arm]
    assert {p["boards"]: p["schedule_digest"] for p in baseline["points"]} == (
        committed
    )
    point = current["points"][1]
    point["schedule_digest"] = _other(committed[point["boards"]])
    failures, _ = compare("scale", current, baseline)
    assert len(failures) == 1
    assert failures[0].startswith("scale points.1.schedule_digest:")


@pytest.mark.parametrize("boards", [[16], [16, 16]])
def test_scale_bench_rejects_fewer_than_two_board_counts(
    boards, tmp_path, capsys
):
    output = tmp_path / "BENCH_scale.json"
    with pytest.raises(ValueError, match="two distinct board counts"):
        bench_scale.run_bench(boards=boards, output=output)
    with pytest.raises(SystemExit) as exit_info:
        bench_scale.main(
            ["--boards", *map(str, boards), "--output", str(output)]
        )
    assert exit_info.value.code == 2
    assert "two distinct board counts" in capsys.readouterr().err
    assert not output.exists()
