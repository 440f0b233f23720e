"""The scale gate holds every ``bench_scale`` schedule digest to the
committed baseline's: a changed schedule is a hard failure."""

import copy
import json
import pathlib

import pytest

from repro.experiments.bench_gate import SCALE_BASELINE, compare_scale

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def baseline():
    return json.loads((ROOT / SCALE_BASELINE).read_text())


def test_identical_report_passes(baseline):
    failures, _ = compare_scale(copy.deepcopy(baseline), baseline)
    assert failures == []


@pytest.mark.parametrize("arm", ["pod", "flat"])
def test_tampered_digest_fails(baseline, arm):
    current = copy.deepcopy(baseline)
    point = current["points"][1]
    digest = point[arm]["schedule_digest"]
    point[arm]["schedule_digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    failures, _ = compare_scale(current, baseline)
    assert len(failures) == 1
    assert f"{arm} schedule digest changed at {point['boards']} boards" in (
        failures[0]
    )
