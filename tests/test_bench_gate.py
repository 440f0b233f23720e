"""The scale gate holds every ``bench_scale`` schedule digest to the
committed baseline's: a changed schedule is a hard failure.  Its probe
growth check needs at least two board counts to compare."""

import copy
import json
import pathlib

import pytest

from repro.experiments import bench_scale
from repro.experiments.bench_gate import SCALE_BASELINE, compare_scale

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def baseline():
    return json.loads((ROOT / SCALE_BASELINE).read_text())


def test_identical_report_passes(baseline):
    failures, _ = compare_scale(copy.deepcopy(baseline), baseline)
    assert failures == []


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
def test_tampered_digest_fails(baseline, arm):
    committed = RETIRED_ARM_DIGESTS[arm]
    assert {p["boards"]: p["schedule_digest"] for p in baseline["points"]} == (
        committed
    )
    current = copy.deepcopy(baseline)
    point = current["points"][1]
    digest = committed[point["boards"]]
    point["schedule_digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    failures, _ = compare_scale(current, baseline)
    assert len(failures) == 1
    assert f"schedule digest changed at {point['boards']} boards" in (
        failures[0]
    )


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
