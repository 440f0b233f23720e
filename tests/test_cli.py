"""CLI tests (``python -m repro``)."""

import io

import pytest

from repro.cli import main


def _run(*argv) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0
    return out.getvalue()


class TestInventory:
    def test_lists_instances_and_devices(self):
        text = _run("inventory")
        assert "BW-V37" in text and "XCKU115" in text

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestDecompose:
    def test_prints_tree(self):
        text = _run("decompose", "--tiles", "3", "--depth", "2")
        assert "data-parallel x3" in text
        assert "scale-down applicable: True" in text

    def test_device_selection(self):
        text = _run("decompose", "--tiles", "3", "--device", "XCKU115")
        assert "URAM=0" in text  # KU115 memory plan has no URAM


class TestPartition:
    def test_prints_frontiers(self):
        text = _run("partition", "--tiles", "4", "--iterations", "2")
        assert "block #1" in text
        assert "frontier sizes: [1, 2, 3, 3, 4]" in text

    def test_zero_iterations(self):
        text = _run("partition", "--tiles", "4", "--iterations", "0")
        assert "frontier sizes: [1]" in text


class TestAssembleDisassemble:
    def test_roundtrip_through_files(self, tmp_path):
        source = tmp_path / "prog.s"
        binary = tmp_path / "prog.bin"
        source.write_text(
            "v_fill v0, 1.0, 8\nloop 3\nvv_add v1, v0, v0, 8\nendloop\nhalt\n"
        )
        text = _run("assemble", str(source), str(binary))
        assert "5 instructions -> 80 bytes" in text
        listing = _run("disassemble", str(binary))
        assert "vv_add v1, v0, v0, 8" in listing
        assert "loop 3" in listing


class TestExperimentCommands:
    def test_table2(self):
        assert "BW-V37" in _run("table2")

    def test_table3(self):
        assert "virtual block" in _run("table3")

    def test_isolation(self):
        text = _run("isolation")
        assert "performance isolation" in text

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestClusterStatus:
    def test_empty_cluster(self):
        text = _run("cluster-status")
        assert "board occupancy:" in text
        assert "0/16 blocks used" in text
        assert "free-block histogram" in text
        assert "fragmentation" in text

    def test_deployed_models_listed(self):
        text = _run(
            "cluster-status", "--deploy", "gru-h512-t1",
            "--deploy", "lstm-h256-t150",
        )
        assert "gru-h512-t1" in text
        assert "lstm-h256-t150" in text
        assert "XCVU37P" in text and "XCKU115" in text

    def test_infeasible_deploy_reported_not_fatal(self):
        text = _run("cluster-status", "--deploy", "no-such-model")
        assert "deploy no-such-model:" in text
        assert "fragmentation" in text


class TestInjectFaults:
    def test_reports_failures_and_recoveries(self):
        text = _run(
            "inject-faults", "--tasks", "45", "--mtbf", "0.5",
            "--mttr", "0.05", "--seed", "7",
        )
        assert "board failures" in text
        assert "recovery:" in text
        assert "availability" in text
        assert "45 tasks completed" in text

    def test_fault_free_when_mtbf_exceeds_horizon(self):
        # With an MTBF of hours against a sub-second stream the seeded
        # timeline draws no failure before the horizon.
        text = _run(
            "inject-faults", "--tasks", "12", "--mtbf", "3600",
            "--seed", "1",
        )
        assert "faults: 0 board failures" in text
        assert "availability 1.000" in text


class TestServe:
    def test_reports_admission_and_slo(self):
        text = _run("serve", "--tasks", "60", "--load", "2")
        assert "60 offered" in text
        assert "admission:" in text
        assert "SLO attainment" in text
        assert "brownout" in text

    def test_overload_with_faults_sheds_and_recovers(self):
        text = _run(
            "serve", "--tasks", "90", "--load", "6",
            "--queue-depth", "3", "--deadline", "0.05", "--mtbf", "1.0",
        )
        assert "shed" in text
        assert "faults:" in text
        assert "recovered" in text

    def test_json_output_includes_drops_and_stats(self):
        import json

        text = _run("serve", "--tasks", "40", "--load", "2", "--json")
        point = json.loads(text)
        assert point["offered"] == 40
        assert "dropped" in point
        assert "slo_admitted" in point
        assert point["arrival"] == "mmpp"

    def test_autoscale_flag_reports_decisions(self):
        text = _run(
            "serve", "--tasks", "120", "--load", "4", "--autoscale",
            "--deadline", "0.25",
        )
        assert "autoscale:" in text
        assert "ups" in text and "downs" in text
