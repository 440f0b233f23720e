"""Performance-model tests: instance sizing, single-FPGA latency, the
communication/computation overlap model, and throughput helpers."""

import pytest

from repro.accel import BW_V37, CycleModel
from repro.accel.codegen import build_scaleout_programs
from repro.accel.timing import VirtualizationContext
from repro.cluster.network import RingNetwork
from repro.errors import ReproError
from repro.perf import (
    demand_sized_instance,
    overlap_window_seconds,
    scaleout_latency,
    single_fpga_latency,
    speedup,
)
from repro.perf.latency import MIN_TILES, weight_load_seconds
from repro.perf.throughput import arithmetic_mean
from repro.units import mhz, us
from repro.workloads.deepbench import ModelSpec


class TestInstanceSizing:
    def test_small_model_small_instance(self):
        spec = ModelSpec("gru", 512, 1)
        choice = demand_sized_instance(spec.weight_bits(7), "XCVU37P")
        assert MIN_TILES <= choice.config.tiles < 21
        assert choice.resident_fraction == 1.0

    def test_large_model_clamps_at_device(self):
        spec = ModelSpec("gru", 2560, 1)
        choice = demand_sized_instance(spec.weight_bits(7), "XCVU37P")
        assert choice.config.tiles == 21
        assert choice.resident_fraction < 1.0

    def test_replicas_halve_demand(self):
        spec = ModelSpec("gru", 1536, 1)
        whole = demand_sized_instance(spec.weight_bits(7), "XCVU37P", 1)
        half = demand_sized_instance(spec.weight_bits(7), "XCVU37P", 2)
        assert half.config.tiles <= whole.config.tiles
        assert half.resident_fraction >= whole.resident_fraction

    def test_small_instances_keep_mfu_width(self):
        choice = demand_sized_instance(ModelSpec("lstm", 256, 1).weight_bits(7),
                                       "XCVU37P")
        assert choice.config.mfu_total_lanes >= 32

    def test_unknown_device(self):
        with pytest.raises(ReproError):
            demand_sized_instance(1000, "XC7Z020")

    def test_weight_load_seconds_scales(self):
        assert weight_load_seconds(10_000_000) > weight_load_seconds(1_000)


class TestSingleFpgaLatency:
    def test_frequency_override(self):
        program = ModelSpec("gru", 512, 10).program()
        fast = single_fpga_latency(program, BW_V37, frequency_hz=mhz(400))
        slow = single_fpga_latency(program, BW_V37, frequency_hz=mhz(200))
        assert slow.seconds > fast.seconds

    def test_virtualization_adds_cost(self):
        program = ModelSpec("gru", 512, 10).program()
        base = single_fpga_latency(program, BW_V37)
        virt = single_fpga_latency(
            program, BW_V37, virtualization=VirtualizationContext(10)
        )
        assert virt.seconds > base.seconds


class TestOverlapModel:
    def _setup(self, kind="gru", hidden=1024, timesteps=50, reorder=True):
        spec = ModelSpec(kind, hidden, timesteps)
        programs = build_scaleout_programs(
            kind, spec.metadata_weights(), timesteps, 2, reorder=reorder
        )
        choice = demand_sized_instance(spec.weight_bits(7), "XCVU37P", 2)
        model = CycleModel(choice.config)
        network = RingNetwork(["f0", "f1"])
        return programs[0], model, network

    def test_window_positive_after_reorder(self):
        program, model, _ = self._setup()
        assert overlap_window_seconds(program, model) > 0

    def test_window_zero_without_reorder(self):
        program, model, _ = self._setup(reorder=False)
        assert overlap_window_seconds(program, model) == 0.0

    def test_window_zero_without_exchange(self):
        spec = ModelSpec("gru", 512, 5)
        program = spec.program()
        assert overlap_window_seconds(program, CycleModel(BW_V37)) == 0.0

    def test_fully_hidden_at_low_latency(self):
        program, model, network = self._setup()
        report = scaleout_latency(program, model, network, ["f0", "f1"])
        assert report.fully_hidden

    def test_stall_appears_beyond_window(self):
        program, model, network = self._setup()
        report = scaleout_latency(
            program, model, network, ["f0", "f1"], added_latency_s=us(5.0)
        )
        assert not report.fully_hidden
        assert report.total_s > report.compute_s

    def test_latency_monotone_in_added_latency(self):
        program, model, network = self._setup()
        values = [
            scaleout_latency(
                program, model, network, ["f0", "f1"], added_latency_s=us(x)
            ).total_s
            for x in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert values == sorted(values)

    def test_stall_charged_per_timestep(self):
        program, model, network = self._setup(timesteps=50)
        report = scaleout_latency(
            program, model, network, ["f0", "f1"], added_latency_s=us(10.0)
        )
        expected = report.compute_s + 50 * report.stall_per_step_s
        assert report.total_s == pytest.approx(expected)

    def test_non_scaleout_program_rejected(self):
        program = ModelSpec("gru", 512, 5).program()
        with pytest.raises(ReproError, match="scale-out"):
            scaleout_latency(
                program, CycleModel(BW_V37), RingNetwork(["a", "b"]), ["a", "b"]
            )

    def test_reordering_buys_latency_tolerance(self):
        """The Fig. 11 ablation: without the reordering tool, any network
        latency is exposed."""
        added = us(0.2)
        with_reorder = self._setup(reorder=True)
        without = self._setup(reorder=False)
        stall_with = scaleout_latency(
            with_reorder[0], with_reorder[1], with_reorder[2], ["f0", "f1"],
            added_latency_s=added,
        ).stall_per_step_s
        stall_without = scaleout_latency(
            without[0], without[1], without[2], ["f0", "f1"],
            added_latency_s=added,
        ).stall_per_step_s
        assert stall_with < stall_without


class TestThroughputHelpers:
    def test_speedup(self):
        assert speedup(10.0, 4.0) == pytest.approx(2.5)

    def test_speedup_zero_baseline(self):
        with pytest.raises(ReproError):
            speedup(1.0, 0.0)

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_means_reject_empty(self):
        with pytest.raises(ReproError):
            arithmetic_mean([])
