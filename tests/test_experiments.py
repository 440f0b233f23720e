"""Experiment-driver tests: every table/figure driver runs and reproduces
the paper's qualitative shape (fast, reduced-size variants where needed)."""

import pytest

from repro.experiments import (
    format_table,
    run_compile_overhead,
    run_fig11,
    run_fig12,
    run_table2,
    run_table3,
    run_table4,
)
from repro.experiments import fig11 as fig11_mod
from repro.experiments import fig12 as fig12_mod
from repro.experiments import table2 as table2_mod
from repro.experiments import table3 as table3_mod
from repro.experiments import table4 as table4_mod
from repro.experiments import compile_overhead as co_mod
from repro.units import us
from repro.workloads.synthetic import TABLE1_COMPOSITIONS


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len({line.index("2") for line in lines if "2" in line}) >= 1
        assert "---" in lines[1]


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table2()

    def test_two_instances(self, rows):
        assert [row.instance for row in rows] == ["BW-V37", "BW-K115"]

    def test_within_calibration_band(self, rows):
        for row in rows:
            for field in ("luts", "ffs", "dsps"):
                assert abs(row.rel_error(field)) < 0.20

    def test_utilisation_below_one(self, rows):
        for row in rows:
            for kind, value in row.utilisation.items():
                if value == value:  # skip NaN
                    assert value < 1.0

    def test_peak_tflops_close_to_paper(self, rows):
        for row in rows:
            assert abs(row.rel_error("tflops")) < 0.10

    def test_render(self, rows):
        text = table2_mod.render(rows)
        assert "BW-V37" in text and "paper" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table3()

    def test_devices(self, rows):
        assert [row.device for row in rows] == ["XCVU37P", "XCKU115"]

    def test_block_counts_fit_devices(self, rows):
        assert rows[0].virtual_blocks <= 16
        assert rows[1].virtual_blocks <= 10

    def test_per_block_close_to_paper(self, rows):
        for row in rows:
            assert row.per_block.luts == pytest.approx(
                row.paper["luts"], rel=0.25
            )

    def test_binding_resource_highly_utilised(self, rows):
        """ViTAL blocks are sized so the binding resource is near full —
        Table 3 shows 87-100% on BRAM/DSP."""
        for row in rows:
            peak = max(
                value for value in row.utilisation.values() if value == value
            )
            assert peak > 0.80

    def test_render(self, rows):
        assert "virtual block" in table3_mod.render(rows)


class TestTable4:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table4()

    def test_fourteen_rows(self, rows):
        assert len(rows) == 14

    def test_overheads_in_band(self, rows):
        """The paper's 3.8-8.4% virtualization overhead."""
        for row in rows:
            if row.fits:
                assert 0.02 <= row.overhead <= 0.10

    def test_lstm1536_dash_on_k115(self, rows):
        dash = [
            row for row in rows
            if row.model.key == "lstm-h1536-t50" and row.device == "XCKU115"
        ]
        assert len(dash) == 1 and not dash[0].fits
        assert dash[0].paper is None  # paper also shows a dash

    def test_v37_faster_than_k115(self, rows):
        by_key = {}
        for row in rows:
            if row.fits:
                by_key.setdefault(row.model.key, {})[row.device] = row.baseline_s
        for key, devices in by_key.items():
            if len(devices) == 2:
                assert devices["XCVU37P"] < devices["XCKU115"]

    def test_latency_within_2x_of_paper(self, rows):
        for row in rows:
            if row.fits and row.paper:
                assert row.baseline_s / (row.paper[0] * 1e-3) < 2.1
                assert (row.paper[0] * 1e-3) / row.baseline_s < 2.1

    def test_render(self, rows):
        assert "Overhead" in table4_mod.render(rows)


class TestFig11:
    @pytest.fixture(scope="class")
    def curves(self):
        return run_fig11(sweep=tuple(us(x) for x in (0.0, 0.3, 0.6, 0.9, 1.2)))

    def test_three_curves(self, curves):
        assert [c.model.kind for c in curves] == ["lstm", "gru", "gru"]

    def test_paper_shape_lstm_hides_most(self, curves):
        lstm, gru_small, gru_large = curves
        assert lstm.hideable_added_latency_s > gru_small.hideable_added_latency_s
        assert (
            gru_small.hideable_added_latency_s
            > gru_large.hideable_added_latency_s
        )

    def test_small_gru_crossover_near_paper(self, curves):
        """The paper reports hiding up to ~0.6 us for GRU h=1024."""
        gru_small = curves[1]
        assert gru_small.hideable_added_latency_s == pytest.approx(
            us(0.6), abs=us(0.25)
        )

    def test_large_gru_barely_hides(self, curves):
        assert curves[2].hideable_added_latency_s < us(0.3)

    def test_latencies_monotone(self, curves):
        for curve in curves:
            assert curve.latency_s == sorted(curve.latency_s)

    def test_reorder_ablation_exposes_comm(self):
        sweep = (0.0, us(0.5))
        with_tool = run_fig11(sweep=sweep)
        without = run_fig11(sweep=sweep, reorder=False)
        for curve_with, curve_without in zip(with_tool, without):
            assert curve_without.latency_s[0] >= curve_with.latency_s[0]
            assert curve_without.overlap_window_s == 0.0

    def test_render(self, curves):
        assert "hides up to" in fig11_mod.render(curves)


class TestFig12:
    @pytest.fixture(scope="class")
    def rows(self):
        # Reduced size for test speed: 3 compositions, 1 seed.
        return run_fig12(
            compositions=TABLE1_COMPOSITIONS[:1] + TABLE1_COMPOSITIONS[6:7],
            task_count=80,
            seeds=(1,),
        )

    def test_throughputs_positive(self, rows):
        for row in rows:
            for value in row.throughput.values():
                assert value > 0

    def test_proposed_beats_baseline(self, rows):
        for row in rows:
            assert row.speedup_vs_baseline > 1.0

    def test_render(self, rows):
        text = fig12_mod.render(rows)
        assert "average speedup vs baseline" in text


class TestBenchDefrag:
    @pytest.fixture(scope="class")
    def bench(self, tmp_path_factory):
        from repro.experiments.bench_defrag import SMOKE_SMALL_TASKS, run_bench

        output = tmp_path_factory.mktemp("bench") / "BENCH_defrag.json"
        return run_bench(small_tasks=SMOKE_SMALL_TASKS, output=output), output

    @pytest.fixture(scope="class")
    def report(self, bench):
        return bench[0]

    def test_both_configs_complete_the_stream(self, report):
        total = report["workload"]["total_tasks"]
        assert report["defrag_off"]["completed"] == total
        assert report["defrag_on"]["completed"] == total

    def test_defrag_avoids_evictions(self, report):
        """The subsystem's acceptance property on the fragmented workload:
        compaction opens holes that eviction would otherwise have made.
        Both arms refuse alike (one failure in 15 deploy calls): a refused
        placement is only asked again once something it reads moved."""
        off, on = report["defrag_off"], report["defrag_on"]
        assert on["evictions"] < off["evictions"]
        assert report["comparison"]["evictions_avoided"] > 0
        assert on["placement_failure_rate"] <= off["placement_failure_rate"]

    def test_migration_cost_visible_in_counters(self, report):
        on = report["defrag_on"]
        assert on["defrag_plans"] >= 1
        assert on["migrations_completed"] >= 1
        counters = on["migration_counters"]
        assert counters["migrations_planned"] >= on["migrations_completed"]
        assert counters["bytes_migrated"] > 0
        assert counters["external_events"] >= on["defrag_plans"]
        assert report["defrag_off"]["migrations_completed"] == 0

    def test_report_written_as_json(self, bench):
        import json

        report, path = bench
        assert json.loads(path.read_text()) == report


class TestCompileOverhead:
    @pytest.fixture(scope="class")
    def result(self):
        return run_compile_overhead()

    def test_ten_instances(self, result):
        assert result.instances == 10

    def test_tool_time_negligible(self, result):
        """Decompose+partition < 1% of HS-compile time (Section 4.3)."""
        assert result.tool_fraction < 0.01

    def test_total_overhead_near_paper(self, result):
        """The paper lands at 24.6% after amortisation."""
        assert 0.10 <= result.overhead_fraction <= 0.40

    def test_cache_hits_from_amortisation(self, result):
        assert result.variant_cache_hits > 0

    def test_render(self, result):
        assert "24.6%" in co_mod.render(result)
