"""Workload tests: DeepBench specs, Table-1 compositions and arrivals."""

import pytest

from repro.errors import ReproError
from repro.workloads import (
    MODEL_POOL,
    TABLE1_COMPOSITIONS,
    TABLE4_BENCHMARKS,
    ModelSpec,
    WorkloadComposition,
    generate_workload,
    model_by_key,
    poisson_arrivals,
    size_class_of,
)
from repro.workloads.deepbench import all_models


class TestModelSpec:
    def test_key_format(self):
        assert ModelSpec("gru", 1024, 1500).key == "gru-h1024-t1500"

    def test_size_classes(self):
        assert size_class_of(512) == "S"
        assert size_class_of(1024) == "S"
        assert size_class_of(1025) == "M"
        assert size_class_of(2048) == "M"
        assert size_class_of(2049) == "L"

    def test_gates(self):
        assert ModelSpec("gru", 64, 1).gates == 3
        assert ModelSpec("lstm", 64, 1).gates == 4

    def test_unknown_kind(self):
        with pytest.raises(ReproError):
            ModelSpec("cnn", 64, 1)

    def test_parameter_count(self):
        spec = ModelSpec("gru", 64, 1, input_dim=32)
        assert spec.parameter_count == 3 * (64 * 32 + 64 * 64)

    def test_program_metadata(self):
        program = ModelSpec("lstm", 64, 7).program()
        assert program.metadata["model"] == "lstm"
        assert program.metadata["timesteps"] == 7

    def test_table4_benchmarks_match_paper(self):
        keys = [spec.key for spec in TABLE4_BENCHMARKS]
        assert keys == [
            "gru-h512-t1", "gru-h1024-t1500", "gru-h1536-t375",
            "lstm-h256-t150", "lstm-h512-t25", "lstm-h1024-t25",
            "lstm-h1536-t50",
        ]

    def test_pool_classes_consistent(self):
        for class_name, specs in MODEL_POOL.items():
            for spec in specs:
                assert spec.size_class == class_name

    def test_model_by_key_roundtrip(self):
        for spec in all_models():
            assert model_by_key(spec.key) == spec

    def test_model_by_key_unknown(self):
        with pytest.raises(ReproError):
            model_by_key("vgg-h224-t1")


class TestCompositions:
    def test_ten_sets(self):
        assert len(TABLE1_COMPOSITIONS) == 10

    def test_fractions_sum_to_one(self):
        for comp in TABLE1_COMPOSITIONS:
            assert comp.small + comp.medium + comp.large == pytest.approx(1.0)

    def test_table1_values(self):
        assert TABLE1_COMPOSITIONS[0].small == 1.0
        assert TABLE1_COMPOSITIONS[7].large == 0.60
        assert TABLE1_COMPOSITIONS[9].small == 0.60

    def test_bad_composition_rejected(self):
        with pytest.raises(ReproError):
            WorkloadComposition(99, 0.5, 0.5, 0.5)

    def test_describe(self):
        text = TABLE1_COMPOSITIONS[3].describe()
        assert "50% S" in text and "50% M" in text and "L" not in text


class TestGenerateWorkload:
    def test_deterministic_by_seed(self):
        a = generate_workload(TABLE1_COMPOSITIONS[6], 50, seed=3)
        b = generate_workload(TABLE1_COMPOSITIONS[6], 50, seed=3)
        assert [t.model_key for t in a] == [t.model_key for t in b]
        assert [t.arrival_s for t in a] == [t.arrival_s for t in b]

    def test_composition_respected(self):
        tasks = generate_workload(TABLE1_COMPOSITIONS[0], 100, seed=1)
        assert all(task.size_class == "S" for task in tasks)

    def test_mixed_composition_approximate(self):
        tasks = generate_workload(TABLE1_COMPOSITIONS[6], 600, seed=2)
        fractions = {
            cls: sum(1 for t in tasks if t.size_class == cls) / len(tasks)
            for cls in ("S", "M", "L")
        }
        assert fractions["S"] == pytest.approx(0.33, abs=0.08)
        assert fractions["L"] == pytest.approx(0.34, abs=0.08)

    def test_arrivals_increasing(self):
        tasks = generate_workload(TABLE1_COMPOSITIONS[6], 50, seed=4)
        arrivals = [t.arrival_s for t in tasks]
        assert arrivals == sorted(arrivals)

    def test_models_come_from_pool(self):
        tasks = generate_workload(TABLE1_COMPOSITIONS[6], 100, seed=5)
        pool_keys = {
            spec.key for specs in MODEL_POOL.values() for spec in specs
        }
        assert {task.model_key for task in tasks} <= pool_keys

    def test_zero_tasks_rejected(self):
        with pytest.raises(ReproError):
            generate_workload(TABLE1_COMPOSITIONS[0], 0)


class TestArrivals:
    def test_poisson_mean_rate(self):
        arrivals = poisson_arrivals(4000, rate_per_s=100.0, seed=0)
        mean_gap = arrivals[-1] / len(arrivals)
        assert mean_gap == pytest.approx(0.01, rel=0.1)

    def test_monotone(self):
        arrivals = poisson_arrivals(100, 10.0, seed=1)
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))

    def test_invalid_args(self):
        with pytest.raises(ReproError):
            poisson_arrivals(0, 1.0)
        with pytest.raises(ReproError):
            poisson_arrivals(10, 0.0)
