"""Catalog (mapping database) tests."""

import pytest

from repro.errors import ReproError
from repro.runtime import Catalog, SystemController
from repro.vital import VitalCompiler
from repro.workloads.deepbench import ModelSpec, all_models


@pytest.fixture(scope="module")
def catalog():
    return Catalog(VitalCompiler())


class TestEntries:
    def test_small_model_single_fpga_plan(self, catalog):
        entry = catalog.entry(ModelSpec("gru", 512, 1))
        assert entry.sorted_plans()[0].replicas == 1
        plan = entry.sorted_plans()[0]
        assert set(plan.feasible_types) == {"XCVU37P", "XCKU115"}

    def test_large_model_two_fpga_only(self, catalog):
        entry = catalog.entry(ModelSpec("gru", 2560, 10))
        assert entry.sorted_plans()[0].replicas == 2

    def test_gru2304_feasible_on_both_types(self, catalog):
        entry = catalog.entry(ModelSpec("gru", 2304, 10))
        plan = entry.sorted_plans()[0]
        assert plan.replicas == 2
        assert set(plan.feasible_types) == {"XCVU37P", "XCKU115"}

    def test_lstm1536_v37_only(self, catalog):
        entry = catalog.entry(ModelSpec("lstm", 1536, 50))
        single = entry.sorted_plans()[0]
        assert single.replicas == 1
        assert single.feasible_types == ["XCVU37P"]

    def test_plans_sorted_fewest_first(self, catalog):
        entry = catalog.entry(ModelSpec("gru", 1536, 10))
        replica_counts = [plan.replicas for plan in entry.sorted_plans()]
        assert replica_counts == sorted(replica_counts)

    def test_programs_per_replica(self, catalog):
        entry = catalog.entry(ModelSpec("gru", 1024, 10))
        for plan in entry.plans:
            assert len(plan.programs) == plan.replicas

    def test_multi_replica_programs_have_sync(self, catalog):
        entry = catalog.entry(ModelSpec("gru", 2560, 10))
        plan = entry.sorted_plans()[0]
        for program in plan.programs:
            assert any(inst.is_sync for inst in program)

    def test_image_for_unknown_type(self, catalog):
        entry = catalog.entry(ModelSpec("lstm", 1536, 50))
        with pytest.raises(ReproError):
            entry.sorted_plans()[0].image_for("XCKU115")

    def test_entry_cached(self, catalog):
        first = catalog.entry(ModelSpec("gru", 512, 1))
        second = catalog.entry(ModelSpec("gru", 512, 1))
        assert first is second
        assert catalog.entry_by_key(first.spec.key) is first

    def test_entry_by_key_rejects_an_unknown_model(self, catalog):
        with pytest.raises(ReproError, match="unknown benchmark model"):
            catalog.entry_by_key("gru-h7-t7")

    @pytest.mark.parametrize("spec", all_models(), ids=lambda spec: spec.key)
    def test_plans_store_their_recounted_footprint_and_types(
            self, catalog, spec):
        """The footprint and feasible types stored at build equal a
        recount from the plan's final images."""
        for plan in catalog.entry(spec).plans:
            assert plan.feasible_types == sorted(plan.images)
            assert plan.footprint == plan.replicas * min(
                image.virtual_blocks for image in plan.images.values())
            assert SystemController.plan_footprint(plan) == plan.footprint


class TestInstanceReuse:
    def test_designs_deduped_by_tiles_and_device(self):
        catalog = Catalog(VitalCompiler())
        catalog.entry(ModelSpec("gru", 512, 1))
        count_after_one = catalog.instance_count()
        # An LSTM with similar storage demand reuses the same instance size.
        catalog.entry(ModelSpec("gru", 512, 25))
        assert catalog.instance_count() == count_after_one

    def test_bitstream_cache_shared(self):
        compiler = VitalCompiler()
        catalog = Catalog(compiler)
        catalog.entry(ModelSpec("gru", 512, 1))
        misses_before = compiler.store.misses
        catalog.entry(ModelSpec("gru", 512, 100))  # same instance size
        assert compiler.store.misses == misses_before

    def test_virtual_block_counts_reasonable(self):
        catalog = Catalog(VitalCompiler())
        entry = catalog.entry(ModelSpec("lstm", 256, 150))
        plan = entry.sorted_plans()[0]
        image = plan.image_for("XCVU37P")
        assert 1 <= image.virtual_blocks <= 6  # small model, few blocks
