"""Tests for hierarchy traversal, basic-module detection and resource
estimation — the substrate of the decomposer's step 1."""

import pytest

from repro.resources import ResourceVector
from repro.rtl import (
    basic_module_instances,
    design_resources,
    instance_resources,
    is_basic_module,
)
from repro.rtl.builder import DesignBuilder
from repro.rtl.hierarchy import module_self_resources
from repro.rtl.primitives import cell_cost


class TestBasicModuleDetection:
    def test_leaf_with_primitives_is_basic(self, mini_design):
        assert is_basic_module(mini_design, "stage_a")

    def test_module_with_submodules_is_not_basic(self, mini_design):
        assert not is_basic_module(mini_design, "lane")
        assert not is_basic_module(mini_design, "top")

    def test_empty_module_is_basic(self):
        db = DesignBuilder("d")
        db.module("empty").build()
        design = db.top("empty").build()
        assert is_basic_module(design, "empty")


class TestBasicInstances:
    def test_counts(self, mini_design):
        instances = basic_module_instances(mini_design)
        # decoder + 4 lanes x 3 stages
        assert len(instances) == 13

    def test_connectivity_lifted_to_shared_keys(self, mini_design):
        instances = basic_module_instances(mini_design)
        by_path = {inst.path: inst for inst in instances}
        # stage_a output and stage_b input of the same lane share a net key
        assert (
            by_path["lane0/sa"].outputs["mid"] == by_path["lane0/sb"].inputs["mid"]
        )
        # different lanes never share their internal nets
        assert (
            by_path["lane0/sa"].outputs["mid"]
            != by_path["lane1/sa"].outputs["mid"]
        )
        # the broadcast input is shared across lanes
        assert (
            by_path["lane0/sa"].inputs["vin"] == by_path["lane3/sa"].inputs["vin"]
        )

    def test_basic_root_returns_single_instance(self):
        db = DesignBuilder("d")
        m = db.module("only")
        m.inputs("a").outputs("y")
        m.instance("g", "NOT", a="a", y="y")
        m.build()
        design = db.top("only").build()
        instances = basic_module_instances(design)
        assert len(instances) == 1
        assert instances[0].path == ""

    def test_assign_aliases_merge_net_keys(self):
        db = DesignBuilder("d")
        m = db.module("leafm")
        m.inputs("i").outputs("o")
        m.instance("g", "NOT", a="i", y="o")
        m.build()
        m = db.module("top")
        m.inputs("x").outputs(("z", 1))
        m.nets("a", "b")
        m.assign("a", "b")
        m.instance("u0", "leafm", i="x", o="b")
        m.instance("u1", "leafm", i="a", o="z")
        m.build()
        design = db.top("top").build()
        instances = basic_module_instances(design)
        by_path = {inst.path: inst for inst in instances}
        assert by_path["u0"].outputs["o"] == by_path["u1"].inputs["i"]


class TestResourceEstimation:
    def test_primitive_costs_sum(self, mini_design):
        stage_a = mini_design.require_module("stage_a")
        expected = cell_cost("BFP_MAC") * 2
        assert module_self_resources(stage_a) == expected

    def test_declared_resources_override(self):
        db = DesignBuilder("d")
        declared = ResourceVector(luts=1234.0)
        m = db.module("macro")
        m.attribute("resources", declared)
        m.instance("g", "DFF")  # ignored by the override
        m.build()
        design = db.top("macro").build()
        assert instance_resources(design, "macro") == declared

    def test_declared_resources_accept_dict(self):
        db = DesignBuilder("d")
        m = db.module("macro")
        m.attribute("resources", {"luts": 10.0, "dsps": 2.0})
        m.build()
        design = db.top("macro").build()
        assert instance_resources(design, "macro").dsps == 2.0

    def test_hierarchical_sum(self, mini_design):
        lane = instance_resources(mini_design, "lane")
        parts = (
            instance_resources(mini_design, "stage_a")
            + instance_resources(mini_design, "stage_b")
            + instance_resources(mini_design, "stage_c")
        )
        assert lane == parts

    def test_design_resources_scale_with_instances(self, mini_design):
        total = design_resources(mini_design)
        lane = instance_resources(mini_design, "lane")
        decoder = instance_resources(mini_design, "decoder")
        expected = decoder + lane * 4
        assert list(total) == pytest.approx(list(expected))

    def test_primitive_as_instance(self, mini_design):
        assert instance_resources(mini_design, "DFF") == cell_cost("DFF")
