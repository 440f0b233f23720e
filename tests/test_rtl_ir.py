"""Tests for the structural RTL IR core types."""

import pytest

from repro.errors import RTLValidationError, UnknownModuleError
from repro.rtl.ir import Design, Direction, Module, Port


class TestPort:
    def test_positive_width_required(self):
        with pytest.raises(RTLValidationError):
            Port("a", Direction.INPUT, 0)


class TestModule:
    def test_port_creates_implicit_net(self):
        module = Module("m")
        module.add_port("a", Direction.INPUT, 8)
        assert module.nets["a"].width == 8

    def test_duplicate_port_rejected(self):
        module = Module("m")
        module.add_port("a", Direction.INPUT)
        with pytest.raises(RTLValidationError):
            module.add_port("a", Direction.OUTPUT)

    def test_duplicate_net_rejected(self):
        module = Module("m")
        module.add_net("n")
        with pytest.raises(RTLValidationError):
            module.add_net("n")

    def test_duplicate_instance_rejected(self):
        module = Module("m")
        module.add_instance("u0", "child")
        with pytest.raises(RTLValidationError):
            module.add_instance("u0", "child")

    def test_input_output_port_filters(self):
        module = Module("m")
        module.add_port("a", Direction.INPUT)
        module.add_port("y", Direction.OUTPUT)
        module.add_port("z", Direction.OUTPUT)
        assert [p.name for p in module.input_ports()] == ["a"]
        assert [p.name for p in module.output_ports()] == ["y", "z"]


class TestDesign:
    def test_top_unset_raises(self):
        with pytest.raises(RTLValidationError):
            Design("d").top_module

    def test_require_module_unknown(self):
        with pytest.raises(UnknownModuleError):
            Design("d").require_module("nope")

    def test_duplicate_module_rejected(self):
        design = Design("d")
        design.add_module(Module("m"))
        with pytest.raises(RTLValidationError):
            design.add_module(Module("m"))

    def test_ports_of_primitive(self):
        design = Design("d")
        ports = design.ports_of("DFF")
        assert set(ports) == {"clk", "d", "q"}

    def test_ports_of_unknown(self):
        with pytest.raises(UnknownModuleError):
            Design("d").ports_of("mystery")

    def test_reachable_modules(self, mini_design):
        reachable = mini_design.reachable_modules()
        assert reachable[0] == "top"
        assert "lane" in reachable and "stage_a" in reachable

    def test_submodule_names_excludes_primitives(self, mini_design):
        names = mini_design.submodule_names("lane")
        assert names == {"stage_a", "stage_b", "stage_c"}
