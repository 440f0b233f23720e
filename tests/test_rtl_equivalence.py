"""Tests for structural equivalence checking — the mechanism behind
data-parallelism detection (paper Fig. 4a/4b)."""

import pytest

from repro.rtl import equivalence
from repro.rtl.builder import DesignBuilder
from repro.rtl.equivalence import modules_equivalent, structural_signature


def _two_stage_module(db, name, cell="FP16_ADD"):
    m = db.module(name)
    m.inputs("clk", ("a", 16)).outputs(("y", 16))
    m.net("mid", 16)
    m.instance("u0", cell, clk="clk", a="a", y="mid")
    m.instance("u1", cell, clk="clk", a="mid", y="y")
    return m.build()


@pytest.fixture(autouse=True)
def _fresh_cache():
    equivalence._signature_cache.clear()
    yield
    equivalence._signature_cache.clear()


class TestSignatures:
    def test_same_module_same_signature(self):
        db = DesignBuilder("d")
        _two_stage_module(db, "m")
        design = db.top("m").build()
        assert structural_signature(design, "m") == structural_signature(
            design, "m"
        )

    def test_identical_structure_different_names(self):
        db = DesignBuilder("d")
        _two_stage_module(db, "alpha")
        _two_stage_module(db, "beta")
        design = db.top("alpha").build()
        assert structural_signature(design, "alpha") == structural_signature(
            design, "beta"
        )

    def test_different_cells_differ(self):
        db = DesignBuilder("d")
        _two_stage_module(db, "adds", cell="FP16_ADD")
        _two_stage_module(db, "muls", cell="FP16_MUL")
        design = db.top("adds").build()
        assert structural_signature(design, "adds") != structural_signature(
            design, "muls"
        )

    def test_different_connectivity_differs(self):
        db = DesignBuilder("d")
        _two_stage_module(db, "chain")
        m = db.module("parallel")
        m.inputs("clk", ("a", 16)).outputs(("y", 16))
        m.net("mid", 16)
        m.instance("u0", "FP16_ADD", clk="clk", a="a", y="mid")
        m.instance("u1", "FP16_ADD", clk="clk", a="a", y="y")
        m.build()
        design = db.top("chain").build()
        assert structural_signature(design, "chain") != structural_signature(
            design, "parallel"
        )

    def test_interface_width_matters(self):
        db = DesignBuilder("d")
        m = db.module("narrow")
        m.inputs(("a", 8)).outputs(("y", 8))
        m.build()
        m = db.module("wide")
        m.inputs(("a", 16)).outputs(("y", 16))
        m.build()
        design = db.top("narrow").build()
        assert structural_signature(design, "narrow") != structural_signature(
            design, "wide"
        )

    def test_port_names_abstracted(self):
        db = DesignBuilder("d")
        m = db.module("p")
        m.inputs(("left", 8)).outputs(("out", 8))
        m.build()
        m = db.module("q")
        m.inputs(("right", 8)).outputs(("res", 8))
        m.build()
        design = db.top("p").build()
        assert structural_signature(design, "p") == structural_signature(
            design, "q"
        )

    def test_equiv_class_attribute_separates(self):
        db = DesignBuilder("d")
        m = db.module("a1")
        m.attribute("equiv_class", "one")
        m.build()
        m = db.module("a2")
        m.attribute("equiv_class", "two")
        m.build()
        design = db.top("a1").build()
        assert structural_signature(design, "a1") != structural_signature(
            design, "a2"
        )

    def test_cache_survives_design_address_reuse(self):
        # The cache must key on Design.uid, not id(design): CPython
        # recycles addresses of collected objects, and an id-keyed cache
        # let a fresh design inherit a dead design's signatures (a rare
        # allocation-order-dependent flake in the determinism tests).
        from repro.rtl.equivalence import _signature_cache

        db = DesignBuilder("d1")
        _two_stage_module(db, "m", cell="FP16_ADD")
        first = db.top("m").build()
        sig_add = structural_signature(first, "m")
        uid_first = first.uid
        del first
        db = DesignBuilder("d2")
        _two_stage_module(db, "m", cell="FP16_MUL")
        second = db.top("m").build()
        # Even if the new design lands on the recycled address, its uid —
        # and therefore its cache row — is fresh.
        assert second.uid != uid_first
        assert structural_signature(second, "m") != sig_add
        assert (second.uid, "m") in _signature_cache

    def test_primitive_signature(self):
        db = DesignBuilder("d")
        db.module("m").build()
        design = db.top("m").build()
        assert structural_signature(design, "DFF") == "cell:DFF"


class TestModulesEquivalent:
    def test_reflexive(self, mini_design):
        assert modules_equivalent(mini_design, "lane", "lane")

    def test_structural_copies(self):
        db = DesignBuilder("d")
        _two_stage_module(db, "alpha")
        _two_stage_module(db, "beta")
        design = db.top("alpha").build()
        assert modules_equivalent(design, "alpha", "beta")

    def test_rejects_different(self, mini_design):
        assert not modules_equivalent(mini_design, "stage_a", "stage_b")

    def test_primitives_compare_by_name(self, mini_design):
        assert modules_equivalent(mini_design, "DFF", "DFF")
        assert not modules_equivalent(mini_design, "DFF", "DFFE")

    def test_module_vs_primitive(self, mini_design):
        assert not modules_equivalent(mini_design, "stage_a", "DFF")

    def test_hierarchical_equivalence(self):
        """Two wrappers over equivalent submodules are equivalent."""
        db = DesignBuilder("d")
        _two_stage_module(db, "inner_a")
        _two_stage_module(db, "inner_b")
        for name, inner in (("wrap_a", "inner_a"), ("wrap_b", "inner_b")):
            m = db.module(name)
            m.inputs("clk", ("a", 16)).outputs(("y", 16))
            m.instance("core", inner, clk="clk", a="a", y="y")
            m.build()
        design = db.top("wrap_a").build()
        assert modules_equivalent(design, "wrap_a", "wrap_b")
