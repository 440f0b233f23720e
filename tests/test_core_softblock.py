"""Soft-block tree tests, including hypothesis properties on random trees."""

import pytest
from hypothesis import given, strategies as st

from repro.core import BlockRole, PatternKind, SoftBlock
from repro.core.patterns import describe_pattern
from repro.core.softblock import (
    data_block,
    leaf_block,
    pipeline_block,
    reduction_block,
)
from repro.errors import MappingError
from repro.resources import ResourceVector


def _leaf(name="leaf", luts=10.0):
    return leaf_block(name, resources=ResourceVector(luts=luts))


class TestConstruction:
    def test_leaf_has_no_children(self):
        block = _leaf()
        assert block.is_leaf
        assert block.kind is PatternKind.LEAF

    def test_leaf_rejects_children(self):
        with pytest.raises(MappingError):
            SoftBlock("bad", PatternKind.LEAF, children=[_leaf()])

    def test_composite_needs_two_children(self):
        with pytest.raises(MappingError):
            data_block("bad", [_leaf()])

    def test_block_ids_unique(self):
        a, b = _leaf("a"), _leaf("b")
        assert a.block_id != b.block_id

    def test_role_default_data(self):
        assert _leaf().role is BlockRole.DATA

    def test_control_role(self):
        block = leaf_block("ctl", role=BlockRole.CONTROL)
        assert block.role is BlockRole.CONTROL


class TestStructure:
    def test_leaves_left_to_right(self):
        tree = pipeline_block("p", [_leaf("a"), _leaf("b"), _leaf("c")])
        assert [leaf.name for leaf in tree.leaves()] == ["a", "b", "c"]

    def test_depth(self):
        inner = data_block("d", [_leaf(), _leaf()])
        tree = pipeline_block("p", [inner, _leaf()])
        assert tree.depth() == 3
        assert _leaf().depth() == 1

    def test_count(self):
        tree = data_block("d", [_leaf(), _leaf(), _leaf()])
        assert tree.count() == 4

    def test_iter_blocks_preorder(self):
        tree = pipeline_block("p", [_leaf("a"), _leaf("b")])
        names = [block.name for block in tree.iter_blocks()]
        assert names == ["p", "a", "b"]


class TestResources:
    def test_leaf_reports_own(self):
        assert _leaf(luts=7.0).resources().luts == 7.0

    def test_composite_sums_children(self):
        tree = data_block("d", [_leaf(luts=3.0), _leaf(luts=4.0)])
        assert tree.resources().luts == 7.0

    def test_nested_sum(self):
        inner = pipeline_block("p", [_leaf(luts=1.0), _leaf(luts=2.0)])
        tree = data_block("d", [inner, _leaf(luts=4.0)])
        assert tree.resources().luts == 7.0


class TestSignatures:
    def test_leaf_signature_from_module(self):
        assert leaf_block("x", module_name="mod").signature == "leaf:mod"

    def test_composite_signature_includes_pattern(self):
        tree = data_block("d", [_leaf("a"), _leaf("a")])
        assert tree.signature.startswith("data(")

    def test_pipeline_and_data_signatures_differ(self):
        children = lambda: [_leaf("a"), _leaf("a")]  # noqa: E731
        assert (
            data_block("d", children()).signature
            != pipeline_block("p", children()).signature
        )


class TestClone:
    def test_clone_is_deep_and_fresh_ids(self):
        tree = pipeline_block("p", [_leaf("a"), _leaf("b")])
        copy = tree.clone()
        assert copy.block_id != tree.block_id
        assert copy.signature == tree.signature
        assert [leaf.name for leaf in copy.leaves()] == ["a", "b"]
        copy.children[0].name = "mutated"
        assert tree.children[0].name == "a"

    def test_clone_preserves_resources(self):
        tree = data_block("d", [_leaf(luts=5.0), _leaf(luts=6.0)])
        assert tree.clone().resources() == tree.resources()


class TestReduction:
    def test_reduction_pattern_shape(self):
        """The paper's Fig. 2c: reduction = DATA stage + combiner pipeline."""
        tree = reduction_block(
            "red", [_leaf("m0"), _leaf("m1")], [_leaf("c0"), _leaf("c1")]
        )
        assert tree.kind is PatternKind.PIPELINE
        assert tree.children[0].kind is PatternKind.DATA
        assert tree.children[1].kind is PatternKind.PIPELINE

    def test_reduction_single_combiner(self):
        tree = reduction_block("red", [_leaf(), _leaf()], [_leaf("c")])
        assert len(tree.children) == 2
        assert tree.children[1].is_leaf


class TestDescribePattern:
    def test_leaf(self):
        assert describe_pattern(PatternKind.LEAF, 0) == "leaf"

    def test_data(self):
        assert describe_pattern(PatternKind.DATA, 4) == "data-parallel x4"

    def test_pipeline(self):
        assert "3 stages" in describe_pattern(PatternKind.PIPELINE, 3)


# -- hypothesis: random pattern trees ------------------------------------------


@st.composite
def soft_trees(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return leaf_block(
            f"l{draw(st.integers(0, 99))}",
            resources=ResourceVector(luts=float(draw(st.integers(1, 100)))),
        )
    kind = draw(st.sampled_from([data_block, pipeline_block]))
    count = draw(st.integers(2, 4))
    children = [draw(soft_trees(depth=depth - 1)) for _ in range(count)]
    return kind("node", children)


@given(soft_trees())
def test_leaf_count_matches_resources(tree):
    total = sum(leaf.resources().luts for leaf in tree.leaves())
    assert tree.resources().luts == pytest.approx(total)


@given(soft_trees())
def test_count_is_one_plus_children_counts(tree):
    assert tree.count() == 1 + sum(child.count() for child in tree.children)


@given(soft_trees())
def test_clone_preserves_structure(tree):
    copy = tree.clone()
    assert copy.count() == tree.count()
    assert copy.depth() == tree.depth()
    assert copy.signature == tree.signature
    original_ids = {block.block_id for block in tree.iter_blocks()}
    copy_ids = {block.block_id for block in copy.iter_blocks()}
    assert original_ids.isdisjoint(copy_ids)
