"""Decomposing-tool tests: the five-step flow on hand-built and generated
designs (paper Section 2.2.1)."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.accel import BW_K115, BW_V37, CONTROL_MODULES, generate_accelerator
from repro.core import PatternKind, decompose
from repro.core.decompose import Decomposer, _BlockGraph, _contract, _residual_order
from repro.errors import DecomposeError
from repro.rtl import design_resources
from repro.rtl.builder import DesignBuilder


class TestControlDataSplit:
    def test_control_block_role(self, mini_decomposed):
        from repro.core import BlockRole

        assert mini_decomposed.control.role is BlockRole.CONTROL

    def test_control_collects_marked_instances(self, mini_decomposed):
        assert mini_decomposed.control.metadata["instances"] == ["dec"]

    def test_resources_conserved(self, mini_design, mini_decomposed):
        total = mini_decomposed.total_resources()
        assert list(total) == pytest.approx(list(design_resources(mini_design)))

    def test_missing_control_mark_raises(self, mini_design):
        with pytest.raises(DecomposeError, match="control"):
            decompose(mini_design, control_modules={"not_a_module"})

    def test_all_control_raises(self, mini_design):
        every = set(mini_design.modules)
        with pytest.raises(DecomposeError):
            decompose(mini_design, control_modules=every)

    def test_control_by_instance_path_segment(self, mini_design):
        # Marking by instance name also works (paths are matched).
        result = decompose(mini_design, control_modules={"dec"})
        assert result.control.metadata["instances"] == ["dec"]


class TestPatternExtraction:
    def test_mini_design_data_root(self, mini_decomposed):
        root = mini_decomposed.data_root
        assert root.kind is PatternKind.DATA
        assert len(root.children) == 4

    def test_lanes_are_pipelines(self, mini_decomposed):
        for lane in mini_decomposed.data_root.children:
            assert lane.kind is PatternKind.PIPELINE
            assert len(lane.children) == 3

    def test_scale_down_supported(self, mini_decomposed):
        assert mini_decomposed.supports_scale_down()
        assert mini_decomposed.root_pattern is PatternKind.DATA

    def test_pipeline_bandwidths_recorded(self, mini_decomposed):
        lane = mini_decomposed.data_root.children[0]
        # stage_a -> stage_b over a 32-bit net, stage_b -> stage_c over 24.
        assert lane.children[0].out_bits == 32
        assert lane.children[1].out_bits == 24

    def test_stats_counters(self, mini_decomposed):
        stats = mini_decomposed.stats
        assert stats.basic_blocks == 12  # 4 lanes x 3 stages
        assert stats.control_blocks == 1
        assert stats.pipeline_merges >= 1
        assert stats.data_merges >= 1
        assert stats.residual_roots == 1

    def test_pure_pipeline_design(self):
        db = DesignBuilder("chain")
        for name in ("s0", "s1", "s2"):
            m = db.module(name)
            m.inputs("clk", ("i", 8)).outputs(("o", 8))
            m.instance("g", "DFF", clk="clk")
            m.build()
        m = db.module("ctl")
        m.inputs("clk").outputs(("c", 4))
        m.instance("g", "DFF", clk="clk")
        m.build()
        m = db.module("top")
        m.inputs("clk", ("x", 8)).outputs(("y", 8))
        m.nets(("a", 8), ("b", 8), ("c", 4))
        m.instance("c0", "ctl", clk="clk", c="c")
        m.instance("u0", "s0", clk="clk", i="x", o="a")
        m.instance("u1", "s1", clk="clk", i="a", o="b")
        m.instance("u2", "s2", clk="clk", i="b", o="y")
        m.build()
        db.top("top")
        result = decompose(db.build(), control_modules={"ctl"})
        assert result.data_root.kind is PatternKind.PIPELINE
        assert len(result.data_root.children) == 3
        assert not result.supports_scale_down()

    def test_intra_block_lanes_extracted(self):
        """A basic module with equivalent independent components splits
        (paper Fig. 4a)."""
        db = DesignBuilder("intra")
        m = db.module("ctl")
        m.inputs("clk")
        m.instance("g", "DFF", clk="clk")
        m.build()
        m = db.module("simd")
        m.inputs("clk", ("v", 64)).outputs(("o", 64))
        for lane in range(4):
            m.net(f"mid{lane}", 16)
            m.instance(f"mul{lane}", "FP16_MUL", clk="clk", y=f"mid{lane}")
            m.instance(f"add{lane}", "FP16_ADD", clk="clk", a=f"mid{lane}")
        m.build()
        m = db.module("top")
        m.inputs("clk", ("v", 64)).outputs(("o", 64))
        m.instance("c", "ctl", clk="clk")
        m.instance("s", "simd", clk="clk", v="v", o="o")
        m.build()
        db.top("top")
        result = decompose(db.build(), control_modules={"ctl"})
        assert result.data_root.kind is PatternKind.DATA
        assert len(result.data_root.children) == 4
        assert result.stats.intra_block_splits == 1

    def test_intra_block_disabled(self):
        tool = Decomposer(extract_intra_block=False)
        db = DesignBuilder("intra2")
        m = db.module("ctl")
        m.inputs("clk")
        m.instance("g", "DFF", clk="clk")
        m.build()
        m = db.module("simd")
        m.inputs("clk")
        m.instance("a", "NOT")
        m.instance("b", "NOT")
        m.build()
        m = db.module("top")
        m.inputs("clk")
        m.instance("c", "ctl", clk="clk")
        m.instance("s", "simd", clk="clk")
        m.build()
        db.top("top")
        result = tool.decompose(db.build(), control_modules={"ctl"})
        assert result.stats.intra_block_splits == 0

    def test_heterogeneous_components_not_split(self):
        """Independent but non-equivalent components stay one leaf."""
        db = DesignBuilder("het")
        m = db.module("ctl")
        m.inputs("clk")
        m.instance("g", "DFF", clk="clk")
        m.build()
        m = db.module("mixed")
        m.inputs("clk")
        m.instance("a", "FP16_MUL", clk="clk")
        m.instance("b", "INT_ADD")
        m.build()
        m = db.module("top")
        m.inputs("clk")
        m.instance("c", "ctl", clk="clk")
        m.instance("s", "mixed", clk="clk")
        m.build()
        db.top("top")
        result = decompose(db.build(), control_modules={"ctl"})
        assert result.stats.intra_block_splits == 0


class TestGeneratedAccelerator:
    @pytest.mark.parametrize("tiles", [2, 5, 21])
    def test_v37_decomposes_to_data_root(self, tiles):
        config = BW_V37.with_tiles(tiles, name=f"t{tiles}")
        result = decompose(generate_accelerator(config), CONTROL_MODULES)
        assert result.data_root.kind is PatternKind.DATA
        assert len(result.data_root.children) == tiles
        assert result.supports_scale_down()

    def test_lane_pipeline_depth(self, small_accel_decomposed):
        lane = small_accel_decomposed.data_root.children[0]
        assert lane.kind is PatternKind.PIPELINE
        # weight_mem -> mac_array -> lane_acc -> mfu_slice
        assert len(lane.children) == 4

    def test_k115_instance(self):
        result = decompose(
            generate_accelerator(BW_K115.with_tiles(3, name="k3")),
            CONTROL_MODULES,
        )
        assert result.data_root.kind is PatternKind.DATA
        # K115 memory plan uses no URAM.
        assert result.data_root.resources().uram_bits == 0

    def test_lanes_structurally_equivalent(self, small_accel_decomposed):
        signatures = {
            child.signature
            for child in small_accel_decomposed.data_root.children
        }
        assert len(signatures) == 1

    def test_decomposition_deterministic(self, small_accel_config):
        a = decompose(generate_accelerator(small_accel_config), CONTROL_MODULES)
        b = decompose(generate_accelerator(small_accel_config), CONTROL_MODULES)
        assert a.data_root.signature == b.data_root.signature
        assert a.stats.basic_blocks == b.stats.basic_blocks


class TestEdgeCases:
    def test_empty_data_path_rejected(self):
        db = DesignBuilder("d")
        m = db.module("ctl")
        m.inputs("clk")
        m.instance("g", "DFF", clk="clk")
        m.build()
        m = db.module("top")
        m.inputs("clk")
        m.instance("c", "ctl", clk="clk")
        m.build()
        db.top("top")
        with pytest.raises(DecomposeError):
            decompose(db.build(), control_modules={"ctl"})

    def test_single_data_block(self):
        db = DesignBuilder("single")
        m = db.module("ctl")
        m.inputs("clk")
        m.instance("g", "DFF", clk="clk")
        m.build()
        m = db.module("worker")
        m.inputs("clk")
        m.instance("g", "FP16_MUL", clk="clk")
        m.build()
        m = db.module("top")
        m.inputs("clk")
        m.instance("c", "ctl", clk="clk")
        m.instance("w", "worker", clk="clk")
        m.build()
        db.top("top")
        result = decompose(db.build(), control_modules={"ctl"})
        assert result.data_root.kind is PatternKind.LEAF


def _decompose_stages(name, stages, nets):
    """Decompose a flat design: one single-gate module per stage, each
    ``(instance, cell, inputs, outputs)`` with port -> net maps over the
    8-bit ``nets`` of the top module, plus a control module."""
    db = DesignBuilder(name)
    m = db.module("ctl")
    m.inputs("clk")
    m.instance("g", "DFF", clk="clk")
    m.build()
    for inst, cell, ins, outs in stages:
        m = db.module(f"m_{inst}")
        m.inputs("clk", *[(p, 8) for p in ins]).outputs(*[(p, 8) for p in outs])
        m.instance("g", cell)
        m.build()
    m = db.module("top")
    m.inputs("clk")
    m.nets(*[(n, 8) for n in nets])
    m.instance("c", "ctl", clk="clk")
    for inst, cell, ins, outs in stages:
        m.instance(inst, f"m_{inst}", clk="clk", **ins, **outs)
    m.build()
    db.top("top")
    return decompose(db.build(), control_modules={"ctl"})


class TestResidualWrap:
    """An irregular residue is wrapped in ``pipe[residual]``.  The stage
    orders below were recorded with the networkx implementation
    (``topological_sort``, node order on a cycle)."""

    def test_several_roots_in_generation_order(self):
        # Two unrelated sources feed y, which feeds two unrelated sinks:
        # nothing merges.  Declared out of order, so topological order
        # (sources in node order, then y's successors in edge order)
        # differs from node order (z2, x2, y, z1, x1).
        result = _decompose_stages("roots", [
            ("z2", "NOT", {"i": "n2"}, {}),
            ("x2", "AND2", {}, {"o": "a2"}),
            ("y", "XOR2", {"i1": "a1", "i2": "a2"}, {"o1": "n1", "o2": "n2"}),
            ("z1", "NAND2", {"i": "n1"}, {}),
            ("x1", "OR2", {}, {"o": "a1"}),
        ], ["a1", "a2", "n1", "n2"])
        root = result.data_root
        assert root.name == "pipe[residual]"
        assert root.metadata["irregular"] is True
        assert result.stats.residual_roots == 5
        assert [c.name for c in root.children] == ["x2", "x1", "y", "z1", "z2"]

    def test_cycle_keeps_node_order(self):
        # p <-> q and p <-> r are cycles; s is a source feeding p.  No
        # topological order exists, so the residue keeps node order even
        # though s could go first.
        result = _decompose_stages("cycle", [
            ("r", "NOT", {"i": "pr"}, {"o": "rp"}),
            ("p", "XOR2", {"i1": "qp", "i2": "rp", "i3": "sp"},
             {"o1": "pq", "o2": "pr"}),
            ("q", "NAND2", {"i": "pq"}, {"o": "qp"}),
            ("s", "OR2", {}, {"o": "sp"}),
        ], ["pq", "qp", "pr", "rp", "sp"])
        root = result.data_root
        assert root.name == "pipe[residual]"
        assert result.stats.residual_roots == 4
        assert [c.name for c in root.children] == ["r", "p", "q", "s"]


def _networkx_contract(graph, members, parent):
    """The networkx implementation ``_contract`` replaced, as a reference."""
    member_set = set(members)
    new_node = max(graph.nodes) + 1
    in_edges, out_edges = {}, {}
    for node in members:
        for pred in graph.predecessors(node):
            if pred not in member_set:
                in_edges[pred] = in_edges.get(pred, 0) + graph.edges[pred, node]["bits"]
        for succ in graph.successors(node):
            if succ not in member_set:
                out_edges[succ] = out_edges.get(succ, 0) + graph.edges[node, succ]["bits"]
    graph.remove_nodes_from(members)
    graph.add_node(new_node, block=parent)
    for pred, bits in in_edges.items():
        graph.add_edge(pred, new_node, bits=bits)
    for succ, bits in out_edges.items():
        graph.add_edge(new_node, succ, bits=bits)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 64)),
             max_size=24),
    st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=4), max_size=3),
)
def test_block_graph_orders_match_networkx(nodes, edges, contractions):
    """The dict block graph keeps networkx's orders through edge merging
    and contraction: nodes, successors and predecessors (with bits), the
    edge list and the residual order (node order on a cycle)."""
    import networkx as nx

    graph, reference = _BlockGraph(), nx.DiGraph()
    for node in range(nodes):
        graph.add_node(node, f"b{node}")
        reference.add_node(node, block=f"b{node}")
    for src, dst, bits in edges:
        src, dst = src % nodes, dst % nodes
        if src == dst:
            continue
        graph.add_bits(src, dst, bits)
        if reference.has_edge(src, dst):
            reference.edges[src, dst]["bits"] += bits
        else:
            reference.add_edge(src, dst, bits=bits)
    for step, picks in enumerate(contractions):
        present = list(graph.blocks)
        members = list(dict.fromkeys(present[i % len(present)] for i in picks))
        _contract(graph, members, f"c{step}")
        _networkx_contract(reference, members, f"c{step}")
    assert list(graph.blocks) == list(reference.nodes)
    assert list(graph.blocks.values()) == [
        data["block"] for _, data in reference.nodes(data=True)
    ]
    for node in reference.nodes:
        assert list(graph.succ[node].items()) == [
            (dst, data["bits"]) for dst, data in reference.succ[node].items()
        ]
        assert list(graph.pred[node].items()) == [
            (src, data["bits"]) for src, data in reference.pred[node].items()
        ]
    assert graph.edges() == list(reference.edges)
    try:
        expected = list(nx.topological_sort(reference))
    except nx.NetworkXUnfeasible:
        expected = list(reference.nodes)
    assert _residual_order(graph) == expected


#: Every model the four e2e workloads deploy; their catalog builds the ten
#: (tiles, device type) designs pinned below.
E2E_MODELS = (
    "gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25",
    "gru-h1536-t375", "lstm-h1536-t50", "gru-h2304-t250",
)

#: sha256 prefixes of each design's decomposed tree (control block, then
#: data root): per block its depth, kind, name, signature and in/out bits,
#: in child order.  Recorded with the networkx implementation; the fig12
#: timing goldens would not see a change of child order.
TREE_PINS = {
    (2, "XCKU115"): "76624e18e928f3ee",
    (2, "XCVU37P"): "6509cb2cdfd33a52",
    (3, "XCKU115"): "c0e7e9a181a5a1f9",
    (3, "XCVU37P"): "5124dfa83338f5f1",
    (4, "XCKU115"): "40f0d1da678a90b8",
    (5, "XCVU37P"): "24d36c5244ed6bed",
    (6, "XCVU37P"): "e59015def9fb9259",
    (13, "XCKU115"): "626ed64042f3dbe6",
    (19, "XCVU37P"): "3e854ce53ee23908",
    (21, "XCVU37P"): "2c6f26d82e5c5ff5",
}


def _tree_digest(decomposed) -> str:
    lines = []

    def walk(block, depth):
        lines.append(
            f"{depth}|{block.kind.value}|{block.name}|{block.signature}"
            f"|{block.in_bits}|{block.out_bits}"
        )
        for child in block.children:
            walk(child, depth + 1)

    walk(decomposed.control, 0)
    lines.append("--")
    walk(decomposed.data_root, 0)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def test_e2e_catalog_trees_pinned():
    from repro.runtime import Catalog

    catalog = Catalog()
    for key in E2E_MODELS:
        catalog.entry_by_key(key)
    digests = {
        key: _tree_digest(decomposed)
        for key, decomposed in catalog._design_cache.items()
    }
    assert digests == TREE_PINS
