"""Pattern-oblivious (flat) partitioning — the comparison point.

Existing HS abstractions use a *single-level* structure (paper Section 2.1):
without the pattern tree, partitioning an accelerator is a general balanced
graph-bisection problem over the leaf blocks.  This module implements that
approach (Kernighan–Lin bisection over the leaf connectivity graph, the
standard heuristic ViTAL-class tools use) so benchmarks can quantify what
the parallel patterns buy:

* **time** — the pattern-guided split is linear in the children of one
  node; KL iterates over all leaf pairs;
* **quality** — KL balances leaf *counts* and can cut through the wide
  internal edges of a SIMD lane's pipeline, while the pattern-guided tool
  only ever cuts at data-parallel boundaries or the narrowest pipeline
  stage (the property behind Table 4's low interface overhead).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import PartitionError
from .patterns import PatternKind
from .softblock import SoftBlock


def leaf_connectivity_graph(tree: SoftBlock):
    """Reconstruct the leaf-level connectivity graph (an undirected
    ``networkx.Graph``) from a pattern tree.

    Pipeline stages connect head-to-tail with the stage's recorded
    ``out_bits`` as the edge weight; data-parallel children are mutually
    unconnected.  ``head``/``tail`` of a composite follow the dataflow:
    first/last child of a pipeline, all children of a data node.
    """
    import networkx as nx  # lazily: only this ablation needs it

    graph = nx.Graph()

    def heads(block: SoftBlock) -> list:
        if block.is_leaf:
            return [block]
        if block.kind is PatternKind.PIPELINE:
            return heads(block.children[0])
        return [leaf for child in block.children for leaf in heads(child)]

    def tails(block: SoftBlock) -> list:
        if block.is_leaf:
            return [block]
        if block.kind is PatternKind.PIPELINE:
            return tails(block.children[-1])
        return [leaf for child in block.children for leaf in tails(child)]

    def walk(block: SoftBlock) -> None:
        if block.is_leaf:
            graph.add_node(block.block_id, block=block)
            return
        for child in block.children:
            walk(child)
        if block.kind is PatternKind.PIPELINE:
            for left, right in zip(block.children, block.children[1:]):
                bits = max(1, left.out_bits)
                for tail in tails(left):
                    for head in heads(right):
                        graph.add_edge(
                            tail.block_id, head.block_id, bits=bits
                        )

    walk(tree)
    # The scatter/gather traffic: every dataflow head receives the broadcast
    # input, every tail returns results.  Represent it with an ``"io"`` node
    # so cuts that strand leaves away from the I/O side pay for it — the
    # same accounting the pattern-guided data split uses.
    graph.add_node("io", block=None)
    for head in heads(tree):
        graph.add_edge("io", head.block_id, bits=max(1, head.in_bits))
    for tail in tails(tree):
        key = ("io", tail.block_id)
        if graph.has_edge(*key):
            graph.edges[key]["bits"] += max(1, tail.out_bits)
        else:
            graph.add_edge("io", tail.block_id, bits=max(1, tail.out_bits))
    return graph


def pipelines_cut(tree: SoftBlock, left_leaf_ids: set) -> int:
    """How many SIMD-lane pipelines a partition slices through.

    The pattern-guided partitioner never splits a pipeline whose parent is
    a DATA node (the property that keeps Table 4's interface overhead low);
    a flat bisection frequently does.
    """
    violations = 0

    def walk(block: SoftBlock, inside_data: bool) -> None:
        nonlocal violations
        if block.kind is PatternKind.PIPELINE and inside_data:
            sides = {
                leaf.block_id in left_leaf_ids for leaf in block.leaves()
            }
            if len(sides) == 2:
                violations += 1
            return  # count each lane once
        for child in block.children:
            walk(child, inside_data or block.kind is PatternKind.DATA)

    walk(tree, False)
    return violations


@dataclass
class FlatBipartition:
    """Result of one pattern-oblivious bisection."""

    left_leaf_ids: set
    right_leaf_ids: set
    cut_bits: int
    elapsed_s: float

    @property
    def balance(self) -> float:
        """Fraction of leaves on the smaller side (0.5 = perfectly even)."""
        small = min(len(self.left_leaf_ids), len(self.right_leaf_ids))
        total = len(self.left_leaf_ids) + len(self.right_leaf_ids)
        return small / total if total else 0.0


def flat_bipartition(tree: SoftBlock, seed: int = 0) -> FlatBipartition:
    """Bisect the leaf graph with Kernighan–Lin, ignoring patterns."""
    from networkx.algorithms.community import kernighan_lin_bisection

    graph = leaf_connectivity_graph(tree)
    if graph.number_of_nodes() - 1 < 2:  # minus the io node
        raise PartitionError("flat bisection needs at least two leaves")
    started = time.perf_counter()
    left, right = kernighan_lin_bisection(
        graph, weight="bits", seed=seed
    )
    elapsed = time.perf_counter() - started
    cut = sum(
        data["bits"]
        for a, b, data in graph.edges(data=True)
        if (a in left) != (b in left)
    )
    left_ids = {n for n in left if n != "io"}
    right_ids = {n for n in right if n != "io"}
    return FlatBipartition(
        left_leaf_ids=left_ids,
        right_leaf_ids=right_ids,
        cut_bits=int(cut),
        elapsed_s=elapsed,
    )


def pattern_guided_bipartition(tree: SoftBlock) -> tuple:
    """The framework's split, with timing, for like-for-like comparison.

    Returns ``(cut_bits, elapsed_s)``.
    """
    from .partition import Partitioner

    started = time.perf_counter()
    result = Partitioner().partition(tree, iterations=1)
    elapsed = time.perf_counter() - started
    if not result.root.is_split:
        raise PartitionError("tree is not splittable")
    return result.root.cut_bits, elapsed


def compare_partitioners(tree: SoftBlock, seed: int = 0) -> dict:
    """Run both partitioners on one tree; returns the comparison record."""
    flat = flat_bipartition(tree, seed=seed)
    guided_cut, guided_elapsed = pattern_guided_bipartition(tree)
    return {
        "leaves": len(tree.leaves()),
        "flat_cut_bits": flat.cut_bits,
        "flat_elapsed_s": flat.elapsed_s,
        "flat_balance": flat.balance,
        "flat_pipelines_cut": pipelines_cut(tree, flat.left_leaf_ids),
        "guided_cut_bits": guided_cut,
        "guided_elapsed_s": guided_elapsed,
        "guided_pipelines_cut": 0,  # by construction: data-boundary cuts only
    }
