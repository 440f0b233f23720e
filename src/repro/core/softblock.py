"""Soft blocks: the nodes of the system abstraction.

A soft block (paper Section 2.1) either

* is a **leaf** containing a basic module (a Verilog module that does not
  instantiate other Verilog modules), or
* has children connected in one of the two primitive parallel patterns.

Unlike HS-abstraction virtual blocks, soft blocks carry **no spatial
resource constraint** — their resource demand is whatever their contents
need.  That is the property that lets the decomposing step run unconstrained
and lets the abstraction present a homogeneous resource pool over
heterogeneous FPGAs.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ..errors import MappingError
from ..resources import ResourceVector, total
from .patterns import BlockRole, PatternKind

_block_ids = itertools.count(1)


def _next_id() -> int:
    return next(_block_ids)


class SoftBlock:
    """A node in a soft-block tree.

    Attributes:
        block_id: process-unique integer id (deterministic within a run).
        name: human-readable label (module/instance derived).
        kind: :class:`PatternKind` — LEAF, DATA or PIPELINE.
        role: control-path or data-path block.
        children: child blocks; pipeline order is list order.
        module_name / instance_path: leaf payload — which basic module this
            block wraps and where it sits in the source hierarchy.
        signature: structural-equivalence class of the contents (leaves get
            it from the RTL equivalence checker; composites derive it from
            children), used when merging data-parallel groups.
        in_bits / out_bits: interface width in bits; for pipeline children
            the ``out_bits`` of stage *i* is the bandwidth of the edge to
            stage *i+1*, which the partitioner minimises over.
    """

    def __init__(
        self,
        name: str,
        kind: PatternKind,
        role: BlockRole = BlockRole.DATA,
        children: list | None = None,
        module_name: str | None = None,
        instance_path: str | None = None,
        signature: str | None = None,
        resources: ResourceVector | None = None,
        in_bits: int = 0,
        out_bits: int = 0,
        metadata: dict | None = None,
    ):
        self.block_id = _next_id()
        self.name = name
        self.kind = kind
        self.role = role
        self.children: list[SoftBlock] = list(children or [])
        self.module_name = module_name
        self.instance_path = instance_path
        self._resources = resources
        self.in_bits = in_bits
        self.out_bits = out_bits
        self.metadata: dict = dict(metadata or {})
        if signature is not None:
            self.signature = signature
        else:
            self.signature = self._derive_signature()

        if kind is PatternKind.LEAF and self.children:
            raise MappingError(f"leaf block {name!r} cannot have children")
        if kind.is_composite and len(self.children) < 2:
            raise MappingError(
                f"{kind.value} block {name!r} needs at least 2 children, "
                f"got {len(self.children)}"
            )

    # -- structure -----------------------------------------------------------

    def _derive_signature(self) -> str:
        if self.kind is PatternKind.LEAF:
            return f"leaf:{self.module_name or self.name}"
        inner = ",".join(child.signature for child in self.children)
        return f"{self.kind.value}({inner})"

    @property
    def is_leaf(self) -> bool:
        """True when this block wraps a basic module directly."""
        return self.kind is PatternKind.LEAF

    def iter_blocks(self) -> Iterator["SoftBlock"]:
        """Pre-order traversal over this subtree."""
        yield self
        for child in self.children:
            yield from child.iter_blocks()

    def leaves(self) -> list["SoftBlock"]:
        """All leaf blocks in this subtree, left-to-right."""
        return [block for block in self.iter_blocks() if block.is_leaf]

    def depth(self) -> int:
        """Tree depth (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def count(self) -> int:
        """Number of blocks in this subtree."""
        return sum(1 for _ in self.iter_blocks())

    # -- resources ---------------------------------------------------------------

    def resources(self) -> ResourceVector:
        """Aggregate resource demand of the subtree.

        Leaves carry their basic module's estimated cost; composites sum
        their children.  A block constructed with an explicit resource
        vector (e.g. an intra-block data-parallel slice) reports that.
        """
        if self._resources is not None:
            return self._resources
        return total(child.resources() for child in self.children)

    # -- editing -------------------------------------------------------------------

    def clone(self) -> "SoftBlock":
        """Deep copy with fresh block ids."""
        return SoftBlock(
            name=self.name,
            kind=self.kind,
            role=self.role,
            children=[child.clone() for child in self.children],
            module_name=self.module_name,
            instance_path=self.instance_path,
            signature=self.signature,
            resources=self._resources,
            in_bits=self.in_bits,
            out_bits=self.out_bits,
            metadata=dict(self.metadata),
        )

    # -- display --------------------------------------------------------------------

    def label(self) -> str:
        """Short one-line description for tree rendering."""
        from .patterns import describe_pattern

        pattern = describe_pattern(self.kind, len(self.children))
        return f"{self.name} [{pattern}] {self.resources().describe()}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SoftBlock(#{self.block_id} {self.name!r} {self.kind.value} "
            f"children={len(self.children)})"
        )


# ---------------------------------------------------------------------------
# Constructors — the pattern algebra
# ---------------------------------------------------------------------------


def leaf_block(
    name: str,
    module_name: str | None = None,
    resources: ResourceVector | None = None,
    role: BlockRole = BlockRole.DATA,
    signature: str | None = None,
    instance_path: str | None = None,
    in_bits: int = 0,
    out_bits: int = 0,
    metadata: dict | None = None,
) -> SoftBlock:
    """Create a leaf soft block wrapping one basic module."""
    return SoftBlock(
        name=name,
        kind=PatternKind.LEAF,
        role=role,
        module_name=module_name or name,
        instance_path=instance_path,
        signature=signature,
        resources=resources or ResourceVector.zero(),
        in_bits=in_bits,
        out_bits=out_bits,
        metadata=metadata,
    )


def data_block(name: str, children: list, **kwargs) -> SoftBlock:
    """Create a data-parallel parent over ``children``."""
    return SoftBlock(name=name, kind=PatternKind.DATA, children=children, **kwargs)


def pipeline_block(name: str, children: list, **kwargs) -> SoftBlock:
    """Create a pipeline parent; stage order is list order."""
    return SoftBlock(name=name, kind=PatternKind.PIPELINE, children=children, **kwargs)


def reduction_block(name: str, mappers: list, combiners: list) -> SoftBlock:
    """The paper's Fig. 2c example: reduction from the two primitives.

    A reduction is a data-parallel map stage feeding a pipeline of
    combiners — demonstrating that complex patterns are expressible with
    DATA and PIPELINE alone.
    """
    map_stage = data_block(f"{name}/map", mappers)
    if len(combiners) == 1:
        stages = [map_stage, combiners[0]]
    else:
        stages = [map_stage, pipeline_block(f"{name}/combine", combiners)]
    return pipeline_block(name, stages)
