"""The decomposing tool (paper Section 2.2.1).

Decomposes an AS ISA-based accelerator, given as a structural RTL design,
onto the soft-block system abstraction using the *bottom-up* flow the paper
automates:

1. **Build block graph** — extract all basic modules of the data path, one
   leaf soft block each; edges come from shared nets (weights = net width).
2. **Extract intra-block data parallelism** — a basic module whose primitive
   network splits into k >= 2 equivalent independent components becomes a
   DATA block of k slices.
3. **Identify inter-block data parallelism** — structurally-equivalent
   sibling blocks with the same producers/consumers merge under a DATA
   parent (the paper's three cases are handled by normalising nested DATA
   nodes, see :func:`_normalise_data_children`).
4. **Identify pipeline parallelism** — linear producer/consumer chains merge
   under a PIPELINE parent; two adjacent DATA blocks with equal arity merge
   lane-wise into the two-level DATA-of-PIPELINE subtree of Fig. 4c.
5. **Iterate** — steps 3 and 4 repeat until no block can be merged.

The control path cannot be reliably identified automatically from RTL, so —
exactly as in the paper — the caller marks it by module name
(``control_modules=...``); those instances are kept in a single undivided
CONTROL block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DecomposeError
from ..resources import ResourceVector, total
from ..rtl import (
    Design,
    basic_module_instances,
    instance_resources,
    structural_signature,
    validate_design,
)
from ..rtl.hierarchy import BasicInstance
from ..rtl import primitives as rtl_primitives
from .patterns import BlockRole, PatternKind
from .softblock import SoftBlock, data_block, leaf_block, pipeline_block

#: Net names treated as global distribution networks (never data edges).
GLOBAL_NETS = ("clk", "clock", "rst", "reset", "rst_n", "en")


@dataclass
class DecomposeStats:
    """Bookkeeping about one decomposition run (used by reports/tests)."""

    basic_blocks: int = 0
    control_blocks: int = 0
    intra_block_splits: int = 0
    data_merges: int = 0
    pipeline_merges: int = 0
    iterations: int = 0
    residual_roots: int = 0
    events: list = field(default_factory=list)

    def note(self, message: str) -> None:
        self.events.append(message)


@dataclass
class DecomposedAccelerator:
    """Result of decomposing one accelerator design.

    ``control`` is the undivided control-path block; ``data_root`` is the
    root of the extracted soft-block tree for the data path.
    """

    name: str
    control: SoftBlock
    data_root: SoftBlock
    stats: DecomposeStats

    def total_resources(self) -> ResourceVector:
        """Control plus data-path demand."""
        return self.control.resources() + self.data_root.resources()

    @property
    def root_pattern(self) -> PatternKind:
        """Pattern of the data-path root — DATA enables the scale-out
        optimisation of Section 2.3."""
        return self.data_root.kind

    def supports_scale_down(self) -> bool:
        """True when the scale-down optimisation applies (root is DATA)."""
        return self.data_root.kind is PatternKind.DATA


@dataclass
class _BlockGraph:
    """The block graph on plain dicts: node -> block, plus ``succ``/``pred``
    maps of ``{node: bits}``.  Every dict iterates in insertion order, which
    fixes the merge order and so the extracted tree."""

    blocks: dict = field(default_factory=dict)
    succ: dict = field(default_factory=dict)
    pred: dict = field(default_factory=dict)

    def add_node(self, node, block: SoftBlock) -> None:
        self.blocks[node] = block
        self.succ[node] = {}
        self.pred[node] = {}

    def add_bits(self, src, dst, bits: int) -> None:
        """Add ``bits`` to edge ``src -> dst`` (created last if new)."""
        self.succ[src][dst] = self.succ[src].get(dst, 0) + bits
        self.pred[dst][src] = self.succ[src][dst]

    def edges(self) -> list:
        return [(src, dst) for src, dsts in self.succ.items() for dst in dsts]


class Decomposer:
    """Configurable decomposing tool; see module docstring for the steps."""

    def __init__(
        self,
        extract_intra_block: bool = True,
        max_iterations: int = 64,
    ):
        self.extract_intra_block = extract_intra_block
        self.max_iterations = max_iterations

    # -- public API ------------------------------------------------------------

    def decompose(
        self,
        design: Design,
        control_modules,
        name: str | None = None,
    ) -> DecomposedAccelerator:
        """Run the five-step flow on ``design``.

        ``control_modules`` is an iterable of module names whose instances
        form the control path (designer-provided, as in the paper).
        """
        validate_design(design)
        control_set = set(control_modules)
        stats = DecomposeStats()

        instances = basic_module_instances(design)
        if not instances:
            raise DecomposeError(f"design {design.name!r} has no basic modules")

        control_insts = [b for b in instances if self._is_control(b, control_set)]
        data_insts = [b for b in instances if not self._is_control(b, control_set)]
        if not data_insts:
            raise DecomposeError(
                "all basic modules were marked control; nothing to decompose"
            )
        if not control_insts:
            raise DecomposeError(
                f"no instance matched control modules {sorted(control_set)}; "
                "mark the control path by module name"
            )

        control = self._build_control_block(design, control_insts)
        stats.control_blocks = len(control_insts)

        graph = self._build_block_graph(design, data_insts, stats)
        stats.basic_blocks = len(graph.blocks)

        self._iterate_merges(graph, stats)

        data_root = self._finalise_root(graph, stats)
        return DecomposedAccelerator(
            name=name or design.name,
            control=control,
            data_root=data_root,
            stats=stats,
        )

    # -- step 1: block graph ------------------------------------------------------

    @staticmethod
    def _is_control(instance: BasicInstance, control_set) -> bool:
        if instance.module_name in control_set:
            return True
        return any(part in control_set for part in instance.path.split("/"))

    def _build_control_block(self, design: Design, control_insts) -> SoftBlock:
        resources = total(
            instance_resources(design, inst.module_name) for inst in control_insts
        )
        names = sorted({inst.module_name for inst in control_insts})
        return leaf_block(
            name="control",
            module_name="+".join(names),
            resources=resources,
            role=BlockRole.CONTROL,
            metadata={"instances": [inst.path for inst in control_insts]},
        )

    def _build_block_graph(
        self, design: Design, data_insts, stats: DecomposeStats
    ) -> _BlockGraph:
        graph = _BlockGraph()
        producers: dict[str, list] = {}
        consumers: dict[str, list] = {}

        for index, inst in enumerate(data_insts):
            module = design.require_module(inst.module_name)
            in_bits = sum(
                module.ports[p].width
                for p in inst.inputs
                if p in module.ports and not self._is_global_port(p)
            )
            out_bits = sum(
                module.ports[p].width for p in inst.outputs if p in module.ports
            )
            block = self._make_leaf(design, inst, in_bits, out_bits, stats)
            graph.add_node(index, block)
            for port_name, net_key in inst.outputs.items():
                width = module.ports[port_name].width if port_name in module.ports else 1
                producers.setdefault(net_key, []).append((index, width))
            for port_name, net_key in inst.inputs.items():
                if self._is_global_port(port_name):
                    continue
                width = module.ports[port_name].width if port_name in module.ports else 1
                consumers.setdefault(net_key, []).append((index, width))

        for net_key, outs in producers.items():
            for src, width in outs:
                for dst, _ in consumers.get(net_key, ()):
                    if src != dst:
                        graph.add_bits(src, dst, width)
        return graph

    @staticmethod
    def _is_global_port(port_name: str) -> bool:
        return port_name.lower() in GLOBAL_NETS

    def _make_leaf(
        self,
        design: Design,
        inst: BasicInstance,
        in_bits: int,
        out_bits: int,
        stats: DecomposeStats,
    ) -> SoftBlock:
        resources = instance_resources(design, inst.module_name)
        signature = structural_signature(design, inst.module_name)
        base = leaf_block(
            name=inst.path or inst.module_name,
            module_name=inst.module_name,
            resources=resources,
            signature=signature,
            instance_path=inst.path,
            in_bits=in_bits,
            out_bits=out_bits,
        )
        if not self.extract_intra_block:
            return base
        lanes = self._intra_block_lanes(design, inst.module_name)
        if lanes < 2:
            return base
        # Step 2 (Fig. 4a): replace the leaf by a DATA block of equal slices.
        stats.intra_block_splits += 1
        stats.note(f"intra-block split {inst.path or inst.module_name} x{lanes}")
        slices = [
            leaf_block(
                name=f"{base.name}#lane{i}",
                module_name=inst.module_name,
                resources=resources * (1.0 / lanes),
                signature=f"{signature}/lane",
                instance_path=inst.path,
                in_bits=max(1, in_bits // lanes),
                out_bits=max(1, out_bits // lanes),
            )
            for i in range(lanes)
        ]
        return data_block(
            base.name,
            slices,
            signature=signature,
            in_bits=in_bits,
            out_bits=out_bits,
            instance_path=inst.path,
        )

    @staticmethod
    def _intra_block_lanes(design: Design, module_name: str) -> int:
        """Count equivalent independent primitive components inside a basic
        module (the equivalence-checking step of Fig. 4a)."""
        module = design.require_module(module_name)
        prims = [
            inst
            for inst in module.instances.values()
            if rtl_primitives.is_primitive(inst.module_name)
        ]
        if len(prims) < 2:
            return 1
        net_users: dict[str, list] = {}
        for inst in prims:
            for port_name, net_name in inst.connections.items():
                if port_name.lower() in GLOBAL_NETS or net_name.lower() in GLOBAL_NETS:
                    continue
                if net_name in module.ports:
                    continue  # shared I/O does not serialise lanes
                net_users.setdefault(net_name, []).append(inst.name)
        parent = {inst.name: inst.name for inst in prims}  # union-find

        def find(node):
            while parent[node] != node:
                parent[node] = node = parent[parent[node]]
            return node

        for users in net_users.values():
            for a, b in zip(users, users[1:]):
                parent[find(a)] = find(b)
        components: dict = {}
        for inst in prims:
            components.setdefault(find(inst.name), []).append(inst.module_name)
        if len(components) < 2:
            return 1
        profiles = {tuple(sorted(cells)) for cells in components.values()}
        return len(components) if len(profiles) == 1 else 1

    # -- steps 3-5: iterate merges ---------------------------------------------------

    def _iterate_merges(self, graph: _BlockGraph, stats: DecomposeStats) -> None:
        for _ in range(self.max_iterations):
            stats.iterations += 1
            changed = self._merge_data_siblings(graph, stats)
            changed |= self._merge_lane_pipelines(graph, stats)
            changed |= self._merge_pipeline_chains(graph, stats)
            if not changed:
                return
        raise DecomposeError(
            f"decomposition did not converge in {self.max_iterations} iterations"
        )

    def _merge_data_siblings(self, graph: _BlockGraph, stats: DecomposeStats) -> bool:
        """Step 3: group equivalent blocks sharing producers and consumers.

        Grouping uses the *lane* signature — a DATA block whose children all
        share one signature groups by that signature — so that incremental
        merges (``data*2`` next to a bare lane, the paper's cases 2 and 3)
        keep coalescing until one DATA parent covers the whole group.
        """
        groups: dict = {}
        for node, block in graph.blocks.items():
            key = (
                _lane_signature(block),
                frozenset(graph.pred[node]),
                frozenset(graph.succ[node]),
            )
            groups.setdefault(key, []).append(node)

        merged_any = False
        for (signature, preds, succs), members in groups.items():
            if len(members) < 2:
                continue
            member_set = set(members)
            # Data-parallel blocks must not feed each other.
            if preds & member_set or succs & member_set:
                continue
            blocks = [graph.blocks[n] for n in members]
            children = _normalise_data_children(blocks)
            parent = data_block(
                name=f"data[{blocks[0].name}x{len(children)}]",
                children=children,
                signature=f"data*{len(children)}:{children[0].signature}",
                in_bits=sum(b.in_bits for b in children),
                out_bits=sum(b.out_bits for b in children),
            )
            _contract(graph, members, parent)
            stats.data_merges += 1
            stats.note(f"data merge x{len(children)} sig={signature[:12]}")
            # Restart: the graph mutated under the grouping we iterate over.
            return True
        return merged_any

    def _merge_lane_pipelines(self, graph: _BlockGraph, stats: DecomposeStats) -> bool:
        """Step 4 (Fig. 4c): adjacent equal-arity DATA blocks merge lane-wise
        into DATA-of-PIPELINE."""
        for src, dst in graph.edges():
            a = graph.blocks[src]
            b = graph.blocks[dst]
            if a.kind is not PatternKind.DATA or b.kind is not PatternKind.DATA:
                continue
            if len(a.children) != len(b.children):
                continue
            if len(graph.succ[src]) != 1 or len(graph.pred[dst]) != 1:
                continue
            lanes = []
            for index, (left, right) in enumerate(zip(a.children, b.children)):
                stage_left = left.clone()
                stage_right = right.clone()
                edge_bits = graph.succ[src][dst]
                stage_left.out_bits = max(1, edge_bits // len(a.children))
                lane = _join_pipeline(
                    f"lane{index}[{stage_left.name}->{stage_right.name}]",
                    [stage_left, stage_right],
                )
                lanes.append(lane)
            parent = data_block(
                name=f"data[{len(lanes)}xlane]",
                children=lanes,
                signature=f"data*{len(lanes)}:{lanes[0].signature}",
                in_bits=a.in_bits,
                out_bits=b.out_bits,
            )
            _contract(graph, [src, dst], parent)
            stats.note(f"lane merge {a.name} -> {b.name}")
            return True
        return False

    def _merge_pipeline_chains(self, graph: _BlockGraph, stats: DecomposeStats) -> bool:
        """Step 4 (chains): merge maximal linear producer/consumer chains."""
        for start in list(graph.blocks):
            chain = _maximal_chain(graph, start)
            if len(chain) < 2:
                continue
            blocks = []
            for position, node in enumerate(chain):
                block = graph.blocks[node]
                if position + 1 < len(chain):
                    block.out_bits = graph.succ[node][chain[position + 1]]
                blocks.append(block)
            parent = _join_pipeline(
                f"pipe[{blocks[0].name}..{blocks[-1].name}]", blocks
            )
            _contract(graph, chain, parent)
            stats.pipeline_merges += 1
            stats.note(f"pipeline merge of {len(chain)} stages")
            return True
        return False

    # -- finish -------------------------------------------------------------------

    @staticmethod
    def _finalise_root(graph: _BlockGraph, stats: DecomposeStats) -> SoftBlock:
        nodes = list(graph.blocks)
        stats.residual_roots = len(nodes)
        if len(nodes) == 1:
            return graph.blocks[nodes[0]]
        # Irregular residue: order topologically and wrap in a pipeline so a
        # single root always exists; flag it so callers know patterns did not
        # fully cover the design.
        blocks = [graph.blocks[n] for n in _residual_order(graph)]
        root = _join_pipeline("pipe[residual]", blocks)
        root.metadata["irregular"] = True
        stats.note(f"residual wrap of {len(blocks)} roots")
        return root


# ---------------------------------------------------------------------------
# Graph/tree helpers
# ---------------------------------------------------------------------------


def _contract(graph: _BlockGraph, members, parent: SoftBlock) -> None:
    """Replace ``members`` by one node holding ``parent`` (id ``max + 1``,
    appended last); external edges are re-attached with summed widths."""
    member_set = set(members)
    new_node = max(graph.blocks) + 1
    in_edges: dict = {}
    out_edges: dict = {}
    for node in members:
        for pred, bits in graph.pred.pop(node).items():
            if pred not in member_set:
                in_edges[pred] = in_edges.get(pred, 0) + bits
                del graph.succ[pred][node]
        for succ, bits in graph.succ.pop(node).items():
            if succ not in member_set:
                out_edges[succ] = out_edges.get(succ, 0) + bits
                del graph.pred[succ][node]
        del graph.blocks[node]
    graph.add_node(new_node, parent)
    for pred, bits in in_edges.items():
        graph.add_bits(pred, new_node, bits)
    for succ, bits in out_edges.items():
        graph.add_bits(new_node, succ, bits)


def _residual_order(graph: _BlockGraph) -> list:
    """Topological order by generations: the sources in node order, then
    each node's freed successors in edge order.  On a cycle the residue
    keeps node order."""
    indegree = {node: len(preds) for node, preds in graph.pred.items()}
    order = [node for node, degree in indegree.items() if degree == 0]
    for node in order:  # grows while walked: one generation after another
        for succ in graph.succ[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                order.append(succ)
    return order if len(order) == len(indegree) else list(graph.blocks)


def _lane_signature(block: SoftBlock) -> str:
    """The signature a block contributes to data-parallel grouping.

    A DATA block whose children all share one signature is, for grouping
    purposes, just "several of that child" — the paper's cases 2 and 3.
    """
    if block.kind is PatternKind.DATA:
        child_signatures = {child.signature for child in block.children}
        if len(child_signatures) == 1:
            return next(iter(child_signatures))
    return block.signature


def _normalise_data_children(blocks) -> list:
    """Implement the paper's three inter-block data-parallelism cases by
    splicing nested DATA nodes whose children share the group signature."""
    children: list[SoftBlock] = []
    lane_signatures = set()
    for block in blocks:
        if block.kind is PatternKind.DATA:
            lane_signatures.update(child.signature for child in block.children)
        else:
            lane_signatures.add(block.signature)
    splice = len(lane_signatures) == 1
    for block in blocks:
        if splice and block.kind is PatternKind.DATA:
            children.extend(block.children)  # cases 2 and 3
        else:
            children.append(block)  # case 1
    return children


def _join_pipeline(name: str, blocks) -> SoftBlock:
    """Create a PIPELINE parent, splicing nested PIPELINE children."""
    stages: list[SoftBlock] = []
    for block in blocks:
        if block.kind is PatternKind.PIPELINE:
            stages.extend(block.children)
        else:
            stages.append(block)
    return pipeline_block(
        name,
        stages,
        in_bits=stages[0].in_bits,
        out_bits=stages[-1].out_bits,
    )


def _maximal_chain(graph: _BlockGraph, start) -> list:
    """The maximal linear chain through ``start`` (nodes with single in/out)."""
    chain = [start]
    seen = {start}
    node = start
    while len(graph.succ[node]) == 1:
        (succ,) = graph.succ[node]
        if succ in seen or len(graph.pred[succ]) != 1:
            break
        chain.append(succ)
        seen.add(succ)
        node = succ
    node = start
    while len(graph.pred[node]) == 1:
        (pred,) = graph.pred[node]
        if pred in seen or len(graph.succ[pred]) != 1:
            break
        chain.insert(0, pred)
        seen.add(pred)
        node = pred
    return chain


def decompose(
    design: Design,
    control_modules,
    name: str | None = None,
    extract_intra_block: bool = True,
) -> DecomposedAccelerator:
    """Convenience wrapper: run the default :class:`Decomposer`."""
    tool = Decomposer(extract_intra_block=extract_intra_block)
    return tool.decompose(design, control_modules, name=name)
