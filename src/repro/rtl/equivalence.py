"""Structural equivalence checking.

The decomposing tool identifies *data parallelism* by checking whether two
blocks compute the same function (paper Section 2.2.1, steps 2-3, citing
combinational equivalence checkers).  Full SAT-based equivalence checking is
out of scope for a structural IR; instead we use the standard synthesis-tool
compromise — *structural* equivalence:

1. a fast canonical signature based on Weisfeiler-Lehman-style iterative
   colour refinement over the module's connectivity graph, and
2. for modules below a size threshold, an exact ``networkx`` graph-isomorphism
   confirmation, so signature collisions cannot produce false positives on
   the module sizes the decomposer actually compares.  Only that check
   imports networkx; the signature runs on plain dicts.

Two instances of the *same* module are trivially equivalent; the interesting
case is separately-defined modules with identical structure (e.g. generated
tile engines), which the signature catches.
"""

from __future__ import annotations

import hashlib

from .ir import Design, Module

#: Modules with at most this many instances get exact isomorphism
#: confirmation on top of the hash comparison.
EXACT_CHECK_MAX_INSTANCES = 200

#: Number of WL refinement rounds.  Graph diameter of real module bodies is
#: small; 4 rounds separates everything we generate while staying cheap.
REFINEMENT_ROUNDS = 4


def _interface_signature(module: Module) -> str:
    """Signature of a module's port interface (names abstracted away).

    Data-parallel replicas may use different port *names*; what must match is
    the multiset of (direction, width) pairs.
    """
    shape = sorted((p.direction.value, p.width) for p in module.ports.values())
    return repr(shape)


def _connection_graph(design: Design, module: Module) -> tuple:
    """Bipartite instance/net graph of a module body, as ``(labels,
    adjacency)``: node -> label, and node -> ``{neighbour: direction}``.

    Instance nodes are labelled by their *referenced module's signature*
    (recursing for submodules, cell name for primitives), net nodes by width.
    Edges are labelled by the port direction so that producer/consumer
    orientation matters; an instance wired to one net through several
    ports keeps one edge, labelled by the last of them.
    """
    labels = {("net", net.name): f"net:{net.width}" for net in module.nets.values()}
    adjacency: dict = {node: {} for node in labels}
    for inst in module.instances.values():
        if design.has_module(inst.module_name):
            label = "mod:" + structural_signature(design, inst.module_name)
        else:
            label = "cell:" + inst.module_name
        node = ("inst", inst.name)
        labels[node] = label
        adjacency[node] = {}
        ports = design.ports_of(inst.module_name)
        for port_name, net_name in inst.connections.items():
            port = ports.get(port_name)
            direction = port.direction.value if port is not None else "?"
            net = ("net", net_name)
            if net in labels:
                adjacency[node][net] = adjacency[net][node] = direction
    # Port nets get their direction stamped into the label so that inputs
    # and outputs of the module refine differently.
    for port in module.ports.values():
        node = ("net", port.name)
        if node in labels:
            labels[node] += f":{port.direction.value}"
    return labels, adjacency


def _wl_hash(labels: dict, adjacency: dict) -> str:
    """Canonical hash of a labelled graph via WL colour refinement."""
    colours = dict(labels)
    for _ in range(REFINEMENT_ROUNDS):
        new_colours = {}
        for node, neighbours in adjacency.items():
            neighbourhood = sorted(
                (direction, colours[nbr]) for nbr, direction in neighbours.items()
            )
            blob = colours[node] + "|" + repr(neighbourhood)
            new_colours[node] = hashlib.sha256(blob.encode()).hexdigest()[:16]
        colours = new_colours
    histogram = sorted(colours.values())
    return hashlib.sha256(repr(histogram).encode()).hexdigest()[:24]


# Signatures are cached per (design serial, module name).  The serial is
# Design.uid — process-unique, unlike id(), which CPython recycles and
# which let a freshly allocated design inherit a dead design's cached
# signatures (a rare, allocation-order-dependent corruption).  Designs are
# treated as immutable once decomposition starts; mutating a design after
# hashing it is a usage error.
_signature_cache: dict = {}


def structural_signature(design: Design, module_name: str) -> str:
    """Canonical structural signature of a module (or primitive cell).

    Equal signatures => structurally equivalent with overwhelming likelihood;
    use :func:`modules_equivalent` when exactness matters.
    """
    if not design.has_module(module_name):
        return "cell:" + module_name
    cache_key = (design.uid, module_name)
    cached = _signature_cache.get(cache_key)
    if cached is not None:
        return cached
    module = design.require_module(module_name)
    body = _wl_hash(*_connection_graph(design, module))
    attrs = module.attributes.get("equiv_class", "")
    signature = hashlib.sha256(
        f"{_interface_signature(module)}|{body}|{attrs}".encode()
    ).hexdigest()[:24]
    _signature_cache[cache_key] = signature
    return signature


def _to_networkx(labels: dict, adjacency: dict):
    """The connection graph as an ``nx.Graph`` for the isomorphism check."""
    import networkx as nx

    graph = nx.Graph()
    for node, label in labels.items():
        graph.add_node(node, label=label)
    for node, neighbours in adjacency.items():
        for nbr, direction in neighbours.items():
            graph.add_edge(node, nbr, direction=direction)
    return graph


def _node_match(a: dict, b: dict) -> bool:
    return a.get("label") == b.get("label")


def _edge_match(a: dict, b: dict) -> bool:
    return a.get("direction") == b.get("direction")


def modules_equivalent(design: Design, name_a: str, name_b: str) -> bool:
    """Decide structural equivalence of two modules.

    Fast path: identical names, then signature comparison.  For small
    modules a full isomorphism check confirms the signature verdict.
    """
    if name_a == name_b:
        return True
    primitive_a = not design.has_module(name_a)
    primitive_b = not design.has_module(name_b)
    if primitive_a or primitive_b:
        return name_a == name_b
    if structural_signature(design, name_a) != structural_signature(design, name_b):
        return False
    module_a = design.require_module(name_a)
    module_b = design.require_module(name_b)
    if (
        len(module_a.instances) > EXACT_CHECK_MAX_INSTANCES
        or len(module_b.instances) > EXACT_CHECK_MAX_INSTANCES
    ):
        return True  # trust the signature for very large bodies
    from networkx.algorithms.isomorphism import GraphMatcher

    graph_a = _to_networkx(*_connection_graph(design, module_a))
    graph_b = _to_networkx(*_connection_graph(design, module_b))
    matcher = GraphMatcher(
        graph_a, graph_b, node_match=_node_match, edge_match=_edge_match
    )
    return matcher.is_isomorphic()
