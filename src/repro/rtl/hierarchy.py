"""Design-hierarchy utilities.

The decomposing tool's first step (paper Section 2.2.1, step 1) "parses the
input RTL design to extract all basic modules".  This module provides:

* :func:`is_basic_module` — the paper's basic-module predicate,
* :func:`basic_module_instances` — enumerate the hierarchical instances of
  basic modules under a root, with their hierarchical paths and boundary
  connectivity lifted to the root's net namespace,
* resource estimation for modules, instances, and whole designs.

Connectivity lifting is what lets the decomposer build a flat *block graph*
whose nodes are basic-module instances even though the source design is
hierarchical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..resources import ResourceVector
from .ir import Design, Module
from . import primitives


def is_basic_module(design: Design, module_name: str) -> bool:
    """True when the module instantiates no other *modules*.

    Primitive cells (gates, flip-flops, memory macros) do not count: the
    paper treats them as the contents of a basic module, not as submodules.
    """
    module = design.require_module(module_name)
    return all(
        not design.has_module(inst.module_name)
        for inst in module.instances.values()
    )


@dataclass
class BasicInstance:
    """One hierarchical instance of a basic module, with lifted connectivity.

    ``inputs``/``outputs`` map the basic module's port names to *root-level
    net keys*.  A net key is either a root net name (for nets visible at the
    root) or a unique hierarchical name for nets internal to intermediate
    modules — what matters to the decomposer is only that two instances that
    touch the same physical net get the same key.
    """

    path: str
    module_name: str
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


def basic_module_instances(
    design: Design, root: str | None = None
) -> list[BasicInstance]:
    """Enumerate basic-module instances under ``root`` with flat connectivity.

    Returns instances in deterministic depth-first order.  If the root module
    is itself basic, a single :class:`BasicInstance` with path ``""`` is
    returned.
    """
    root = root or design.top
    if is_basic_module(design, root):
        module = design.require_module(root)
        return [
            BasicInstance(
                path="",
                module_name=root,
                inputs={p.name: p.name for p in module.input_ports()},
                outputs={p.name: p.name for p in module.output_ports()},
            )
        ]

    results: list[BasicInstance] = []

    def lift(module_name: str, path: str, net_map: dict) -> None:
        """Walk ``module_name``; ``net_map`` maps local nets to global keys."""
        module = design.require_module(module_name)

        def key_for(local_net: str) -> str:
            if local_net in net_map:
                return net_map[local_net]
            # Internal net: globally unique hierarchical name.
            return f"{path}/{local_net}" if path else local_net

        # Resolve assigns as aliases within this module scope: both sides of
        # ``assign a = b`` refer to the same value, so give them one key.
        alias: dict[str, str] = {}
        for a in module.assigns:
            alias[a.target] = a.source

        def resolve(local_net: str) -> str:
            seen = set()
            while local_net in alias and local_net not in seen:
                seen.add(local_net)
                local_net = alias[local_net]
            return key_for(local_net)

        for inst in module.instances.values():
            if not design.has_module(inst.module_name):
                continue  # primitives stay inside their basic module
            child_path = f"{path}/{inst.name}" if path else inst.name
            child = design.require_module(inst.module_name)
            child_map = {}
            for port_name, net_name in inst.connections.items():
                if port_name in child.ports:
                    child_map[port_name] = resolve(net_name)
            if is_basic_module(design, inst.module_name):
                results.append(
                    BasicInstance(
                        path=child_path,
                        module_name=inst.module_name,
                        inputs={
                            p.name: child_map.get(p.name, f"{child_path}.{p.name}")
                            for p in child.input_ports()
                        },
                        outputs={
                            p.name: child_map.get(p.name, f"{child_path}.{p.name}")
                            for p in child.output_ports()
                        },
                    )
                )
            else:
                lift(inst.module_name, child_path, child_map)

    top_module = design.require_module(root)
    root_map = {p.name: p.name for p in top_module.ports.values()}
    lift(root, "", root_map)
    return results


# ---------------------------------------------------------------------------
# Resource estimation
# ---------------------------------------------------------------------------


def module_self_resources(module: Module) -> ResourceVector:
    """Resources of a module's *own* primitives and declared overrides.

    A module may declare ``attributes["resources"]`` (a
    :class:`ResourceVector` or dict) to override estimation — used for
    macro-ish modules whose synthesized cost is known.  Otherwise the cost is
    the sum of its primitive instances' costs.
    """
    declared = module.attributes.get("resources")
    if declared is not None:
        if isinstance(declared, ResourceVector):
            return declared
        return ResourceVector.from_dict(declared)
    acc = ResourceVector.zero()
    for inst in module.instances.values():
        cell = primitives.lookup(inst.module_name)
        if cell is not None:
            acc = acc + cell.cost
    return acc


def instance_resources(design: Design, module_name: str, _memo: dict | None = None) -> ResourceVector:
    """Total resources of one instance of ``module_name`` (recursive)."""
    memo = _memo if _memo is not None else {}
    if module_name in memo:
        return memo[module_name]
    if not design.has_module(module_name):
        return primitives.cell_cost(module_name)
    module = design.require_module(module_name)
    acc = module_self_resources(module)
    if module.attributes.get("resources") is None:
        for inst in module.instances.values():
            if design.has_module(inst.module_name):
                acc = acc + instance_resources(design, inst.module_name, memo)
    memo[module_name] = acc
    return acc


def design_resources(design: Design, root: str | None = None) -> ResourceVector:
    """Total resources of the design rooted at ``root`` (default: top)."""
    return instance_resources(design, root or design.top)
