"""Core structural RTL data types.

The IR is deliberately *structural*: modules, instances, nets, continuous
assigns.  Behavioural Verilog is out of scope — the decomposing tool in the
paper only needs the module hierarchy and the connectivity between modules,
both of which survive synthesis into structural form.

Conventions:

* Port and net names are unique within a module.
* An :class:`Instance` connects each of its ports to a net of the enclosing
  module by name (``connections[port_name] = net_name``).  Connecting a port
  directly to a parent port is expressed by connecting it to the net that the
  parser/builder implicitly creates for every port.
* Primitive cells (gates, flip-flops, DSP/BRAM macros) are instances whose
  ``module_name`` is registered in :mod:`repro.rtl.primitives`; they have no
  module definition in the design.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator

from ..errors import RTLValidationError, UnknownModuleError


class Direction(enum.Enum):
    """Port direction."""

    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"


@dataclass(frozen=True)
class Port:
    """A module port: a named, directed bundle of ``width`` wires."""

    name: str
    direction: Direction
    width: int = 1

    def __post_init__(self):
        if self.width <= 0:
            raise RTLValidationError(
                f"port {self.name!r} must have positive width, got {self.width}"
            )


@dataclass(frozen=True)
class Net:
    """A named wire bundle inside a module."""

    name: str
    width: int = 1

    def __post_init__(self):
        if self.width <= 0:
            raise RTLValidationError(
                f"net {self.name!r} must have positive width, got {self.width}"
            )


@dataclass
class Instance:
    """An instantiation of a module or primitive cell inside a module.

    ``connections`` maps the *instantiated* module's port names to net names
    of the *enclosing* module.  ``parameters`` carries elaboration-time
    parameters (e.g. memory depth) that the emitter renders as Verilog
    parameter overrides.
    """

    name: str
    module_name: str
    connections: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Assign:
    """A continuous assignment ``assign target = source;`` (structural only)."""

    target: str
    source: str


class Module:
    """A structural RTL module.

    Modules own their ports, internal nets, child instances and assigns.
    Every port implicitly has a same-named net so instances can connect to
    it uniformly.
    """

    def __init__(self, name: str, attributes: dict | None = None):
        self.name = name
        self.ports: dict[str, Port] = {}
        self.nets: dict[str, Net] = {}
        self.instances: dict[str, Instance] = {}
        self.assigns: list[Assign] = []
        #: Free-form metadata. The decomposing tool reads
        #: ``attributes["role"]`` ("control"/"data") when present, and the
        #: resource estimator reads ``attributes["resources"]``.
        self.attributes: dict = dict(attributes or {})

    # -- construction -----------------------------------------------------------

    def add_port(self, name: str, direction: Direction, width: int = 1) -> Port:
        """Declare a port (and its implicit same-named net)."""
        if name in self.ports:
            raise RTLValidationError(f"duplicate port {name!r} in module {self.name!r}")
        port = Port(name, direction, width)
        self.ports[name] = port
        # Implicit net so instances can connect to the port by name.
        if name not in self.nets:
            self.nets[name] = Net(name, width)
        return port

    def add_net(self, name: str, width: int = 1) -> Net:
        """Declare an internal net."""
        if name in self.nets:
            raise RTLValidationError(f"duplicate net {name!r} in module {self.name!r}")
        net = Net(name, width)
        self.nets[name] = net
        return net

    def add_instance(
        self,
        name: str,
        module_name: str,
        connections: dict | None = None,
        parameters: dict | None = None,
    ) -> Instance:
        """Instantiate ``module_name`` as child ``name``."""
        if name in self.instances:
            raise RTLValidationError(
                f"duplicate instance {name!r} in module {self.name!r}"
            )
        inst = Instance(name, module_name, dict(connections or {}), dict(parameters or {}))
        self.instances[name] = inst
        return inst

    def add_assign(self, target: str, source: str) -> Assign:
        """Add a continuous assignment between two nets."""
        assign = Assign(target, source)
        self.assigns.append(assign)
        return assign

    # -- queries ------------------------------------------------------------------

    def input_ports(self) -> list[Port]:
        """Ports with direction INPUT, in declaration order."""
        return [p for p in self.ports.values() if p.direction is Direction.INPUT]

    def output_ports(self) -> list[Port]:
        """Ports with direction OUTPUT, in declaration order."""
        return [p for p in self.ports.values() if p.direction is Direction.OUTPUT]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Module({self.name!r}, ports={len(self.ports)}, "
            f"nets={len(self.nets)}, instances={len(self.instances)})"
        )


class Design:
    """A set of modules with a designated top module.

    Instances may also reference primitive cells from
    :mod:`repro.rtl.primitives`, which have no :class:`Module` definition
    here.
    """

    #: Process-unique serials.  ``id(design)`` is NOT a safe cache key —
    #: CPython recycles addresses of collected objects, so a new design
    #: can inherit a dead design's memoised signatures.
    _uids = itertools.count()

    def __init__(self, name: str, top: str | None = None):
        self.name = name
        self.modules: dict[str, Module] = {}
        self._top = top
        self.uid = next(Design._uids)

    # -- construction -----------------------------------------------------------

    def add_module(self, module: Module) -> Module:
        """Register a module definition."""
        if module.name in self.modules:
            raise RTLValidationError(f"duplicate module {module.name!r}")
        self.modules[module.name] = module
        return module

    @property
    def top(self) -> str:
        """Name of the top module."""
        if self._top is None:
            raise RTLValidationError(f"design {self.name!r} has no top module set")
        return self._top

    @top.setter
    def top(self, value: str) -> None:
        self._top = value

    @property
    def top_module(self) -> Module:
        """The top :class:`Module`."""
        return self.require_module(self.top)

    # -- queries ------------------------------------------------------------------

    def require_module(self, name: str) -> Module:
        """Look up a module, raising :class:`UnknownModuleError` if missing."""
        try:
            return self.modules[name]
        except KeyError:
            raise UnknownModuleError(
                f"design {self.name!r} has no module {name!r}"
            ) from None

    def has_module(self, name: str) -> bool:
        """True when ``name`` is a module defined in this design."""
        return name in self.modules

    def ports_of(self, module_name: str) -> dict[str, Port]:
        """Port map of a module *or* primitive cell."""
        from . import primitives

        if module_name in self.modules:
            return self.modules[module_name].ports
        cell = primitives.lookup(module_name)
        if cell is not None:
            return cell.ports
        raise UnknownModuleError(f"unknown module or primitive {module_name!r}")

    def iter_modules(self) -> Iterator[Module]:
        """Iterate over module definitions in insertion order."""
        return iter(self.modules.values())

    def submodule_names(self, module_name: str) -> set:
        """Names of non-primitive modules instantiated by ``module_name``."""
        module = self.require_module(module_name)
        return {
            inst.module_name
            for inst in module.instances.values()
            if inst.module_name in self.modules
        }

    def reachable_modules(self, root: str | None = None) -> list[str]:
        """Module names reachable from ``root`` (default: top), root first."""
        root = root or self.top
        seen: list[str] = []
        stack = [root]
        visited = set()
        while stack:
            name = stack.pop()
            if name in visited or name not in self.modules:
                continue
            visited.add(name)
            seen.append(name)
            stack.extend(sorted(self.submodule_names(name)))
        return seen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Design({self.name!r}, modules={len(self.modules)}, top={self._top!r})"
