"""No definition in ``src/`` that only the tests name.

A function that only a test calls pins behaviour that no workload, bench,
CLI command or example depends on: code to maintain that no run exercises.
State that nothing reads is the same waste: a field or counter kept up to
date for no reader.  This test parses ``src/`` and collects every
function, method and class, every name bound in a module or class body
(module constants, fields and class constants) and every ``self.<attr>``
a method stores (dunders aside), then looks each name up among the names
that ``src/``, ``benchmarks/`` and ``examples/`` use.  A *use* is a name
or attribute that is read (loaded), an import outside a package
``__init__``, a keyword argument, or a string constant that is exactly
the name (method-name tables such as the e2e tracer's); a store, augmented
or not, to a bare name or to an attribute of any object
(``self.count += 1``, ``self.stats.count += 1``, ``state.count += 1``), a
package re-export, a docstring or a string annotation is not a use.  A
record read whole by reflection (``ScalarLanes.stats`` sums every
:class:`~repro.accel.functional.SimStats` field) is invisible to a name
scan, so its fields are allowed by name.  The scan matches names, not
bindings, so a method or field counts as used when any attribute of that
name is read anywhere: it misses dead code whose name something live
shares.

A definition that nothing there uses fails unless :data:`ALLOWED` names it,
with the reason it stays.  An entry fails when it goes stale (its
definition is gone or now has a use), so the table only ever shrinks.

The other way round, a probe for an optional hook or field
(``getattr(obj, "<name>", default)`` in ``src/``) is dead when no class in
``src/`` defines ``<name>`` (a ``Protocol`` only declares it): the default
always answers, and the probe and whatever it guards are code that no run
exercises.

A setting is dead the same way when no run ever sets it: every field of
a ``*Parameters`` record in ``src/`` must be passed, by keyword or by
position, in some call to the record or to ``dataclasses.replace`` in
``src/``, ``benchmarks/`` or ``examples/``.  A field that only a test sets
holds its default in every run, so it is a constant, unless
:data:`KEPT_FIELDS` names it with the reason it stays; an entry there
fails when it goes stale (the field is gone, or a run now sets it).
"""

import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Test-only definitions that stay, keyed ``path-under-repro::qualname``.
ALLOWED = {
    "autoscale/accounting.py::ReplicaLedger.open_replicas":
        "checker: the autoscale storm recounts the ledger against the residents",
    "rtl/equivalence.py::modules_equivalent":
        "checker: confirms a structural_signature verdict by graph isomorphism",
    "isa/bfp.py::quantisation_error_bound":
        "checker: the BFP error bound quantised outputs are held to",
    "core/interface.py::ElasticChannel":
        "reference model: the cycle-level channel transfer_cycles is checked against",
    "core/interface.py::LatencyInsensitiveInterface.transfer_cycles":
        "paper artefact: Section 2.1's interface latency, checked against ElasticChannel",
    "core/interface.py::boundary_overhead_cycles":
        "paper artefact: Table 4's per-boundary latency overhead",
    "core/topdown.py::decompose_top_down":
        "paper artefact: Fig. 3b's top-down flow, cross-checked against the bottom-up one",
    "core/softblock.py::reduction_block":
        "paper artefact: Fig. 2c's reduction built from the two primitive patterns",
    "core/partition.py::PartitionTree.frontier_of_size":
        "paper artefact: Fig. 6's frontier for a given device count",
    "isa/reorder.py::overlap_window":
        "paper artefact: the overlap window Fig. 11's model integrates",
    "runtime/api.py::HypervisorAPI":
        "paper artefact: Fig. 7's high-level system API",
    "runtime/api.py::HypervisorAPI.evict_idle":
        "paper artefact: part of Fig. 7's high-level system API",
    "runtime/catalog.py::Catalog.instance_count":
        "paper artefact: the paper's inventory of distinct accelerator instances",
    "accel/batched.py::BatchedFunctionalSimulator.lane_vector":
        "accessor: one lane's register, compared with the scalar simulator's",
    "accel/batched.py::ScalarLanes.lane_vector":
        "accessor: one lane's register, compared with the scalar simulator's",
    "accel/batched.py::_BatchedLanes.lane_vector":
        "accessor: one lane's register, compared with the scalar simulator's",
    "accel/batched.py::BatchedDRAM.resident_bytes":
        "accessor: storage held, which shows pages shared between lanes",
    "accel/functional.py::ScaleOutFabric.pending_rounds":
        "accessor: completed sync rounds not yet received",
    "workloads/deepbench.py::all_models":
        "accessor: every registered model, for sweeps over the registry",
    "cluster/simulator.py::ClusterSimulator.aborted_runs":
        "checker: preemptions reached the simulator's requeue, mid-pass",
    "serving/frontend.py::ServingFrontend.timers_armed":
        "checker: one expiry timer per frontend, not one wake per admission",
    "accel/batched.py::ScalarLanes.fallback":
        "accessor: which simulator ran the lanes (here the scalar one)",
    "accel/batched.py::_BatchedLanes.fallback":
        "accessor: which simulator ran the lanes (here the batched one)",
    **{
        f"accel/functional.py::SimStats.{name}":
            "checker: ScalarLanes.stats sums every SimStats field by "
            "reflection, and tests compare the sums with a scalar run's"
        for name in ("mv_muls", "mfu_ops", "dram_reads", "dram_writes",
                     "sends", "recvs", "blocked_polls")
    },
    **{
        f"core/decompose.py::DecomposeStats.{name}":
            "checker: the decomposition tests assert this count"
        for name in ("basic_blocks", "control_blocks", "data_merges",
                     "pipeline_merges", "intra_block_splits",
                     "residual_roots")
    },
    "runtime/controller.py::ControllerStats.boards_degraded":
        "checker: the fault tests count a board put into drain mode",
    "serving/frontend.py::ServingStats.brownout_exits":
        "checker: the brownout tests count exits beside entries",
    "tenancy/scheduler.py::TenantState.preemptions_triggered":
        "checker: a starved tenant with no possible victim triggers no sweep",
}


def _not_uses(tree) -> set:
    """Ids of the string constants that are docstrings or annotations."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if annotation is not None:
            found.update(id(part) for part in ast.walk(annotation))
    return found


def _uses(directory: pathlib.Path) -> collections.Counter:
    """Every name used in the Python files under ``directory``."""
    seen = collections.Counter()
    for path in sorted(directory.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        reexport = path.name == "__init__.py" and SRC in path.parents
        skipped = _not_uses(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                seen[node.id] += isinstance(node.ctx, ast.Load)
            elif isinstance(node, ast.Attribute):
                seen[node.attr] += isinstance(node.ctx, ast.Load)
            elif isinstance(node, ast.keyword) and node.arg:
                seen[node.arg] += 1
            elif reexport:
                continue
            elif isinstance(node, ast.alias):
                seen[node.name.rsplit(".", 1)[-1]] += 1
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.isidentifier() and id(node) not in skipped):
                seen[node.value] += 1
    return seen


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _stored_self_attrs(method) -> set:
    """The attributes of ``self`` a method (or a closure in it) stores."""
    return {
        node.attr for node in ast.walk(method)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }


def _body_names(scope) -> set:
    """The names a module or class body binds by assignment (module
    constants, fields, class constants)."""
    return {
        node.id
        for statement in scope.body
        if isinstance(statement, (ast.Assign, ast.AnnAssign))
        for target in (statement.targets if isinstance(statement, ast.Assign)
                       else [statement.target])
        for node in ast.walk(target)
        if isinstance(node, ast.Name)
    }


def _definitions() -> dict:
    """``path::qualname -> name`` for every non-dunder def and class, and
    every class-body name and ``self`` attribute a class defines."""
    found = {}

    def define(path, qualname, name):
        if not _is_dunder(name):
            found[f"{path}::{qualname}"] = name

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = scope + child.name
                define(path, qualname, child.name)
                if isinstance(child, ast.ClassDef):
                    visit(child, path, qualname + ".")
                    names = _body_names(child)
                    for method in child.body:
                        if isinstance(method, (ast.FunctionDef,
                                               ast.AsyncFunctionDef)):
                            names |= _stored_self_attrs(method)
                    for name in names:
                        define(path, f"{qualname}.{name}", name)

    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        relative = path.relative_to(SRC).as_posix()
        for name in _body_names(tree):
            define(relative, name, name)
        visit(tree, relative, "")
    return found


def _probes() -> dict:
    """``name -> [path:line, ...]`` for every ``getattr(obj, "<name>",
    default)`` in ``src/``."""
    found = collections.defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr" and len(node.args) == 3
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)):
                where = f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
                found[node.args[1].value].append(where)
    return found


def _implemented() -> set:
    """The names the classes in ``src/`` define (methods, class-body names
    and ``self`` attributes); a ``Protocol``'s declarations do not count."""
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef) or any(
                    isinstance(base, ast.Name) and base.id == "Protocol"
                    for base in node.bases):
                continue
            names |= _body_names(node)
            for member in node.body:
                if isinstance(member, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    names.add(member.name)
                    names |= _stored_self_attrs(member)
    return names


@pytest.fixture(scope="module")
def unused() -> set:
    """Definitions that nothing in src/, benchmarks/ or examples/ uses."""
    uses = collections.Counter()
    for directory in ("src", "benchmarks", "examples"):
        uses.update(_uses(ROOT / directory))
    return {key for key, name in _definitions().items() if not uses[name]}


def test_no_new_test_only_code(unused):
    unlisted = sorted(unused - set(ALLOWED))
    assert not unlisted, (
        "only tests (or nothing) use these src/ definitions; delete them, "
        "or allow one with the artefact or check it pins: " + ", ".join(unlisted)
    )


def test_allowed_holds_only_test_only_code(unused):
    stale = sorted(set(ALLOWED) - unused)
    assert not stale, f"ALLOWED entries now used or gone: {', '.join(stale)}"


def test_allowed_entries_give_a_reason():
    kinds = ("checker:", "reference model:", "paper artefact:", "accessor:")
    assert all(reason.startswith(kinds) for reason in ALLOWED.values())


def test_every_probed_name_has_a_definer():
    members = _implemented()
    probes = _probes()
    assert probes  # the scan still finds the simulator's hook probes
    dead = sorted(f"{where} probes {name!r}"
                  for name, sites in probes.items() if name not in members
                  for where in sites)
    assert not dead, (
        "no class in src/ defines these probed names, so the default "
        "always answers; delete the probe: " + ", ".join(dead))


#: ``*Parameters`` records exempt from the knob scan: calibration records
#: whose defaults are measured figures of the modelled hardware.
CALIBRATION_RECORDS = {
    "TimingParameters": "the cycle model's calibrated timing constants",
    "NetworkParameters": "the ring network's measured link figures",
}


#: The trees whose calls count as setting a ``*Parameters`` field: what
#: runs, benches and examples pass.  A test's setting does not count.
SETTER_ROOTS = ("src", "benchmarks", "examples")

#: ``(record, field) -> reason`` for the fields only tests set that stay.
KEPT_FIELDS = {
    ("ServingParameters", "retry_budget"):
        "the layered oracle draws it from {0, 4}, and a budget of 0 "
        "reaches the abandon-at-first-failure path",
    ("ServingParameters", "seed"):
        "the layered oracle draws it, so the backoff jitter varies per "
        "example",
    ("TenancyParameters", "isolation"):
        "cross-tenant reuse waits on the tenancy isolation redesign "
        "(ROADMAP direction 1), and the oracles draw both values",
}


def _parameter_fields() -> dict:
    """``record -> [field, ...]`` for every ``*Parameters`` class in
    ``src/``, fields in declaration order."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Parameters"):
                found[node.name] = [
                    statement.target.id for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                ]
    return found


def _callee(call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _fields_set() -> set:
    """``(record, field)`` pairs some call passes, by keyword or by
    position, to the record or to ``replace``.  A function that hands
    ``**kwargs`` on to a record (or to another such function) forwards
    it, so the keywords its callers pass count too; a ``replace`` call is
    credited to every record that has the keyword."""
    records = _parameter_fields()
    trees = [
        ast.parse(path.read_text())
        for directory in SETTER_ROOTS
        for path in sorted((ROOT / directory).rglob("*.py"))
    ]
    functions = [
        node for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    # record -> the record and every function that forwards it **kwargs
    forwards = {name: {name} for name in records}
    grew = True
    while grew:
        grew = False
        for function in functions:
            for node in ast.walk(function):
                if not (isinstance(node, ast.Call) and any(
                        keyword.arg is None for keyword in node.keywords)):
                    continue
                for builders in forwards.values():
                    if _callee(node) in builders and function.name not in builders:
                        builders.add(function.name)
                        grew = True
    passed = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            keywords = {keyword.arg for keyword in node.keywords}
            if name in records:
                passed.update((name, field)
                              for field in records[name][:len(node.args)])
            for record, fields in records.items():
                if name == "replace" or name in forwards[record]:
                    passed.update((record, field) for field in keywords
                                  if field in fields)
    return passed


def test_every_parameter_field_is_set_somewhere():
    records = _parameter_fields()
    assert records and set(CALIBRATION_RECORDS) <= set(records)
    passed = _fields_set()
    never_set = sorted(
        f"{record}.{field}"
        for record, fields in records.items()
        if record not in CALIBRATION_RECORDS
        for field in fields
        if (record, field) not in passed | set(KEPT_FIELDS)
    )
    assert not never_set, (
        "no run, bench or example sets these fields, so each holds one "
        "value in every run; make it a constant, or keep one in "
        "KEPT_FIELDS with the reason: " + ", ".join(never_set))


def test_kept_fields_are_still_set_only_by_tests():
    records = _parameter_fields()
    passed = _fields_set()
    stale = sorted(
        f"{record}.{field}" for record, field in KEPT_FIELDS
        if field not in records.get(record, ()) or (record, field) in passed
    )
    assert not stale, f"KEPT_FIELDS entries now set or gone: {', '.join(stale)}"
