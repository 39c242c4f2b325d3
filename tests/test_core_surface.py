"""Every package keeps only what the program uses.

A public method or property of any class under ``src/repro`` earns its
place by being reached from the program — the package, the benchmarks or
the examples — not only from the tests or the docs; a count is read
through the registry (``metrics.value(name)``), never through an
attribute view of it.  Module-level functions are not scanned: they are
reached by bare name, as task bodies and policy-table rows.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
READERS = ("src", "benchmarks", "examples")

#: ``Class.member`` -> why it stays although only tests reach it.
KEEP = {
    "Scheduler.recount_pending":
        "the reference recount tests/conftest.py holds the live "
        "`scheduler.pending` gauge to after every run",
    "AddressSpace.holds_buffer":
        "tests observe that an eviction frees the buffer",
    "HostSpace.holds_buffer":
        "tests observe that an eviction frees the buffer",
    "DeviceSpace.holds_buffer":
        "tests observe that an eviction frees the buffer",
    "Resource.queue_len":
        "tests observe a withdrawn request leaving the wait queue",
    "Service.wait":
        "the blocking call of a library client (docs/SERVICE.md); the "
        "CLI and the benchmarks drain the whole queue instead",
    "Tracer.by_category":
        "the tracer's span filter (docs/OBSERVABILITY.md), how a reader "
        "of a run's spans picks one kind",
    "Tracer.gaps":
        "the tracer's per-place idle query (docs/OBSERVABILITY.md and "
        "the module's own example); no counter holds idle intervals",
}

#: deleted members that stay out, ``module:Class.member`` — mostly ones
#: the member scan cannot police: names that live on elsewhere in the
#: program, private and dunder members, and instance attributes.
GONE = (
    # the second event loop and process interrupts
    "repro.sim.core:Environment.step",
    "repro.sim.core:Environment.peek",
    "repro.sim.core:Environment._pop_next",
    "repro.sim.core:Environment.active_process",
    "repro.sim.core:Event.__and__",
    "repro.sim.core:Event.__or__",
    "repro.sim.process:Process.name",
    "repro.sim.process:Process._target",
    # attribute views of counters, and tallies kept beside them
    "repro.runtime.scheduler.base:Scheduler.stolen",
    "repro.runtime.coherence:CoherenceEngine.transfers",
    "repro.runtime.coherence:CoherenceEngine.bytes_transferred",
    "repro.runtime.cluster.master:NodeProxy.tasks_dispatched",
    "repro.gasnet.am:AMLayer.bytes_sent",
    "repro.gasnet.am:Endpoint.duplicates_suppressed",
    "repro.hardware.link:Link.busy_seconds",
    "repro.hardware.link:Link.busy",
    "repro.hardware.gpu:GPUDevice.busy_time",
    "repro.memory.cache:SoftwareCache.hits",
    "repro.memory.cache:SoftwareCache.misses",
    "repro.memory.cache:SoftwareCache.evictions",
    "repro.memory.cache:SoftwareCache.writebacks",
    "repro.mpi.api:MPIWorld.messages_sent",
    "repro.mpi.api:MPIWorld.bytes_sent",
    # MPI calls no baseline makes
    "repro.mpi.api:Communicator.Isend",
    "repro.mpi.api:Communicator.env",
    # conveniences only tests reached
    "repro.faults.engine:FaultEngine.timeline_digest",
    "repro.sanitizer.clock:VectorClock.concurrent_with",
    "repro.sanitizer.clock:VectorClock.as_dict",
    "repro.runtime.trace:Tracer.bytes_moved",
    "repro.service.staging:StagingDir.read_result",
    # the tenant fair-share queue and the per-job conveniences over pump
    "repro.service.api:Service.poll",
    "repro.service.api:Service.stream_status",
    "repro.service.queue:JobQueue.weight",
    "repro.service.job:JobRequest.cost",
)


def public_members():
    """(``Class.member``, FunctionDef) for every public method/property."""
    for path in sorted(SRC.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if (isinstance(node, ast.FunctionDef)
                            and not node.name.startswith("_")):
                        yield f"{cls.name}.{node.name}", node


class _Uses(ast.NodeVisitor):
    """Every attribute access and string constant, except a function's
    mentions of its own name inside its own body.  A bare name (a local,
    a parameter, an imported module) does not reach a member."""

    def __init__(self, seen: set):
        self.seen = seen
        self.defs = []

    def visit_FunctionDef(self, node):
        self.defs.append(node.name)
        self.generic_visit(node)
        self.defs.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def use(self, name):
        if name not in self.defs:
            self.seen.add(name)

    def visit_Attribute(self, node):
        self.use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.use(node.value)


def program_names() -> set:
    seen: set = set()
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            _Uses(seen).visit(ast.parse(path.read_text()))
    return seen


def test_every_public_member_is_reached_from_the_program():
    seen = program_names()
    unreached = sorted(qual for qual, node in public_members()
                       if node.name not in seen)
    assert [m for m in unreached if m not in KEEP] == [], (
        "only tests reach these; delete them or give a KEEP reason")
    # A KEEP entry the program now reaches (or that is gone) is stale.
    assert sorted(KEEP) == [m for m in unreached if m in KEEP]
    assert all(reason.strip() for reason in KEEP.values())


def _assigns_self(cls_node: ast.ClassDef, member: str) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == member
               and isinstance(node.ctx, ast.Store)
               and isinstance(node.value, ast.Name) and node.value.id == "self"
               for node in ast.walk(cls_node))


def test_deleted_members_stay_deleted():
    back = []
    for entry in GONE:
        module_name, qual = entry.split(":")
        cls_name, member = qual.split(".")
        module = importlib.import_module(module_name)
        cls = getattr(module, cls_name)
        tree = ast.parse(Path(module.__file__).read_text())
        cls_node = next(node for node in ast.walk(tree)
                        if isinstance(node, ast.ClassDef)
                        and node.name == cls_name)
        defined = any(member in vars(klass) for klass in cls.__mro__)
        if defined or _assigns_self(cls_node, member):
            back.append(entry)
    assert back == []


def _is_count_read(expr) -> bool:
    """``….metrics.value(…)`` or ``self._c_x.value`` / ``self._g_x.value``."""
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "value"):
        target = expr.func.value
        return ((isinstance(target, ast.Attribute)
                 and target.attr == "metrics")
                or (isinstance(target, ast.Name) and target.id == "metrics"))
    return (isinstance(expr, ast.Attribute) and expr.attr == "value"
            and isinstance(expr.value, ast.Attribute)
            and expr.value.attr.startswith(("_c_", "_g_")))


def test_no_property_is_a_view_of_a_counter():
    views = []
    for qual, node in public_members():
        is_property = any(isinstance(d, ast.Name) and d.id == "property"
                          for d in node.decorator_list)
        if is_property and any(isinstance(ret, ast.Return)
                               and _is_count_read(ret.value)
                               for ret in ast.walk(node)):
            views.append(qual)
    assert views == []
