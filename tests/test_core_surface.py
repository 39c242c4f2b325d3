"""Deleted members stay deleted, and no class keeps a view of a counter.

Whether a function earns its place is the reachability scan's rule
(``python -m tests.reachability``, run in the CI ``bench`` job): it runs
the entry points and fails on any function under ``src/repro`` that
none of them calls and that has no ``KEEP`` reason.  Two rules it cannot
see stay here:

* :data:`GONE` — deleted members that must not come back, mostly ones a
  run would not flag: instance attributes, and dunders the interpreter
  would call implicitly once they were back;
* a count is read through the registry (``metrics.value(name)``), never
  through a property that views it.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: deleted members that stay out, ``module:Class.member`` — mostly ones
#: the reachability scan cannot police: private and dunder members, and
#: instance attributes.
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
    # conveniences only tests reached (the reachability scan's first pass)
    "repro.runtime.runtime:Runtime.kernel_registry",
    "repro.cuda.api:CudaContext.registry",
    "repro.memory.cache:SoftwareCache._dirty",
    "repro.memory.cache:SoftwareCache.__len__",
    "repro.memory.directory:Directory.__len__",
    "repro.memory.region:Region.__eq__",
    "repro.memory.region:Region.__hash__",
    "repro.metrics.registry:CounterRegistry.__len__",
    "repro.metrics.registry:CounterRegistry.__bool__",
    "repro.metrics.registry:CounterRegistry.__iter__",
    "repro.sanitizer.clock:VectorClock.__eq__",
    "repro.sanitizer.clock:VectorClock.__le__",
    "repro.sim.resources:Store.__len__",
    "repro.runtime.scheduler.base:Scheduler.pending",
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
        defined = any(member in vars(klass) for klass in cls.__mro__
                      if klass is not object)
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
