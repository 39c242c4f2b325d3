"""Spec interpreters: the full runtime stack vs the sequential oracle.

The differential-testing contract (paper Section III: the runtime must be
equivalent to the serial program the annotations came from): running a
:class:`~repro.dagfuzz.spec.WorkloadSpec` through the whole stack —
dependency graph, any scheduler, coherence, caches, transfers, faults —
must leave every region *bit-identical* to interpreting the same ops
serially in submission order (parents before their children, children
depth-first in declaration order).

The value model keeps each region constant-valued at a small exact
integer (see :mod:`repro.dagfuzz.spec`), so the oracle is a dict of ints
and comparison is ``np.array_equal`` — no tolerances, no washout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..cuda import KernelSpec
from ..hardware import build_gpu_cluster, build_multi_gpu_node
from ..runtime import Access, Direction, Runtime, RuntimeConfig, Task
from ..sim import Environment
from .spec import MODULUS, OpSpec, WorkloadSpec

__all__ = ["MACHINES", "CheckResult", "build_machine", "make_body",
           "sequential_reference", "expected_arrays", "run_workload",
           "check_workload"]

#: machine names the fuzzer knows how to build.
MACHINES = ("gpu1", "gpu2", "gpu4", "cluster2", "cluster3")


def build_machine(env: Environment, name: str):
    if name.startswith("cluster"):
        return build_gpu_cluster(env, num_nodes=int(name[7:]))
    if name.startswith("gpu"):
        return build_multi_gpu_node(env, num_gpus=int(name[3:]))
    raise ValueError(f"unknown machine {name!r}; expected one of {MACHINES}")


# ----------------------------------------------------------------------
# The op body and its serial interpretation — one formula, two readers
# ----------------------------------------------------------------------

def _combine(seed: int, in_sums: "list[int]", out_sum: Optional[int]) -> int:
    """The op's value function over exact integer buffer sums."""
    total = 7 + 31 * seed
    for k, s in enumerate(in_sums):
        total += (k + 1) * s
    if out_sum is not None:                       # inout: old value feeds in
        total += (len(in_sums) + 1) * out_sum
    return total % MODULUS


def make_body(op: OpSpec):
    """The task body: ``args = [*ins, *unused, out]`` resolved buffers."""
    n_in, n_unused, inout = len(op.ins), len(op.unused), op.inout
    seed = op.seed

    def body(*buffers):
        ins = buffers[:n_in]                      # unused buffers ignored
        out = buffers[n_in + n_unused]
        in_sums = [int(b.sum(dtype=np.float64)) for b in ins]
        out_sum = int(out.sum(dtype=np.float64)) if inout else None
        out[:] = np.float32(_combine(seed, in_sums, out_sum))

    return body


def sequential_reference(spec: WorkloadSpec) -> "dict[int, int]":
    """Serial interpretation: region id -> final integer value."""
    table = spec.regions()
    value = {r.rid: r.obj_index + 1 for r in table}

    def apply(op: OpSpec):
        in_sums = [value[r] * table[r].length for r in op.ins]
        out_sum = (value[op.out] * table[op.out].length
                   if op.inout else None)
        value[op.out] = _combine(op.seed, in_sums, out_sum)
        for child in op.children:
            apply(child)

    for op in spec.ops:
        apply(op)
    return value


def expected_arrays(spec: WorkloadSpec) -> "dict[int, np.ndarray]":
    """The oracle as concrete float32 buffers (region id -> array)."""
    value = sequential_reference(spec)
    return {info.rid: np.full(info.length, np.float32(value[info.rid]),
                              dtype=np.float32)
            for info in spec.regions()}


# ----------------------------------------------------------------------
# The full-stack interpreter
# ----------------------------------------------------------------------

def _build_task(op: OpSpec, name: str, region_of, mis: Optional[str] = None
                ) -> Task:
    """One runtime Task (and its nested children factory) for ``op``."""
    arg_rids = list(op.ins) + list(op.unused) + [op.out]
    args = tuple(region_of(r) for r in arg_rids)
    if op.children:
        # A decomposing parent orders its whole unit through the sibling
        # graph it lives in: inout over every tile it or any descendant
        # touches (children get only a sibling-local graph of their own).
        scope = sorted(op.footprint())
        accesses = tuple(Access(region_of(r), Direction.INOUT)
                         for r in scope)
    else:
        out_dir = Direction.INOUT if op.inout else Direction.OUT
        if mis == "out_as_in":
            out_dir = Direction.IN               # the planted lie
        accesses = (tuple(Access(region_of(r), Direction.IN)
                          for r in op.ins)
                    + tuple(Access(region_of(r), Direction.IN)
                            for r in op.unused)
                    + (Access(region_of(op.out), out_dir),))
    body = make_body(op)

    subtasks = None
    if op.children:
        children = op.children

        def subtasks(children=children, name=name):
            # fresh Task objects per call: re-decomposition after a fault
            # re-execution must not reuse consumed task state.
            return [_build_task(child, f"{name}.{i}", region_of)
                    for i, child in enumerate(children)]

    if op.device == "cuda":
        return Task(name=name, device="cuda",
                    kernel=KernelSpec(name=f"k_{name}",
                                      cost=lambda spec, c=op.cost: c,
                                      func=body),
                    accesses=accesses, args=args, subtasks=subtasks)
    return Task(name=name, device="smp", smp_cost=op.cost, func=body,
                accesses=accesses, args=args, subtasks=subtasks)


def run_workload(spec: WorkloadSpec, machine: str = "gpu2",
                 config: Optional[RuntimeConfig] = None, sanitizer=None
                 ) -> "tuple[dict[int, np.ndarray], float]":
    """Run ``spec`` through the full stack; returns (outputs, makespan).

    ``outputs`` maps region id -> the master host's final bytes.
    """
    config = config or RuntimeConfig(functional=True)
    if not config.functional:
        raise ValueError("dagfuzz workloads need functional mode")
    env = Environment()
    rt = Runtime(build_machine(env, machine), config,
                 subscribers=(sanitizer,))

    objects = [rt.register_array(
        f"o{i}", spec.object_elements(i),
        initial=np.full(spec.object_elements(i), np.float32(i + 1),
                        dtype=np.float32))
        for i in range(spec.num_objects)]
    table = spec.regions()

    def region_of(rid: int):
        info = table[rid]
        return objects[info.obj_index].region(info.start, info.length)

    mis_index = len(spec.ops) - 1 if spec.mis else -1
    tasks = [_build_task(op, f"t{i}", region_of,
                         mis=spec.mis if i == mis_index else None)
             for i, op in enumerate(spec.ops)]

    def main():
        for op, task in zip(spec.ops, tasks):
            rt.submit(task)
            if op.wait_after == "on":
                yield from rt.taskwait_on([region_of(op.out)])
            elif op.wait_after == "on_noflush":
                yield from rt.taskwait_on([region_of(op.out)],
                                          noflush=True)
            elif op.wait_after == "all":
                yield from rt.taskwait()
            elif op.wait_after == "all_noflush":
                yield from rt.taskwait(noflush=True)
        yield from rt.taskwait()

    makespan = rt.run_main(main())
    outputs = {info.rid: np.array(rt.master_host.read(region_of(info.rid)))
               for info in table}
    return outputs, makespan


# ----------------------------------------------------------------------
# The differential check
# ----------------------------------------------------------------------

@dataclass
class CheckResult:
    """Outcome of one spec x configuration differential run."""

    ok: bool
    mismatches: "list[str]" = field(default_factory=list)
    error: Optional[str] = None
    makespan: float = 0.0

    def describe(self) -> str:
        if self.ok:
            return "ok"
        if self.error is not None:
            return f"crashed: {self.error}"
        return "diverged: " + "; ".join(self.mismatches[:4])


def check_workload(spec: WorkloadSpec, machine: str = "gpu2",
                   config: Optional[RuntimeConfig] = None,
                   mutate: Optional[str] = None) -> CheckResult:
    """Run the full stack and compare against the sequential oracle.

    ``mutate`` names a bug class from :data:`repro.dagfuzz.mutations.
    MUTATIONS` to inject for the duration of the run (fuzzer self-test);
    a crash under mutation counts as a caught divergence.
    """
    from .mutations import MUTATIONS, null_mutation
    ctx = MUTATIONS[mutate]() if mutate else null_mutation()
    try:
        with ctx:
            outputs, makespan = run_workload(spec, machine=machine,
                                             config=config)
    except Exception as exc:                      # caught bug, not a pass
        return CheckResult(ok=False, error=f"{type(exc).__name__}: {exc}")
    value = sequential_reference(spec)
    table = spec.regions()
    mismatches = []
    for info in table:
        expected = np.full(info.length, np.float32(value[info.rid]),
                           dtype=np.float32)
        got = outputs[info.rid]
        if not np.array_equal(got, expected):
            mismatches.append(
                f"region {info.rid} (o{info.obj_index}"
                f"[{info.start}:{info.start + info.length}]) expected "
                f"{expected[0]!r} got {np.unique(got)!r}")
    return CheckResult(ok=not mismatches, mismatches=mismatches,
                       makespan=makespan)
