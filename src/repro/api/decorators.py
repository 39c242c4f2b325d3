"""The ``task`` and ``target`` constructs as Python decorators.

The paper annotates C functions::

    #pragma omp target device(cuda) copy_deps
    #pragma omp task input([N] a) output([N] c)
    void copy(double *a, double *c, int N);

which here reads::

    @target(device="cuda", copy_deps=True)
    @task(inputs=("a",), outputs=("c",), cost=copy_cost)
    def copy(a, c, n): ...

Calling the decorated function does not execute it — it creates a task whose
data environment is captured from the arguments (function tasks, *a la*
Cilk).  Dependence clauses name parameters; the arguments bound to those
parameters must be :class:`~repro.api.data.DataView` slices, from which the
runtime builds the dependence regions.
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterable, Optional, Sequence

from ..cuda.kernels import KernelSpec
from ..runtime.task import Access, Codelet, Direction, Task
from .data import DataHandle, DataView

__all__ = ["task", "target", "TaskFunction"]


def _access(view: DataView, direction: Direction) -> Access:
    """The view's handle's one :class:`Access` for (region, direction)."""
    table = view.handle.accesses
    # Plain attributes only: Region and Direction hash in Python.
    key = (view.region.key, direction.reads, direction.writes)
    access = table.get(key)
    if access is None:
        access = table[key] = Access(view.region, direction)
    return access


class TaskFunction:
    """A function annotated with the ``task`` construct."""

    def __init__(self, fn: Callable, inputs: Sequence[str],
                 outputs: Sequence[str], inouts: Sequence[str],
                 cost: "Callable | float" = 0.0,
                 label: Optional[str] = None):
        self.fn = fn
        self.label = label or fn.__name__
        self.signature = inspect.signature(fn)
        params = list(self.signature.parameters)
        # Binding happens on every task creation — the figure sweeps create
        # hundreds of thousands of tasks — so the signature is flattened
        # once into (names, defaults) and bound by hand in __call__ instead
        # of through inspect's BoundArguments machinery.
        self._param_names: tuple[str, ...] = tuple(params)
        self._defaults = {
            name: p.default
            for name, p in self.signature.parameters.items()
            if p.default is not inspect.Parameter.empty
        }
        for p in self.signature.parameters.values():
            if p.kind not in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY):
                raise ValueError(
                    f"task {self.label!r} parameter {p.name!r} uses "
                    f"unsupported kind {p.kind.description!r} (tasks bind "
                    "plain positional/keyword parameters only)"
                )
        self.clauses: dict[str, Direction] = {}
        for names, direction in ((inputs, Direction.IN),
                                 (outputs, Direction.OUT),
                                 (inouts, Direction.INOUT)):
            for name in names:
                if name not in params:
                    raise ValueError(
                        f"dependence clause names unknown parameter "
                        f"{name!r} of {self.label!r}"
                    )
                if name in self.clauses:
                    raise ValueError(
                        f"parameter {name!r} of {self.label!r} appears in "
                        "two dependence clauses"
                    )
                self.clauses[name] = direction
        if not self.clauses:
            raise ValueError(f"task {self.label!r} has no dependence clauses")
        self.cost = cost
        # target-construct attributes (defaults = SMP, copy semantics on).
        self.device = "smp"
        self.copy_deps = True
        self.copy_clauses: dict[str, Direction] = {}
        self._kernel_wrapped = False
        #: what every task this construct makes shares (rebuilt by
        #: ``set_target``).
        self.codelet = Codelet(self.label, func=fn)
        #: lazily computed parameter-name set of an external KernelSpec's
        #: cost model (resolved once, not per task creation).
        self._cost_params: Optional[set] = None

    # -- target construct wiring ---------------------------------------------
    def set_target(self, device: str, copy_deps: bool,
                   copy_in: Sequence[str] = (),
                   copy_out: Sequence[str] = (),
                   copy_inout: Sequence[str] = ()) -> None:
        params = list(self.signature.parameters)
        self.copy_clauses: dict[str, Direction] = {}
        for names, direction in ((copy_in, Direction.IN),
                                 (copy_out, Direction.OUT),
                                 (copy_inout, Direction.INOUT)):
            for name in names:
                if name not in params:
                    raise ValueError(
                        f"copy clause names unknown parameter {name!r} of "
                        f"{self.label!r}"
                    )
                self.copy_clauses[name] = direction
        self.device = device
        self.copy_deps = copy_deps
        if device == "cuda":
            self._cost_params = None
            cost = self.cost
            if isinstance(cost, KernelSpec):
                # Library kernel (e.g. CUBLAS sgemm): its cost model takes
                # named scalars and its func is the functional body.
                kernel = cost
                self._kernel_wrapped = False
            elif callable(cost):
                kernel = KernelSpec(
                    name=self.label,
                    cost=lambda spec, *, bound: cost(spec, bound),
                    func=self.fn,
                )
                self._kernel_wrapped = True
            else:
                raise ValueError(
                    f"cuda task {self.label!r} needs a cost model "
                    "(a KernelSpec or a callable(gpu_spec, bound_args))"
                )
            self.codelet = Codelet(self.label, kernel=kernel,
                                   copy_deps=copy_deps)
        else:
            self.codelet = Codelet(self.label, func=self.fn,
                                   copy_deps=copy_deps)

    # -- task creation ----------------------------------------------------------
    def _bind(self, args: tuple, kwargs: dict) -> dict:
        """Map call arguments to parameter names, in declaration order
        (hand-rolled ``signature.bind(...).apply_defaults()``)."""
        names = self._param_names
        npos = len(args)
        if npos > len(names):
            raise TypeError(
                f"task {self.label!r} takes {len(names)} arguments "
                f"({npos} given)")
        arguments: dict = {}
        for i, name in enumerate(names):
            if i < npos:
                if name in kwargs:
                    raise TypeError(
                        f"task {self.label!r} got multiple values for "
                        f"argument {name!r}")
                arguments[name] = args[i]
            elif name in kwargs:
                arguments[name] = kwargs[name]
            else:
                try:
                    arguments[name] = self._defaults[name]
                except KeyError:
                    raise TypeError(
                        f"task {self.label!r} missing required argument "
                        f"{name!r}") from None
        for name in kwargs:
            if name not in names:
                raise TypeError(
                    f"task {self.label!r} got an unexpected keyword "
                    f"argument {name!r}")
        return arguments

    def __call__(self, *args, **kwargs) -> Task:
        arguments = self._bind(args, kwargs)
        accesses = []
        handle = None
        for name, direction in self.clauses.items():
            value = arguments[name]
            if isinstance(value, DataView):
                accesses.append(_access(value, direction))
                handle = value.handle
            elif (isinstance(value, (list, tuple)) and value
                  and all(isinstance(v, DataView) for v in value)):
                # A clause over a set of regions (e.g. N-Body reading every
                # position block): one access per view, same direction.
                for v in value:
                    accesses.append(_access(v, direction))
                handle = value[0].handle
            else:
                raise TypeError(
                    f"argument {name!r} of task {self.label!r} carries a "
                    f"dependence clause and must be a DataView (or a "
                    f"non-empty list of them), got {type(value).__name__}"
                )

        copies = []
        for name, direction in self.copy_clauses.items():
            value = arguments[name]
            if not isinstance(value, DataView):
                raise TypeError(
                    f"argument {name!r} of task {self.label!r} carries a "
                    f"copy clause and must be a DataView, got "
                    f"{type(value).__name__}"
                )
            copies.append(_access(value, direction))

        # Placeholder substitution and scalar extraction in one pass:
        # DataViews become their regions, lists of views become region
        # tuples, everything else rides through and feeds the cost model.
        task_args = []
        scalars = {}
        for name, value in arguments.items():
            if isinstance(value, DataView):
                task_args.append(value.region)
            elif (isinstance(value, (list, tuple)) and value
                  and all(isinstance(v, DataView) for v in value)):
                task_args.append(tuple(v.region for v in value))
            else:
                task_args.append(value)
                scalars[name] = value
        task_args = tuple(task_args)
        if self.device == "cuda":
            t = Task(
                name=self.label, device="cuda", codelet=self.codelet,
                cost_kwargs=self._cost_binding(handle, scalars),
                accesses=tuple(accesses), args=task_args,
                copies=tuple(copies),
            )
        else:
            smp_cost = self.cost
            if callable(smp_cost) and not isinstance(smp_cost, KernelSpec):
                cost_value = self._cost_binding(handle, scalars)
            else:
                cost_value = float(smp_cost)
            t = Task(
                name=self.label, device="smp", smp_cost=cost_value,
                codelet=self.codelet, accesses=tuple(accesses),
                args=task_args, copies=tuple(copies),
            )
        return handle.program.submit(t)

    def _cost_binding(self, handle: DataHandle, scalars: dict):
        """What a task's cost model reads its scalars through: the kernel's
        cost kwargs (cuda) or a closure over the scalars (smp).  ``handle``
        is the array of the call's last dependence clause; calls through
        one handle with scalars equal in value and type share one binding,
        and nothing mutates it."""
        table = handle.cost_bindings
        key = (self, tuple(scalars.items()),
               tuple(map(type, scalars.values())))
        try:
            binding = table.get(key)
        except TypeError:  # an unhashable scalar: this binding is its own
            key = binding = None
        if binding is None:
            if self.device == "cuda":
                binding = ({"bound": scalars} if self._kernel_wrapped
                           else self._cost_kwargs(scalars))
            else:
                smp_cost = self.cost
                binding = lambda cpu_spec: smp_cost(cpu_spec, scalars)
            if key is not None:
                table[key] = binding
        return binding

    def _cost_kwargs(self, scalars: dict) -> dict:
        """Cost kwargs when an externally registered KernelSpec is used:
        pass the scalar arguments straight through."""
        cost_params = self._cost_params
        if cost_params is None:
            cost = self.codelet.kernel.cost
            cost_params = self._cost_params = set(
                inspect.signature(cost).parameters) - {"spec"}
        return {k: v for k, v in scalars.items() if k in cost_params}

    def __repr__(self) -> str:
        return f"<TaskFunction {self.label!r} device={self.device}>"


def task(inputs: Iterable[str] = (), outputs: Iterable[str] = (),
         inouts: Iterable[str] = (), cost: "Callable | float" = 0.0,
         label: Optional[str] = None) -> Callable[[Callable], TaskFunction]:
    """The ``task`` construct: annotate a function as a task factory."""

    def decorate(fn: Callable) -> TaskFunction:
        return TaskFunction(fn, tuple(inputs), tuple(outputs),
                            tuple(inouts), cost=cost, label=label)

    return decorate


def target(device: str = "smp", copy_deps: bool = True,
           copy_in: Iterable[str] = (), copy_out: Iterable[str] = (),
           copy_inout: Iterable[str] = ()
           ) -> Callable[[TaskFunction], TaskFunction]:
    """The ``target`` construct: device plus explicit copy clauses."""
    if device not in ("smp", "cuda"):
        raise ValueError(f"unsupported target device {device!r}")

    def decorate(tf: TaskFunction) -> TaskFunction:
        if not isinstance(tf, TaskFunction):
            raise TypeError("apply @target above @task (it annotates the "
                            "task construct, paper Section II.A.3)")
        tf.set_target(device, copy_deps, tuple(copy_in), tuple(copy_out),
                      tuple(copy_inout))
        return tf

    return decorate
