"""Data handles: the application's view of runtime-managed memory.

A :class:`DataHandle` wraps one registered :class:`~repro.memory.DataObject`.
Slicing a handle (``a[j:j+bs]``) yields a :class:`DataView` over the
corresponding region — the analogue of passing ``&a[j]`` with an ``[BS]``
dependence annotation in the paper's C examples.  Views are what dependence
clauses resolve against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..memory.region import DataObject, Region

if TYPE_CHECKING:  # pragma: no cover
    from .program import Program

__all__ = ["DataHandle", "DataView"]


class DataView:
    """A contiguous slice of a handle: one dependence/copy region."""

    def __init__(self, handle: "DataHandle", region: Region):
        self.handle = handle
        self.region = region

    @property
    def nbytes(self) -> int:
        return self.region.nbytes

    def __len__(self) -> int:
        return self.region.length

    @property
    def np(self) -> np.ndarray:
        """Current canonical contents (functional mode, after a flush)."""
        rt = self.handle.program.rt
        # Only this view's range is read — noting the whole object would
        # charge the program with reads it never made.
        for fn in rt.probes.host_read:
            fn(self.handle.obj, self.region.start, self.region.end)
        array = rt.read_array(self.handle.obj)
        return array[self.region.start:self.region.end]

    def __repr__(self) -> str:
        return f"<DataView {self.region!r}>"


class DataHandle:
    """One runtime-managed array, sliceable into task regions."""

    def __init__(self, program: "Program", obj: DataObject):
        self.program = program
        self.obj = obj
        #: what the task constructs intern per array, so that it lives as
        #: long as the program: clause entries, keyed by region and
        #: direction, and cost bindings, keyed by task function and scalar
        #: arguments.
        self.accesses: dict = {}
        self.cost_bindings: dict = {}

    @property
    def name(self) -> str:
        return self.obj.name

    @property
    def num_elements(self) -> int:
        return self.obj.num_elements

    @property
    def nbytes(self) -> int:
        return self.obj.nbytes

    @property
    def whole(self) -> DataView:
        return DataView(self, self.obj.whole)

    def view(self, start: int, length: int) -> DataView:
        return DataView(self, self.obj.region(start, length))

    def __getitem__(self, index) -> DataView:
        if isinstance(index, slice):
            if index.step not in (None, 1):
                raise ValueError("strided regions are not supported "
                                 "(paper future work: non-contiguous regions)")
            start = 0 if index.start is None else index.start
            stop = self.num_elements if index.stop is None else index.stop
            if start < 0 or stop < 0:
                raise ValueError("negative slice bounds are not supported")
            return self.view(start, stop - start)
        raise TypeError("index a handle with a slice, e.g. a[j:j+bs]")

    def __len__(self) -> int:
        return self.num_elements

    @property
    def np(self) -> np.ndarray:
        """The canonical master-host array (functional mode)."""
        rt = self.program.rt
        for fn in rt.probes.host_read:
            fn(self.obj, 0, self.obj.num_elements)
        return rt.read_array(self.obj)

    def __repr__(self) -> str:
        return f"<DataHandle {self.obj!r}>"
