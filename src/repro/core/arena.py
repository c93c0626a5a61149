"""The columnar buffer arena: one contiguous float store for all buffers.

MRL99's claim is that ``b * k`` *elements* of working memory suffice — so
the reproduction should pay ``b * k * 8`` *bytes*, not ``b * k`` boxed
PyObjects.  :class:`BufferArena` preallocates a single contiguous float64
store through the kernel backend (one ``array('d')`` on every backend)
and hands out zero-copy slot views; :class:`~repro.core.buffers.Buffer`
is a typed view (slot, length, weight, level, state) into it.

Collapse writing its output back into one input's slot ("Y ... physically
occupies space corresponding to one of them", Section 3.2) then means the
peak element storage is *provably* the arena allocation: ``slots *
capacity * 8`` bytes plus O(b) per-buffer metadata, which is what the
engine's ``memory_bytes`` property reports.

Deliberately dumb: the arena owns bytes, not lifecycle.  Which slots are
live, their lengths, weights and levels are the buffers' business — the
arena only writes (optionally sorting in place) and views.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.kernels import KernelBackend

__all__ = ["BufferArena", "FLOAT_BYTES", "BUFFER_METADATA_BYTES"]

#: Bytes per stored element: IEEE-754 binary64, on every backend.
FLOAT_BYTES = 8

#: Accounting estimate for one Buffer view object (slot index, length,
#: weight, level, state, node id) — the O(b) metadata term of the memory
#: bound.  A slotted CPython object with eight fields is ~120 bytes; any
#: constant works for the invariant, this one is honest.
BUFFER_METADATA_BYTES = 120


class BufferArena:
    """A preallocated ``slots * capacity`` float64 store with slot views.

    :param slots: number of fixed-size slots (the engine passes ``b``).
    :param capacity: elements per slot (the engine passes ``k``).
    :param backend: kernel backend deciding the storage form; ``None``
        means the pure-python reference backend.

    The full store is allocated up front: the python backend's
    ``array('d')`` cannot grow while zero-copy memoryviews of it are
    exported, and a fixed footprint is the point of the data structure.
    """

    __slots__ = ("_slots", "_capacity", "_backend", "_storage")

    def __init__(
        self,
        slots: int,
        capacity: int,
        backend: KernelBackend | None = None,
    ) -> None:
        if slots < 1:
            raise ValueError(f"arena needs at least 1 slot, got {slots}")
        if capacity < 1:
            raise ValueError(f"slot capacity must be >= 1, got {capacity}")
        if backend is None:
            from repro.kernels.python_backend import PYTHON_BACKEND

            backend = PYTHON_BACKEND
        self._slots = slots
        self._capacity = capacity
        self._backend = backend
        self._storage = backend.alloc_values(slots * capacity)

    def __repr__(self) -> str:
        return (
            f"BufferArena(slots={self._slots}, capacity={self._capacity}, "
            f"backend={self._backend.name!r}, nbytes={self.nbytes})"
        )

    @property
    def slots(self) -> int:
        """Number of fixed-size slots."""
        return self._slots

    @property
    def capacity(self) -> int:
        """Elements per slot."""
        return self._capacity

    @property
    def backend(self) -> KernelBackend:
        """The kernel backend that owns the storage form."""
        return self._backend

    @property
    def nbytes(self) -> int:
        """Bytes of element storage held: ``slots * capacity * 8``, always.

        Preallocation makes this a constant — the provable peak, not a
        high-water mark.
        """
        return self._slots * self._capacity * FLOAT_BYTES

    def write(self, slot: int, values: Sequence[float], *, sort: bool) -> None:
        """Copy ``values`` into a slot, sorting in place when asked.

        ``sort=True`` is New's populate path (unsorted sample values);
        ``sort=False`` is the Collapse output path (already sorted).
        """
        self._check_slot(slot)
        if len(values) > self._capacity:
            raise ValueError(
                f"{len(values)} values exceed slot capacity {self._capacity}"
            )
        if len(values) == 0:
            return
        self._backend.write_slot(
            self._storage, slot * self._capacity, values, sort=sort
        )

    def view(self, slot: int, length: int) -> Sequence[float]:
        """Zero-copy view of the first ``length`` elements of a slot.

        A ``memoryview`` slice: a random-access float sequence the merge
        and selection kernels consume without materialising lists.
        """
        self._check_slot(slot)
        if not 0 <= length <= self._capacity:
            raise ValueError(
                f"view length {length} outside slot capacity [0, {self._capacity}]"
            )
        return self._backend.slot_view(self._storage, slot * self._capacity, length)

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self._slots:
            raise IndexError(f"slot {slot} outside arena of {self._slots} slots")
