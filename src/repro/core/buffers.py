"""The buffer abstraction of the MRL framework (Section 3).

The algorithm manages ``b`` physical buffers, each holding up to ``k``
elements.  A buffer is always **empty**, **partial**, or **full**, and a
non-empty buffer carries a positive integer *weight* (each stored element
conceptually stands for ``weight`` input elements) and an integer *level*
(its position in the collapse tree, used by the collapse policy).

Buffers are deliberately mutable and reused in place: Collapse writes its
output into one of its input buffers ("Y is logically different from
X1..Xc but physically occupies space corresponding to one of them"), so the
physical memory footprint stays at ``b * k`` elements.

Since the columnar-arena refactor a :class:`Buffer` owns no element
storage of its own: it is a typed *view* — (slot, length, weight, level,
state) — into a shared :class:`~repro.core.arena.BufferArena`, and
``data`` is a zero-copy slice of the arena's contiguous float64 store.
A buffer constructed standalone (``Buffer(capacity)``, as the unit tests
and examples do) gets a private single-slot arena, so the API is
unchanged.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.core.arena import BufferArena

if TYPE_CHECKING:
    from repro.kernels import KernelBackend

__all__ = ["Buffer", "BufferState"]


class BufferState(enum.Enum):
    """Lifecycle states of a physical buffer."""

    EMPTY = "empty"
    PARTIAL = "partial"
    FULL = "full"


class Buffer:
    """One physical buffer of capacity ``k`` — a typed view into an arena.

    The elements of a non-empty buffer are always kept sorted — New sorts
    on populate, and Collapse produces sorted output — which is what lets
    Collapse and Output run as streaming merges.

    :param capacity: elements the buffer can hold (``k``).
    :param arena: the shared arena this buffer views; ``None`` allocates
        a private single-slot arena (standalone construction).
    :param slot: the arena slot this buffer owns; ignored without an
        arena.
    """

    __slots__ = ("capacity", "weight", "level", "state", "node_id", "_arena", "_slot", "_length")

    def __init__(
        self,
        capacity: int,
        *,
        arena: BufferArena | None = None,
        slot: int = 0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"buffer capacity must be >= 1, got {capacity}")
        if arena is None:
            arena = BufferArena(1, capacity)
            slot = 0
        elif capacity != arena.capacity:
            raise ValueError(
                f"buffer capacity {capacity} differs from arena slot "
                f"capacity {arena.capacity}"
            )
        self.capacity = capacity
        self._arena = arena
        self._slot = slot
        self._length = 0
        self.weight = 0
        self.level = 0
        self.state = BufferState.EMPTY
        # Logical identity of the buffer contents in the collapse-tree trace
        # (physical buffers are reused, logical buffers are not).
        self.node_id: int | None = None

    def __repr__(self) -> str:
        return (
            f"Buffer(state={self.state.value}, len={self._length}/"
            f"{self.capacity}, weight={self.weight}, level={self.level})"
        )

    @property
    def data(self) -> Sequence[float]:
        """Zero-copy view of the stored elements (sorted when non-empty).

        A ``memoryview`` slice of the arena: random-access, sliceable,
        iterable floats.
        The view aliases the arena: it is invalidated by the next write
        to this buffer's slot (take ``list(buf.data)`` to keep a copy).
        """
        return self._arena.view(self._slot, self._length)

    @property
    def slot(self) -> int:
        """The arena slot this buffer views."""
        return self._slot

    @property
    def is_empty(self) -> bool:
        return self.state is BufferState.EMPTY

    @property
    def is_full(self) -> bool:
        return self.state is BufferState.FULL

    @property
    def is_partial(self) -> bool:
        return self.state is BufferState.PARTIAL

    @property
    def total_weight(self) -> int:
        """Weight mass represented: ``len(data) * weight``."""
        return self._length * self.weight

    def populate(
        self,
        values: Sequence[float],
        weight: int,
        level: int,
        *,
        backend: KernelBackend | None = None,
    ) -> None:
        """Fill an empty buffer with (unsorted) values — the tail of New.

        Marks the buffer full when exactly ``capacity`` values are given,
        partial otherwise (the input stream ran dry mid-fill).  The
        values are sorted into the arena slot by the arena backend's sort
        kernel; the ``backend`` parameter is retained for API
        compatibility and must match the arena's backend when given.
        """
        if not self.is_empty:
            raise RuntimeError(f"cannot populate a non-empty buffer: {self!r}")
        if len(values) == 0:
            raise ValueError("cannot populate a buffer with zero values")
        if len(values) > self.capacity:
            raise ValueError(
                f"{len(values)} values exceed buffer capacity {self.capacity}"
            )
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        if backend is not None and backend is not self._arena.backend:
            raise ValueError(
                f"populate backend {backend.name!r} does not match the "
                f"arena backend {self._arena.backend.name!r}"
            )
        self._arena.write(self._slot, values, sort=True)
        self._length = len(values)
        self.weight = weight
        self.level = level
        self.state = (
            BufferState.FULL if len(values) == self.capacity else BufferState.PARTIAL
        )

    def store_collapse_output(
        self, values: Sequence[float], weight: int, level: int
    ) -> None:
        """Overwrite this buffer with a Collapse result (already sorted).

        ``values`` must be materialised (a list or a backend array), not a
        live view of this buffer's own slot — Collapse guarantees that by
        selecting the kept values before reclaiming its inputs.
        """
        if len(values) != self.capacity:
            raise ValueError(
                f"collapse output must have exactly {self.capacity} elements, "
                f"got {len(values)}"
            )
        self._arena.write(self._slot, values, sort=False)
        self._length = len(values)
        self.weight = weight
        self.level = level
        self.state = BufferState.FULL

    def restore(
        self,
        values: Sequence[float],
        weight: int,
        level: int,
        state: BufferState,
    ) -> None:
        """Reload checkpointed contents (already sorted) into the slot."""
        if len(values) > self.capacity:
            raise ValueError(
                f"{len(values)} values exceed buffer capacity {self.capacity}"
            )
        self._arena.write(self._slot, values, sort=False)
        self._length = len(values)
        self.weight = weight
        self.level = level
        self.state = state

    def mark_empty(self) -> None:
        """Reclaim the buffer (its contents were consumed by a Collapse)."""
        self._length = 0
        self.weight = 0
        self.level = 0
        self.state = BufferState.EMPTY

    def as_weighted(self) -> tuple[Sequence[float], int]:
        """View as a ``(sorted_values, weight)`` pair for merging/queries."""
        if self.is_empty:
            raise RuntimeError("an empty buffer has no weighted view")
        return self.data, self.weight
