"""The buffer-pool engine shared by all estimators (Section 3).

:class:`CollapseEngine` owns the ``b`` physical buffers of ``k`` elements,
applies the collapse policy when the pool fills, and answers weighted
quantile queries over the surviving buffers.  It is deliberately unaware of
*sampling*: callers deposit already-chosen sample values together with their
weight and level, which is how the same engine backs

* the deterministic known-N algorithm (weight 1, level 0 deposits),
* the paper's unknown-N algorithm (weights/levels follow the non-uniform
  sampling schedule of Section 3.7),
* the parallel coordinator of Section 6 (buffers arrive pre-weighted from
  worker processors).

Buffer allocation is lazy: physical buffers are created one at a time as
needed, up to ``b`` (the simple amelioration Section 5 opens with).  An
optional *allocator* callback can delay allocation further — that hook is
how the Section 5 buffer-allocation schedules plug in.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from repro.core.arena import BUFFER_METADATA_BYTES, BufferArena
from repro.core.buffers import Buffer, BufferState
from repro.core.operations import collapse_buffers
from repro.core.policy import POLICY_REGISTRY, CollapsePolicy, MRLPolicy, policy_from_name
from repro.core.tree import TreeTrace
from repro.kernels import (
    KernelBackend,
    MergedView,
    backend_from_checkpoint,
    get_backend,
)
from repro.stats.rank import quantile_position

__all__ = ["CollapseEngine"]

#: Decides, given (leaves_created, buffers_allocated), whether to allocate a
#: new physical buffer now (True) or reclaim space by collapsing (False).
AllocatorHook = Callable[[int, int], bool]


class CollapseEngine:
    """``b`` buffers of ``k`` elements driven by a collapse policy.

    :param b: maximum number of physical buffers.
    :param k: elements per buffer.
    :param policy: collapse policy; defaults to the paper's
        :class:`~repro.core.policy.MRLPolicy`.
    :param trace: when True, record the full collapse tree (test/diagnostic
        aid; costs O(#logical buffers) memory, so leave off in production).
    :param allocator: optional hook delaying physical-buffer allocation
        (Section 5 schedules); default allocates whenever below ``b``.
    :param alternate_even_offsets: keep the paper's alternation between the
        two even-weight Collapse offsets; disabling it exists only for the
        offset ablation benchmark.
    :param backend: kernel backend (a name, an instance, or None) for the
        Collapse and query kernels; None resolves ``REPRO_BACKEND`` and
        falls back to the pure-python reference backend.
    :param cache: memoise the merged weighted view of the full buffers
        between mutations, so repeated queries cost two binary searches
        instead of a full re-merge.  On by default; turning it off exists
        for the cache ablation benchmark and to shave O(b*k) memory.
    """

    def __init__(
        self,
        b: int,
        k: int,
        policy: CollapsePolicy | None = None,
        *,
        trace: bool = False,
        allocator: AllocatorHook | None = None,
        alternate_even_offsets: bool = True,
        backend: str | KernelBackend | None = None,
        cache: bool = True,
    ) -> None:
        if b < 2:
            raise ValueError(f"need at least 2 buffers, got b={b}")
        if k < 1:
            raise ValueError(f"buffer size must be >= 1, got k={k}")
        self._b = b
        self._k = k
        self._policy = policy if policy is not None else MRLPolicy()
        self._buffers: list[Buffer] = []
        self._trace = TreeTrace() if trace else None
        self._allocator = allocator
        self._alternate = alternate_even_offsets
        self._low_for_even = True
        self._leaves_created = 0
        self._max_collapse_level = -1
        self._collapse_count = 0
        self._collapse_weight_sum = 0
        self._backend = get_backend(backend)
        # One contiguous b*k float64 store; every buffer is a view into it.
        self._arena = BufferArena(b, k, backend=self._backend)
        self._cache_enabled = cache
        self._version = 0
        self._cached_view: MergedView | None = None
        self._cached_version = -1
        # (version, extras object, combined view) — valid while the pool is
        # unmutated and the caller passes the *same* extras view object.
        self._combined_cache: tuple[int, MergedView, MergedView] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def b(self) -> int:
        """Maximum number of physical buffers."""
        return self._b

    @property
    def k(self) -> int:
        """Elements per buffer."""
        return self._k

    @property
    def policy(self) -> CollapsePolicy:
        """The collapse policy in force."""
        return self._policy

    @property
    def backend(self) -> KernelBackend:
        """The kernel backend performing Collapse and query merges."""
        return self._backend

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every deposit and Collapse.

        Estimators key their own derived caches (e.g. the staged-extras
        view) on this, so anything computed from the buffer pool can be
        invalidated without the engine knowing it exists.
        """
        return self._version

    @property
    def buffers_allocated(self) -> int:
        """Physical buffers allocated so far (lazy allocation)."""
        return len(self._buffers)

    @property
    def arena(self) -> BufferArena:
        """The columnar arena holding every buffer's elements."""
        return self._arena

    @property
    def memory_elements(self) -> int:
        """Current element-slots of memory in use: ``allocated * k``.

        Buffer *views* are still allocated lazily, so this tracks the
        Section 5 allocation schedules; the byte-accurate peak (the whole
        preallocated arena) is :attr:`memory_bytes`.
        """
        return len(self._buffers) * self._k

    @property
    def memory_bytes(self) -> int:
        """Peak bytes of element storage plus buffer metadata.

        Exactly ``b * k * 8`` arena bytes (preallocated, so peak equals
        current) plus O(b) per-buffer metadata — the paper's space bound,
        in bytes.
        """
        return self._arena.nbytes + len(self._buffers) * BUFFER_METADATA_BYTES

    @property
    def leaves_created(self) -> int:
        """Number of New buffers deposited so far."""
        return self._leaves_created

    @property
    def collapse_count(self) -> int:
        """Number of Collapse operations performed so far."""
        return self._collapse_count

    @property
    def collapse_weight_sum(self) -> int:
        """``W``: summed weights of all Collapse outputs (Section 4.2).

        Together with the heaviest live buffer this gives the Lemma 4
        error bound ``W/2 + w_max`` without tracing the whole tree.
        """
        return self._collapse_weight_sum

    def error_bound_elements(self) -> float:
        """Lemma 4 (weak form): rank-error bound of Output right now.

        ``(W/2 + w_max) * 1`` in weight units — weights are element counts,
        so this is directly comparable to ``eps * N``.
        """
        live = [buf.weight for buf in self._buffers if buf.is_full]
        w_max = max(live, default=0)
        return self._collapse_weight_sum / 2.0 + w_max

    @property
    def max_collapse_level(self) -> int:
        """Highest level of any Collapse output (-1 before any collapse).

        The unknown-N estimator watches this to trigger sampling onset and
        the successive rate doublings of Section 3.7.
        """
        return self._max_collapse_level

    @property
    def trace(self) -> TreeTrace | None:
        """The collapse-tree trace, when enabled."""
        return self._trace

    def full_buffers(self) -> list[Buffer]:
        """The currently full buffers (the root's children-to-be)."""
        return [buf for buf in self._buffers if buf.is_full]

    @property
    def total_weight(self) -> int:
        """Weight mass held in full buffers: ``sum(len * weight)``."""
        return sum(buf.total_weight for buf in self._buffers if buf.is_full)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def deposit(self, values: Sequence[float], weight: int, level: int) -> None:
        """Complete a New operation: store ``k`` chosen values.

        Collapses (or allocates) first if no buffer is empty.  The caller —
        the sampling layer — guarantees ``len(values) == k``; partially
        filled buffers never enter the pool (in-flight values are passed to
        :meth:`query` as extras instead, preserving query-at-any-time).
        """
        if len(values) != self._k:
            raise ValueError(
                f"deposit needs exactly k={self._k} values, got {len(values)}"
            )
        target = self._acquire_empty()
        target.populate(values, weight, level, backend=self._backend)
        self._version += 1
        self._leaves_created += 1
        if self._trace is not None:
            target.node_id = self._trace.new_leaf(weight, level)
        if self._policy.eager:
            self._collapse_eagerly()

    def _collapse_eagerly(self) -> None:
        """Munro-Paterson discipline: merge any two same-level buffers now."""
        while True:
            by_level: dict[int, list[Buffer]] = {}
            for buf in self._buffers:
                if buf.is_full:
                    by_level.setdefault(buf.level, []).append(buf)
            duplicated = [lvl for lvl, bufs in by_level.items() if len(bufs) >= 2]
            if not duplicated:
                return
            self._collapse(by_level[min(duplicated)][:2])

    def ensure_empty(self) -> None:
        """Make an empty buffer available (allocating or collapsing now).

        Estimators call this at the *start* of a New operation so that any
        collapse — and therefore any sampling-rate doubling it triggers —
        happens before the New's rate is fixed (Section 3.7 ordering).
        """
        self._acquire_empty()

    def _acquire_empty(self) -> Buffer:
        """Return an empty buffer, allocating or collapsing as needed."""
        for buf in self._buffers:
            if buf.is_empty:
                return buf
        may_allocate = len(self._buffers) < self._b and (
            self._allocator is None
            or self._allocator(self._leaves_created, len(self._buffers))
        )
        if may_allocate or len(self._buffers) < 2:
            if len(self._buffers) >= self._b:
                raise RuntimeError(
                    "allocator refused to allocate but fewer than 2 buffers exist"
                )
            buf = Buffer(self._k, arena=self._arena, slot=len(self._buffers))
            self._buffers.append(buf)
            return buf
        self.collapse_once()
        for buf in self._buffers:
            if buf.is_empty:
                return buf
        raise AssertionError("collapse freed no buffer")

    def collapse_once(self) -> Buffer:
        """Run one Collapse chosen by the policy; returns the output buffer."""
        full = self.full_buffers()
        chosen = self._policy.choose(full)
        return self._collapse(chosen)

    def final_collapse(self) -> Buffer | None:
        """Collapse *all* full buffers into one (Section 6 worker hand-off).

        No-op (returns the sole buffer or None) when fewer than two buffers
        are full.
        """
        full = self.full_buffers()
        if len(full) < 2:
            return full[0] if full else None
        return self._collapse(full)

    def _collapse(self, chosen: Sequence[Buffer]) -> Buffer:
        child_ids = [buf.node_id for buf in chosen]
        output = collapse_buffers(
            chosen, low_for_even=self._low_for_even, backend=self._backend
        )
        self._version += 1
        if self._alternate and output.weight % 2 == 0:
            self._low_for_even = not self._low_for_even
        self._collapse_count += 1
        self._collapse_weight_sum += output.weight
        self._max_collapse_level = max(self._max_collapse_level, output.level)
        if self._trace is not None:
            output.node_id = self._trace.new_collapse(
                [cid for cid in child_ids if cid is not None],
                output.weight,
                output.level,
            )
        return output

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """The engine's full restorable state (buffers, flags, counters).

        Checkpointing covers the algorithmic state only: a trace or a
        custom allocator hook cannot be serialised, and a policy outside
        the built-in registry cannot be reconstructed by name, so all
        three are refused loudly instead of silently dropped.
        """
        if self._trace is not None:
            raise ValueError("a traced engine cannot be checkpointed; disable trace")
        if self._allocator is not None:
            raise ValueError(
                "an engine with a custom allocator hook cannot be checkpointed"
            )
        if type(self._policy) is not POLICY_REGISTRY.get(self._policy.name):
            raise ValueError(
                f"policy {type(self._policy).__name__!r} is not a registered "
                "built-in policy and cannot be checkpointed"
            )
        return {
            "b": self._b,
            "k": self._k,
            "policy": self._policy.name,
            "low_for_even": self._low_for_even,
            "alternate_even_offsets": self._alternate,
            "leaves_created": self._leaves_created,
            "max_collapse_level": self._max_collapse_level,
            "collapse_count": self._collapse_count,
            "collapse_weight_sum": self._collapse_weight_sum,
            "backend": self._backend.name,
            "buffers": [
                {
                    # replint: disable=buffer-arena -- state dicts are the
                    # plain-data contract; repro.persist re-hoists columns
                    "data": self._backend.tolist(buf.data),
                    "weight": buf.weight,
                    "level": buf.level,
                    "state": buf.state.value,
                }
                for buf in self._buffers
            ],
        }

    @classmethod
    def from_state_dict(
        cls, state: dict[str, Any], *, backend: str | KernelBackend | None = None
    ) -> "CollapseEngine":
        """Rebuild an engine exactly as :meth:`state_dict` captured it.

        ``backend`` overrides the checkpointed backend name (absent in
        pre-kernel checkpoints, which default to ``python``) — buffer
        contents are backend-agnostic plain floats, so a checkpoint taken
        under one backend restores cleanly under another.  A checkpointed
        backend that is unavailable on the restoring host degrades to the
        pure-python reference backend with a warning (an explicit
        ``backend=`` request still raises).
        """
        if backend is None:
            backend = backend_from_checkpoint(state.get("backend"))
        engine = cls(
            int(state["b"]),
            int(state["k"]),
            policy_from_name(state["policy"]),
            alternate_even_offsets=bool(state["alternate_even_offsets"]),
            backend=backend,
        )
        engine._low_for_even = bool(state["low_for_even"])
        engine._leaves_created = int(state["leaves_created"])
        engine._max_collapse_level = int(state["max_collapse_level"])
        engine._collapse_count = int(state["collapse_count"])
        engine._collapse_weight_sum = int(state["collapse_weight_sum"])
        for entry in state["buffers"]:
            buf = Buffer(engine._k, arena=engine._arena, slot=len(engine._buffers))
            buf.restore(
                [float(v) for v in entry["data"]],
                int(entry["weight"]),
                int(entry["level"]),
                BufferState(entry["state"]),
            )
            engine._buffers.append(buf)
        return engine

    # ------------------------------------------------------------------
    # Queries (the Output operation; never modifies state)
    # ------------------------------------------------------------------
    def weighted_view(
        self, extra: Sequence[tuple[Sequence[float], int]] = ()
    ) -> list[tuple[Sequence[float], int]]:
        """The ``(sorted_values, weight)`` pairs Output would consume."""
        view: list[tuple[Sequence[float], int]] = [
            buf.as_weighted() for buf in self._buffers if buf.is_full
        ]
        view.extend(extra)
        return view

    def merged_full_view(self) -> MergedView:
        """The flattened weighted view of the full buffers, memoised.

        Rebuilt (through the backend's merge kernel) only when a deposit
        or Collapse has mutated the pool since the last query; between
        mutations every query is a binary search over this view.
        """
        if self._cache_enabled and self._cached_version == self._version:
            assert self._cached_view is not None
            return self._cached_view
        view = self._backend.merged_view(
            [buf.as_weighted() for buf in self._buffers if buf.is_full]
        )
        if self._cache_enabled:
            self._cached_view = view
            self._cached_version = self._version
        return view

    def extras_view(
        self, extra: Sequence[tuple[Sequence[float], int]]
    ) -> MergedView | None:
        """Merge query-time extras (partial buffer, in-flight samples).

        Estimators that can cache this themselves (extras only change
        when ``n`` does) pass the resulting :class:`MergedView` straight
        back into :meth:`query` / :meth:`query_many` / :meth:`weighted_rank`.
        """
        if isinstance(extra, MergedView):
            return extra if len(extra) else None
        pairs = [(data, weight) for data, weight in extra if len(data)]
        if not pairs:
            return None
        return self._backend.merged_view(pairs)

    def _combined_view(self, extras: MergedView | None) -> MergedView:
        """Full buffers and extras merged into one flattened view.

        Memoised per (pool version, extras object): estimators cache
        their extras view between updates and pass the same object back,
        so a burst of queries pays the merge once and then binary-searches.
        """
        if extras is None or len(extras) == 0:
            return self.merged_full_view()
        cached = self._combined_cache
        if (
            self._cache_enabled
            and cached is not None
            and cached[0] == self._version
            and cached[1] is extras
        ):
            return cached[2]
        combined = self._backend.merge_views(self.merged_full_view(), extras)
        if self._cache_enabled:
            self._combined_cache = (self._version, extras, combined)
        return combined

    def query(
        self,
        phi: float,
        extra: Sequence[tuple[Sequence[float], int]] | MergedView = (),
    ) -> float:
        """The weighted phi-quantile of the engine's contents plus extras."""
        return self.query_many([phi], extra)[0]

    def query_many(
        self,
        phis: Sequence[float],
        extra: Sequence[tuple[Sequence[float], int]] | MergedView = (),
    ) -> list[float]:
        """Several quantiles against the memoised view (order preserved)."""
        combined = self._combined_view(self.extras_view(extra))
        total = combined.total_weight
        if total <= 0:
            raise ValueError("Output invoked with no data")
        positions = [quantile_position(phi, total) for phi in phis]
        return combined.select_many(positions)

    def weighted_rank(
        self,
        value: float,
        extra: Sequence[tuple[Sequence[float], int]] | MergedView = (),
    ) -> int:
        """The inverse query: weighted count of stored mass <= ``value``.

        Since total weight equals the stream length, this estimates the
        rank of ``value`` in the stream, with the same error structure as
        the forward quantile query.
        """
        return self._combined_view(self.extras_view(extra)).cum_at(value)
