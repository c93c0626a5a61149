"""Tests for the compiled kernel backend (:mod:`repro.kernels.native_backend`).

Layers of confidence, mirroring ``test_kernels.py``:

* **Registry + degrade semantics** — ``"native"`` appears in
  :func:`available_backends` iff the extension is built; an explicit
  request on a build-free host raises :class:`BackendUnavailableError`
  naming the build remedy, the environment variable degrades (to numpy,
  then python) with a warning, and checkpoints degrade with a warning.
* **Property-tested equivalence matrix** — hypothesis drives the same
  weighted buffers and batches through native × python × numpy.  Against
  python the native backend is held to the *stronger* contract: with a
  shared ``random.Random`` every kernel is bit-identical (same draw law
  ``int(random() * rate)``, same tie law in the weighted merge).  The
  merge network is driven wider: up to 12 runs and past 64, with
  duplicates, signed zeros and zero weights shared across runs.
* **Cross-backend checkpoints, both directions** — a native checkpoint
  restores on a build-free host (python kernels, warning) and replays
  bit-identically; a python checkpoint retagged ``native`` restores on
  the compiled kernels and replays bit-identically.
* **Native end-to-end** — accuracy, zero-copy float64 ingest, atomic NaN
  rejection, persist framing, the uncached ``query_many`` rank walk, and
  no numpy import on the native path.
* **The polling loop** — ``query_many`` after every ``update_batch``,
  checked against exact ranks on python and native, and a mid-buffer
  checkpoint replayed bit-identically on and across both backends.
"""

from __future__ import annotations

import json
import random
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels_pkg
from repro.core.params import Plan
from repro.core.unknown_n import UnknownNQuantiles
from repro.kernels import (
    BACKEND_ENV_VAR,
    BackendUnavailableError,
    available_backends,
    backend_from_checkpoint,
    get_backend,
)
from repro.kernels.python_backend import PYTHON_BACKEND

try:
    from repro.kernels import _native  # noqa: F401

    HAVE_NATIVE = True
except ImportError:  # pragma: no cover - exercised on build-free hosts
    HAVE_NATIVE = False

try:
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised in numpy-free installs
    np = None
    HAVE_NUMPY = False

requires_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="compiled extension not built"
)

PLAN = Plan(0.05, 0.01, 3, 50, 2, 0.5, 6, 3, "mrl")


def _without_native(monkeypatch):
    """Make the compiled extension (and its shim) unimportable."""
    monkeypatch.setitem(sys.modules, "repro.kernels._native", None)
    monkeypatch.setitem(sys.modules, "repro.kernels.native_backend", None)
    monkeypatch.delattr(kernels_pkg, "_native", raising=False)
    monkeypatch.delattr(kernels_pkg, "native_backend", raising=False)


# ----------------------------------------------------------------------
# Registry + degrade semantics
# ----------------------------------------------------------------------

class TestNativeRegistry:
    @requires_native
    def test_native_listed_when_built(self):
        assert "native" in available_backends()

    @requires_native
    def test_explicit_native_resolves(self):
        assert get_backend("native").name == "native"
        assert get_backend(" NATIVE ").name == "native"  # trimmed, cased

    @requires_native
    def test_env_var_selects_native(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "native")
        assert get_backend().name == "native"

    def test_native_absent_from_listing_when_missing(self, monkeypatch):
        _without_native(monkeypatch)
        assert "native" not in available_backends()

    def test_explicit_native_raises_with_build_remedy(self, monkeypatch):
        _without_native(monkeypatch)
        with pytest.raises(BackendUnavailableError, match="build_ext"):
            get_backend("native")

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    def test_env_native_degrades_to_numpy_with_warning(self, monkeypatch):
        _without_native(monkeypatch)
        monkeypatch.setenv(BACKEND_ENV_VAR, "native")
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            assert get_backend().name == "numpy"

    def test_env_native_degrades_to_python_without_numpy(self, monkeypatch):
        _without_native(monkeypatch)
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.setitem(sys.modules, "repro.kernels.numpy_backend", None)
        monkeypatch.setenv(BACKEND_ENV_VAR, "native")
        with pytest.warns(RuntimeWarning, match="falling back to the python"):
            assert get_backend() is PYTHON_BACKEND

    def test_checkpoint_backend_degrades_when_missing(self, monkeypatch):
        _without_native(monkeypatch)
        with pytest.warns(RuntimeWarning, match="restoring with the python"):
            assert backend_from_checkpoint("native") is PYTHON_BACKEND

    def test_estimator_explicit_native_raises_when_missing(self, monkeypatch):
        _without_native(monkeypatch)
        with pytest.raises(BackendUnavailableError):
            UnknownNQuantiles(plan=PLAN, seed=1, backend="native")

    def test_cli_explicit_native_exits_2_when_missing(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.__main__ import main

        _without_native(monkeypatch)
        path = tmp_path / "v.txt"
        path.write_text("1 2 3\n")
        code = main(["quantile", str(path), "--backend", "native", "--seed", "1"])
        assert code == 2
        assert "native" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Equivalence matrix: native × python × numpy (property-tested)
# ----------------------------------------------------------------------

sorted_buffer = st.lists(
    st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30
).map(sorted)
weighted_buffers = st.lists(
    st.tuples(sorted_buffer, st.integers(1, 16)), min_size=1, max_size=5
)


@pytest.fixture(
    scope="module",
    params=[
        pytest.param("native", marks=requires_native),
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed"),
        ),
    ]
)
def other(request):
    """The non-reference side of the equivalence matrix."""
    return get_backend(request.param)


@requires_native
class TestNativeBitIdentity:
    """Native vs python: *bit*-identical under a shared ``random.Random``."""

    @settings(max_examples=50, deadline=None)
    @given(
        n_blocks=st.integers(1, 20),
        rate=st.integers(1, 16),
        start=st.integers(0, 8),
        seed=st.integers(0, 2**20),
    )
    def test_block_representatives_bit_identical(self, n_blocks, rate, start, seed):
        native = get_backend("native")
        values = [float(i) for i in range(start + n_blocks * rate + 3)]
        py = PYTHON_BACKEND.block_representatives(
            values, start, n_blocks, rate, random.Random(seed)
        )
        nat = native.block_representatives(
            values, start, n_blocks, rate, random.Random(seed)
        )
        assert list(py) == list(nat)

    @settings(max_examples=50, deadline=None)
    @given(
        n_blocks=st.integers(1, 20),
        rate=st.integers(1, 16),
        seed=st.integers(0, 2**20),
    )
    def test_block_representatives_leave_rng_in_same_state(
        self, n_blocks, rate, seed
    ):
        # The MT19937 fast path advances the generator's C state directly;
        # it must land on *exactly* the cursor python draws leave behind.
        native = get_backend("native")
        values = [float(i) for i in range(n_blocks * rate)]
        py_rng, nat_rng = random.Random(seed), random.Random(seed)
        PYTHON_BACKEND.block_representatives(values, 0, n_blocks, rate, py_rng)
        native.block_representatives(values, 0, n_blocks, rate, nat_rng)
        assert py_rng.getstate() == nat_rng.getstate()
        assert py_rng.random() == nat_rng.random()

    @settings(max_examples=60, deadline=None)
    @given(inputs=weighted_buffers)
    def test_merge_weighted_cumweights_bit_identical(self, inputs):
        # Stronger than answer-equivalence: the native merge network
        # reproduces the reference tie law (value, weight, input order),
        # so even the exposed cumweights arrays match entry for entry.
        native = get_backend("native")
        py = PYTHON_BACKEND.merged_view(inputs)
        nat = native.merged_view(inputs)
        assert list(py.values) == list(nat.values)
        assert list(py.cumweights) == list(nat.cumweights)

    @settings(max_examples=60, deadline=None)
    @given(inputs=weighted_buffers, data=st.data())
    def test_select_many_bit_identical_to_per_position_selects(
        self, inputs, data
    ):
        # The vectorised rank walk answers exactly what one reference
        # select per position answers — in every order, so both the
        # ascending floor-reuse fast path and full restarts are covered.
        native = get_backend("native")
        nat = native.merged_view(inputs)
        py = PYTHON_BACKEND.merged_view(inputs)
        total = nat.total_weight
        if total == 0:
            assert nat.select_many([]) == []
            return
        positions = data.draw(
            st.lists(st.integers(1, total), min_size=1, max_size=30)
        )
        for probe in (sorted(positions), positions, sorted(positions)[::-1]):
            assert nat.select_many(probe) == [py.select(p) for p in probe]

    def test_select_many_rejects_position_past_total_weight(self):
        native = get_backend("native")
        view = native.merged_view([(array("d", [1.0, 2.0]), 3)])
        with pytest.raises(ValueError, match="exceeds total weight 6"):
            view.select_many([3, 7])

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(-1e300, 1e300, allow_nan=False), max_size=200))
    def test_sort_values_identical(self, values):
        # The radix sort must agree with timsort on every double,
        # including ±0.0 (orderable either way: they compare equal) and
        # huge magnitudes whose sign-flipped keys exercise every byte.
        native = get_backend("native")
        py = PYTHON_BACKEND.sort_values(list(values))
        nat = native.sort_values(list(values))
        assert list(py) == list(nat)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        chunks=st.lists(st.integers(1, 600), min_size=1, max_size=5),
    )
    def test_estimators_bit_identical_with_shared_rng(self, seed, chunks):
        data_rng = random.Random(seed ^ 0x5A5A)
        py_est = UnknownNQuantiles(plan=PLAN, rng=random.Random(seed))
        nat_est = UnknownNQuantiles(
            plan=PLAN, rng=random.Random(seed), backend="native"
        )
        phis = [0.1, 0.5, 0.9]
        for chunk in chunks:
            batch = [data_rng.uniform(-50, 50) for _ in range(chunk)]
            py_est.update_batch(batch)
            nat_est.update_batch(batch)
            assert py_est.query_many(phis) == nat_est.query_many(phis)
        assert py_est.n == nat_est.n


class TestMatrixEquivalence:
    """Every backend pair answers every query identically."""

    @settings(max_examples=60, deadline=None)
    @given(inputs=weighted_buffers, data=st.data())
    def test_select_collapse_identical(self, other, inputs, data):
        total = sum(len(d) * w for d, w in inputs)
        stride = sum(w for _, w in inputs)
        capacity = total // stride
        if capacity == 0:
            return
        offset = data.draw(st.integers(1, stride))
        py = PYTHON_BACKEND.select_collapse(inputs, capacity, offset)
        alt = other.select_collapse(inputs, capacity, offset)
        assert list(py) == list(alt)

    @settings(max_examples=60, deadline=None)
    @given(inputs=weighted_buffers)
    def test_merged_view_same_answers(self, other, inputs):
        py = PYTHON_BACKEND.merged_view(inputs)
        alt = other.merged_view(inputs)
        assert py.total_weight == alt.total_weight
        for position in range(1, py.total_weight + 1):
            assert py.select(position) == alt.select(position)
        for probe in set(py.values):
            assert py.cum_at(probe) == alt.cum_at(probe)

    @settings(max_examples=40, deadline=None)
    @given(a=weighted_buffers, b=weighted_buffers, data=st.data())
    def test_merge_views_same_answers(self, other, a, b, data):
        merged = other.merge_views(other.merged_view(a), other.merged_view(b))
        joint = PYTHON_BACKEND.merged_view(a + b)
        assert merged.total_weight == joint.total_weight
        position = data.draw(st.integers(1, joint.total_weight))
        assert merged.select(position) == joint.select(position)

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(-100, 100, allow_nan=False), max_size=60))
    def test_sort_values_identical(self, other, values):
        assert list(other.sort_values(list(values))) == sorted(values)

    def test_arena_slot_roundtrip(self, other):
        storage = other.alloc_values(8)
        other.write_slot(storage, 2, [3.0, 1.0, 2.0], sort=True)
        assert list(other.slot_view(storage, 2, 3)) == [1.0, 2.0, 3.0]
        other.write_slot(storage, 5, [9.0, -1.0], sort=False)
        assert list(other.slot_view(storage, 5, 2)) == [9.0, -1.0]

    def test_wrap_values_writes_through(self, other):
        raw = bytearray(5 * 8)
        storage = other.wrap_values(raw, 5)
        other.write_slot(storage, 1, [2.0, 1.0], sort=True)
        assert list(memoryview(raw).cast("d"))[1:3] == [1.0, 2.0]


# ----------------------------------------------------------------------
# The merge network: bit identity over wide and tie-heavy run sets
# ----------------------------------------------------------------------

#: Values shared across runs: duplicates and both signed zeros are
#: common, so the (value, weight, input position) tie law decides the
#: order of equal values, and with it the cumulative weights.
shared_value = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(
    -100, 100, allow_nan=False
)


@st.composite
def run_sets(draw, min_runs=1, max_runs=12):
    """Sorted runs with equal, distinct, or mixed (zero-including) weights."""
    count = draw(st.integers(min_runs, max_runs))
    law = draw(st.sampled_from(["equal", "distinct", "mixed"]))
    if law == "equal":
        weights = [draw(st.integers(1, 8))] * count
    elif law == "distinct":
        weights = draw(st.permutations(range(1, count + 1)))
    else:
        weights = draw(st.lists(st.integers(0, 6), min_size=count, max_size=count))
    runs = draw(
        st.lists(
            st.lists(shared_value, max_size=30).map(sorted),
            min_size=count,
            max_size=count,
        )
    )
    return list(zip(runs, weights))


def _many_runs(seed, count):
    """More runs than a 64-leaf tournament held, with shared values."""
    rng = random.Random(seed)
    pool = [-0.0, 0.0, 1.0, 2.0] + [rng.uniform(-5, 5) for _ in range(20)]
    return [
        (sorted(rng.choice(pool) for _ in range(rng.randint(0, 40))),
         rng.choice([0, 1, 1, 2, 3, 8]))
        for _ in range(count)
    ]


def _bits(values):
    """The exact float64 bit patterns, so -0.0 and 0.0 differ."""
    return array("d", values).tobytes()


def _assert_view_bit_identical(inputs):
    native = get_backend("native")
    py = PYTHON_BACKEND.merged_view(inputs)
    nat = native.merged_view(inputs)
    assert _bits(py.values) == _bits(nat.values)
    assert list(py.cumweights) == list(nat.cumweights)


def _assert_collapse_identical(inputs, offsets):
    native = get_backend("native")
    stride = sum(w for _, w in inputs)
    total = sum(len(d) * w for d, w in inputs)
    if stride == 0 or total < stride:
        return  # no Collapse output to select
    capacity = total // stride
    for offset in offsets(stride):
        py = PYTHON_BACKEND.select_collapse(inputs, capacity, offset)
        assert list(native.select_collapse(inputs, capacity, offset)) == list(py)


def _assert_merge_views_match_joint(a, b):
    native = get_backend("native")
    merged = native.merge_views(native.merged_view(a), native.merged_view(b))
    joint = PYTHON_BACKEND.merged_view(a + b)
    assert merged.total_weight == joint.total_weight
    assert list(merged.values) == list(joint.values)
    positions = range(1, joint.total_weight + 1)
    assert merged.select_many(positions) == joint.select_many(positions)
    for probe in set(joint.values):
        assert merged.cum_at(probe) == joint.cum_at(probe)


@requires_native
class TestMergeNetwork:
    """Native vs python over up to 12 runs, and past 64."""

    @settings(max_examples=60, deadline=None)
    @given(inputs=run_sets())
    def test_merged_view_bit_identical(self, inputs):
        _assert_view_bit_identical(inputs)

    @settings(max_examples=60, deadline=None)
    @given(inputs=run_sets(min_runs=2), data=st.data())
    def test_select_collapse_identical(self, inputs, data):
        _assert_collapse_identical(
            inputs, lambda stride: [1, stride, data.draw(st.integers(1, stride))]
        )

    @settings(max_examples=40, deadline=None)
    @given(a=run_sets(max_runs=6), b=run_sets(max_runs=6))
    def test_merge_views_equals_joint_merge(self, a, b):
        _assert_merge_views_match_joint(a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_more_than_64_runs(self, seed):
        inputs = _many_runs(seed, 65 + 17 * seed)
        _assert_view_bit_identical(inputs)
        _assert_collapse_identical(inputs, lambda stride: [1, stride // 2 + 1, stride])
        half = len(inputs) // 2
        _assert_merge_views_match_joint(inputs[:half], inputs[half:])

    def test_collapse_argument_checks_survive(self):
        native = get_backend("native")
        inputs = [(array("d", [1.0, 2.0]), 1), (array("d", [0.5, 3.0]), 2)]
        with pytest.raises(ValueError, match="outside stride"):
            native.select_collapse(inputs, 1, 4)
        with pytest.raises(AssertionError, match="cover weight"):
            native.select_collapse(inputs, 3, 1)


# ----------------------------------------------------------------------
# Cross-backend checkpoints, both directions
# ----------------------------------------------------------------------

@requires_native
class TestCrossBackendCheckpoints:
    def _streams(self, seed):
        rng = random.Random(seed)
        first = [rng.random() for _ in range(8_000)]
        rest = [rng.random() for _ in range(8_000)]
        return first, rest

    def test_native_state_dict_is_json_safe_and_tagged(self):
        est = UnknownNQuantiles(plan=PLAN, seed=2, backend="native")
        est.update_batch([float(i) for i in range(1_000)])
        state = est.to_state_dict()
        assert state["backend"] == "native"
        json.dumps(state)  # memoryview payloads must not leak out

    def test_native_restore_and_replay_bit_identical(self):
        first, rest = self._streams(13)
        live = UnknownNQuantiles(eps=0.05, delta=0.01, seed=21, backend="native")
        live.update_batch(first)
        state = json.loads(json.dumps(live.to_state_dict()))
        restored = UnknownNQuantiles.from_state_dict(state)
        assert restored.backend.name == "native"
        live.update_batch(rest)
        restored.update_batch(rest)
        phis = [0.1, 0.5, 0.9]
        assert live.query_many(phis) == restored.query_many(phis)

    def test_native_checkpoint_replays_on_python_host(self, monkeypatch):
        """native → python: degrade on a build-free host, same answers.

        The two backends share the RNG kind and draw law, so the
        restored-on-python replay must be bit-identical to the
        uninterrupted native run — not merely eps-close.
        """
        first, rest = self._streams(29)
        live = UnknownNQuantiles(eps=0.05, delta=0.01, seed=7, backend="native")
        live.update_batch(first)
        state = json.loads(json.dumps(live.to_state_dict()))

        _without_native(monkeypatch)
        with pytest.warns(RuntimeWarning, match="restoring with the python"):
            restored = UnknownNQuantiles.from_state_dict(state)
        assert restored.backend is PYTHON_BACKEND
        live.update_batch(rest)
        restored.update_batch(rest)
        phis = [0.1, 0.5, 0.9]
        assert live.query_many(phis) == restored.query_many(phis)
        assert live.n == restored.n

    def test_python_checkpoint_replays_on_native_host(self):
        """python → native: upgrade a reference checkpoint, same answers."""
        first, rest = self._streams(31)
        live = UnknownNQuantiles(eps=0.05, delta=0.01, seed=9)  # python
        live.update_batch(first)
        state = json.loads(json.dumps(live.to_state_dict()))
        assert state["backend"] == "python"
        state["backend"] = "native"  # the host opts in to compiled kernels
        restored = UnknownNQuantiles.from_state_dict(state)
        assert restored.backend.name == "native"
        live.update_batch(rest)
        restored.update_batch(rest)
        phis = [0.1, 0.5, 0.9]
        assert live.query_many(phis) == restored.query_many(phis)
        assert live.n == restored.n

    def test_persist_roundtrip_through_framed_bytes(self):
        from repro import persist

        est = UnknownNQuantiles(plan=PLAN, seed=8, backend="native")
        est.update_batch([float(i) for i in range(2_000)])
        clone = persist.loads(persist.dumps(est))
        assert clone.backend.name == "native"
        assert clone.query(0.5) == est.query(0.5)


# ----------------------------------------------------------------------
# Native end-to-end
# ----------------------------------------------------------------------

@requires_native
class TestNativeEndToEnd:
    def test_accuracy_on_uniform_stream(self):
        from repro.stats.rank import is_eps_approximate

        rng = random.Random(11)
        data = [rng.random() for _ in range(20_000)]
        est = UnknownNQuantiles(eps=0.05, delta=0.01, seed=11, backend="native")
        est.update_batch(data)
        ordered = sorted(data)
        for phi in (0.1, 0.5, 0.9, 0.99):
            assert is_eps_approximate(ordered, est.query(phi), phi, 0.05)

    def test_array_d_ingest_zero_copy_path(self):
        est = UnknownNQuantiles(plan=PLAN, seed=5, backend="native")
        est.update_batch(array("d", (i / 5000 for i in range(5_000))))
        assert est.n == 5_000
        assert 0.4 <= est.query(0.5) <= 0.6

    def test_native_estimator_does_not_import_numpy(self):
        # An ndarray input implies numpy is already loaded, so the native
        # path only looks the type up; building an estimator and feeding
        # it packed floats must leave numpy unimported.
        import os
        import subprocess

        code = (
            "import sys\n"
            "from array import array\n"
            "import repro\n"
            "est = repro.UnknownNQuantiles(eps=0.01, delta=1e-3, seed=1, "
            "backend='native')\n"
            "est.update_batch(array('d', range(10_000)))\n"
            "est.query_many([0.5])\n"
            "print('numpy' in sys.modules)\n"
        )
        package = os.path.dirname(os.path.dirname(kernels_pkg.__file__))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
        env.pop(BACKEND_ENV_VAR, None)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert done.stdout.strip() == "False"

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    def test_ndarray_ingest(self):
        est = UnknownNQuantiles(plan=PLAN, seed=5, backend="native")
        est.update_batch(np.linspace(0.0, 1.0, 5_000))
        assert est.n == 5_000
        assert 0.4 <= est.query(0.5) <= 0.6

    def test_nan_batch_rejected_atomically(self):
        est = UnknownNQuantiles(plan=PLAN, seed=5, backend="native")
        batch = array("d", [1.0, 2.0, float("nan"), 4.0])
        with pytest.raises(ValueError, match="NaN"):
            est.update_batch(batch)
        assert est.n == 0  # nothing ingested from the poisoned batch
        with pytest.raises(ValueError, match="NaN"):
            est.update_batch([1.0, float("nan")])  # boxed-list gate too
        assert est.n == 0

    def test_seed_reproducibility(self):
        rng = random.Random(7)
        data = [rng.random() for _ in range(30_000)]
        answers = []
        for _ in range(2):
            est = UnknownNQuantiles(eps=0.05, delta=0.01, seed=99, backend="native")
            est.update_batch(data)
            answers.append(est.query_many([0.25, 0.5, 0.75]))
        assert answers[0] == answers[1]

    def test_uncached_query_many_equals_cached(self):
        rng = random.Random(23)
        data = [rng.random() for _ in range(20_000)]
        phis = [i / 100 for i in range(1, 100)]
        cached = UnknownNQuantiles(eps=0.05, delta=0.01, seed=3, backend="native")
        uncached = UnknownNQuantiles(eps=0.05, delta=0.01, seed=3, backend="native")
        uncached.engine._cache_enabled = False
        cached.update_batch(data)
        uncached.update_batch(data)
        assert cached.query_many(phis) == uncached.query_many(phis)

    def test_known_n_native_backend(self):
        from repro.core.known_n import KnownNQuantiles

        rng = random.Random(3)
        data = [rng.random() for _ in range(30_000)]
        py = KnownNQuantiles(n=len(data), eps=0.02, delta=0.01, seed=6)
        nat = KnownNQuantiles(
            n=len(data), eps=0.02, delta=0.01, seed=6, backend="native"
        )
        py.extend(data)
        nat.extend(data)
        assert py.query_many([0.1, 0.5, 0.9]) == nat.query_many([0.1, 0.5, 0.9])

    def test_extreme_estimator_native_backend(self):
        from repro.core.extreme import ExtremeValueEstimator

        # NB: the data seed must differ from the estimator seed — the
        # native backend samples with random.Random, so identical seeds
        # would make the inclusion draws the data values themselves.
        rng = random.Random(103)
        data = [rng.random() for _ in range(50_000)]
        est = ExtremeValueEstimator(
            phi=0.99, eps=0.004, delta=0.01, n=len(data), backend="native", seed=3
        )
        est.extend(data)
        rank = sorted(data).index(est.query()) + 1
        assert abs(rank - 0.99 * len(data)) <= 0.01 * len(data)

    def test_parallel_native_backend(self):
        from repro.core.parallel import ParallelQuantiles

        par = ParallelQuantiles(
            num_workers=4, eps=0.05, delta=0.01, seed=17, backend="native"
        )
        rng = random.Random(17)
        for worker in range(4):
            par.extend(worker, [rng.random() for _ in range(5_000)])
        assert 0.4 <= par.query(0.5) <= 0.6


# ----------------------------------------------------------------------
# The polling loop: query after every batch, checked against exact ranks
# ----------------------------------------------------------------------

#: k = 74, b = 3, h = 4: small enough that a few thousand values pass
#: sampling onset (rate 1 -> 2 -> 4 ...).
POLL_EPS, POLL_DELTA = 0.1, 0.01
POLL_PHIS = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
#: Batch sizes around k = 74 and the block sizes, so windows straddle
#: buffer and block boundaries in every phase of a buffer.
POLL_BATCHES = [1, 5, 73, 74, 75, 150, 37, 300, 2, 511, 3, 148]

polled_backends = pytest.mark.parametrize(
    "backend", ["python", pytest.param("native", marks=requires_native)]
)


def _poll_stream(seed, total):
    rng = random.Random(seed)
    values = [rng.uniform(-1e3, 1e3) for _ in range(total)]
    batches, index = [], 0
    while index < total:
        size = POLL_BATCHES[len(batches) % len(POLL_BATCHES)]
        batches.append(values[index : index + size])
        index += size
    return batches


def _poll(est, batches, seen, *, every=True):
    """Feed each batch and query after it; check answers' exact ranks.

    Every poll is checked when ``every``; otherwise only the last one
    (the known-N estimator's guarantee holds at its declared length).
    """
    from repro.stats.rank import is_eps_approximate

    answers = []
    for index, batch in enumerate(batches):
        est.update_batch(array("d", batch))
        seen.extend(batch)
        answer = est.query_many(POLL_PHIS)
        answers.append(answer)
        if not every and index < len(batches) - 1:
            continue
        ordered = sorted(seen)
        for phi, value in zip(POLL_PHIS, answer):
            assert is_eps_approximate(ordered, value, phi, POLL_EPS), (
                f"n={len(seen)} phi={phi}: {value} is not within eps*n"
            )
    return answers


def _untagged(state):
    """A state dict through JSON, without its backend tags."""
    state = json.loads(json.dumps(state))
    state.pop("backend")
    state["engine"].pop("backend")
    return state


class TestPollingLoop:
    @polled_backends
    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_poll_within_eps_past_sampling_onset(self, backend, seed):
        est = UnknownNQuantiles(
            eps=POLL_EPS, delta=POLL_DELTA, seed=seed, backend=backend
        )
        _poll(est, _poll_stream(seed + 100, 6_000), [])
        assert est.sampling_rate >= 4

    @polled_backends
    def test_known_n_polls_end_within_eps(self, backend):
        from repro.core.known_n import KnownNQuantiles

        batches = _poll_stream(7, 6_000)
        est = KnownNQuantiles(
            eps=POLL_EPS, delta=POLL_DELTA, n=6_000, seed=7, backend=backend
        )
        _poll(est, batches, [], every=False)
        assert est.plan.rate > 1

    @requires_native
    def test_python_and_native_polls_bit_identical(self):
        batches = _poll_stream(5, 4_000)
        runs = [
            _poll(UnknownNQuantiles(eps=POLL_EPS, delta=POLL_DELTA, seed=5,
                                    backend=name), batches, [])
            for name in ("python", "native")
        ]
        assert runs[0] == runs[1]

    @requires_native
    @pytest.mark.parametrize("kind", ["unknown_n", "known_n"])
    def test_mid_buffer_checkpoint_replays_bit_identically(self, kind):
        """Checkpoint with staged values and an open block, restore on
        either backend, replay: every poll equals the uninterrupted run."""
        from repro.core.known_n import KnownNQuantiles

        def make(backend):
            if kind == "known_n":
                return KnownNQuantiles(eps=POLL_EPS, delta=POLL_DELTA, n=6_000,
                                       seed=3, backend=backend)
            return UnknownNQuantiles(eps=POLL_EPS, delta=POLL_DELTA, seed=3,
                                     backend=backend)

        every = kind == "unknown_n"
        batches = _poll_stream(11, 6_000)
        cut = 14
        lives = {name: make(name) for name in ("python", "native")}
        for est in lives.values():
            _poll(est, batches[:cut], [], every=every)
        seen = [v for batch in batches[:cut] for v in batch]
        state = _untagged(lives["native"].to_state_dict())
        assert state["staged"] and state["sampler"]["seen_in_block"]
        assert state == _untagged(lives["python"].to_state_dict())
        restored = {}
        for name in ("python", "native"):
            restored[name] = type(lives[name]).from_state_dict(
                {**state, "backend": name}
            )
            assert restored[name].backend.name == name
        replays = [
            _poll(est, batches[cut:], list(seen), every=every)
            for est in (*lives.values(), *restored.values())
        ]
        assert all(replay == replays[0] for replay in replays)
        final = [_untagged(est.to_state_dict()) for est in restored.values()]
        assert final[0] == final[1]
