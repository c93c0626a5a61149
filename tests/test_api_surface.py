"""Consumer-of-record tests for the exported API surface.

The api-reachability pass (RPL451) flags any ``__all__`` entry no other
scanned file references.  Most exports have natural in-repo consumers;
the names pinned here are the ones whose callers live *outside* the
tree — downstream users of the library, operational tooling, the C
build.  Importing them here is not ceremony: these are static
references the :class:`~repro.analysis.project.ProjectGraph` counts, so
dropping a name from the public API breaks this file first and forces a
deliberate decision instead of silent drift.

Each test also asserts the behavioural contract the export promises, so
this file fails on semantic regressions, not only on renames.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import ShardShipment
from repro.analysis import (
    SEVERITIES,
    CallableInfo,
    Config,
    iter_source_files,
    main,
    registered_passes,
    to_sarif,
)
from repro.analysis.sarif import SARIF_SCHEMA_URI, SARIF_VERSION
from repro.analysis.boxing import BufferArenaPass
from repro.analysis.determinism import DeterminismPass
from repro.analysis.engine import Report, resolve_dotted
from repro.analysis.floats import FloatDisciplinePass
from repro.analysis.hygiene import ApiHygienePass
from repro.analysis.lifecycle import ResourceLifecyclePass
from repro.analysis.native_c import NativeCPass
from repro.analysis.reachability import ApiReachabilityPass
from repro.analysis.rngflow import RngFlowPass
from repro.analysis.service import ServiceHygienePass
from repro.analysis.spawnsafe import SpawnSafetyPass
from repro.audit import CheckpointResult
from repro.core.tree import TraceNode
from repro.db import WindowReport
from repro.kernels.python_backend import PythonBackend
from repro.runtime import WorkerReport
from repro.runtime.pool import WorkerSpec
from repro.service import ERROR_CODES, OPS, IngestApplyError, ShuttingDown
from repro.service.metrics import Counter, Gauge, Histogram
from repro.service.runner import build_config, serve_forever
from repro.streams import exponential_stream, normal_stream

try:
    from repro.kernels.native_backend import NativeBackend, NativeMergedView
except ImportError:  # pragma: no cover - compiled extension not built
    NativeBackend = NativeMergedView = None  # type: ignore[assignment,misc]

#: The pass registry's name -> implementation contract, pinned so a
#: renamed or dropped pass is an API break, not a quiet registry change.
EXPECTED_PASSES = {
    "buffer-arena": BufferArenaPass,
    "determinism": DeterminismPass,
    "float-discipline": FloatDisciplinePass,
    "api-hygiene": ApiHygienePass,
    "api-reachability": ApiReachabilityPass,
    "native-c": NativeCPass,
    "resource-lifecycle": ResourceLifecyclePass,
    "rng-flow": RngFlowPass,
    "service-hygiene": ServiceHygienePass,
    "spawn-safety": SpawnSafetyPass,
}


class TestAnalysisSurface:
    def test_severity_ladder(self) -> None:
        assert SEVERITIES == ("error", "warning", "note")

    def test_sarif_constants_agree_with_empty_report(self) -> None:
        assert SARIF_VERSION == "2.1.0"
        assert SARIF_VERSION in SARIF_SCHEMA_URI
        report = Report(findings=(), files_checked=0, suppressed=0, passes=())
        doc = to_sarif(report, registered_passes())
        assert doc["version"] == SARIF_VERSION
        assert doc["$schema"] == SARIF_SCHEMA_URI

    def test_config_is_plain_data(self) -> None:
        assert dataclasses.is_dataclass(Config)

    def test_callable_info_is_plain_data(self) -> None:
        assert dataclasses.is_dataclass(CallableInfo)

    def test_iter_source_files_walks_a_tree(self, tmp_path) -> None:
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.txt").write_text("not python\n")
        found = list(iter_source_files([tmp_path]))
        assert [p.name for p in found] == ["a.py"]

    def test_main_is_the_cli(self, capsys) -> None:
        assert main(["--list-passes"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_PASSES:
            assert name in out

    def test_resolve_dotted_chases_aliases(self) -> None:
        import ast

        node = ast.parse("rng.random", mode="eval").body
        dotted = resolve_dotted(node, {"rng": "numpy.random"})
        assert dotted == "numpy.random.random"

    def test_registry_matches_pinned_classes(self) -> None:
        registry = registered_passes()
        assert set(registry) == set(EXPECTED_PASSES)
        seen_codes: set[str] = set()
        for name, cls in EXPECTED_PASSES.items():
            instance = registry[name]
            assert type(instance) is cls
            assert instance.codes, f"{name} declares no codes"
            for code in instance.codes:
                assert code.startswith("RPL"), code
                assert code not in seen_codes, f"duplicate code {code}"
                seen_codes.add(code)


class TestKernelBackendSurface:
    def test_python_backend_constructs(self) -> None:
        backend = PythonBackend()
        assert backend.name == "python"

    def test_native_backend_constructs(self) -> None:
        if NativeBackend is None:
            pytest.skip("native extension not built")
        backend = NativeBackend()
        assert backend.name == "native"
        assert NativeMergedView is not None

    def test_backends_are_distinct_types(self) -> None:
        kinds = {PythonBackend, NativeBackend}
        assert len([k for k in kinds if k is not None]) >= 1


class TestRuntimeSurface:
    def test_work_specs_are_plain_data(self) -> None:
        assert dataclasses.is_dataclass(WorkerSpec)

    def test_shard_shipment_is_plain_data(self) -> None:
        assert dataclasses.is_dataclass(ShardShipment)

    def test_worker_report_starts_clean(self) -> None:
        # The element type of PoolResult.workers: a fresh report is a
        # live worker that has shipped nothing yet.
        report = WorkerReport(3)
        assert report.worker_id == 3
        assert (report.n, report.shipped_bytes) == (0, 0)
        assert not report.lost
        assert report.exitcode is None and report.error is None


class TestServiceSurface:
    def test_protocol_vocabulary(self) -> None:
        assert "ingest" in OPS
        assert "bad_request" in ERROR_CODES

    def test_exceptions_are_exceptions(self) -> None:
        assert issubclass(ShuttingDown, Exception)
        assert issubclass(IngestApplyError, Exception)

    def test_counter_only_increases(self) -> None:
        counter = Counter()
        counter.increment()
        counter.increment(2)
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.increment(-1)

    def test_gauge_sets(self) -> None:
        gauge = Gauge()
        gauge.set(2.5)
        assert gauge.value == 2.5

    def test_histogram_counts_lifetime(self) -> None:
        histogram = Histogram(window=4)
        for value in range(10):
            histogram.record(float(value))
        assert histogram.count == 10

    def test_runner_entrypoints_exist(self) -> None:
        assert callable(build_config)
        import inspect

        assert inspect.iscoroutinefunction(serve_forever)


class TestDataModelSurface:
    def test_checkpoint_result_is_frozen(self) -> None:
        result = CheckpointResult(
            n=10, worst_error=0.0, mean_error=0.0, failed_phis=()
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.n = 11  # type: ignore[misc]

    def test_trace_node_records_lineage(self) -> None:
        node = TraceNode(node_id=0, kind="leaf", weight=1, level=0)
        assert node.children == []
        assert node.parent is None

    def test_window_report_shape(self) -> None:
        report = WindowReport(index=0, start=0, end=8, quantiles={0.5: 1.0})
        assert report.end - report.start == 8
        assert report.quantiles[0.5] == pytest.approx(1.0)


class TestStreamSurface:
    def test_streams_are_seed_deterministic(self) -> None:
        first = list(normal_stream(5, seed=7))
        again = list(normal_stream(5, seed=7))
        assert first == again
        exp = list(exponential_stream(5, seed=7, rate=2.0))
        assert exp == list(exponential_stream(5, seed=7, rate=2.0))
        assert all(value >= 0.0 for value in exp)
