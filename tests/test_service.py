"""The resilient serving tier: protocol, admission, chaos, crash safety.

No pytest-asyncio in the environment, so every event-loop test drives
its own ``asyncio.run`` from a synchronous test function; the process
tests drive the real ``python -m repro.service`` entry point through its
``READY <host> <port>`` handshake.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import select
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import (
    CHAOS_EXIT_CODE,
    AdmissionController,
    ChaosCrash,
    ChaosPlan,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    MetricRegistry,
    Overloaded,
    ProtocolError,
    QuantileService,
    ServiceConfig,
    TenantRegistry,
)
from repro.service.protocol import (
    MAX_LINE_BYTES,
    encode_http_response,
    error_response,
    http_request_to_request,
    is_http_preamble,
    ok_response,
    parse_line,
)

# ----------------------------------------------------------------------
# Wire protocol units
# ----------------------------------------------------------------------


class TestParseLine:
    def test_full_request(self):
        request = parse_line(
            b'{"op": "ingest", "tenant": "t", "id": 7, "deadline_ms": 250,'
            b' "values": [1, 2]}'
        )
        assert request.op == "ingest"
        assert request.tenant == "t"
        assert request.request_id == 7
        assert request.deadline_ms == 250.0
        assert request.args == {"values": [1, 2]}

    def test_not_json_is_bad_request(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_line(b"{nope")
        assert excinfo.value.code == "bad_request"

    def test_non_object_is_bad_request(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_line(b"[1, 2]")

    def test_unknown_op_is_bad_request(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_line(b'{"op": "quantize"}')

    @pytest.mark.parametrize("bad", ["-5", "0", "true", '"fast"'])
    def test_bad_deadline_rejected(self, bad):
        with pytest.raises(ProtocolError, match="deadline_ms"):
            parse_line(f'{{"op": "health", "deadline_ms": {bad}}}'.encode())

    def test_oversized_line_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            parse_line(b"x" * (MAX_LINE_BYTES + 1))


class TestEnvelopes:
    def test_ok_echoes_id(self):
        assert ok_response(3, n=1) == {"ok": True, "id": 3, "n": 1}
        assert ok_response(None, n=1) == {"ok": True, "n": 1}

    def test_error_carries_code_and_extras(self):
        response = error_response(9, "overloaded", "full", retry_after_ms=50.0)
        assert response["ok"] is False
        assert response["id"] == 9
        assert response["error"]["code"] == "overloaded"
        assert response["error"]["retry_after_ms"] == 50.0

    def test_unknown_code_refused(self):
        with pytest.raises(ValueError, match="unknown protocol error code"):
            error_response(None, "teapot", "no")


class TestHttpShim:
    def test_preamble_detection(self):
        assert is_http_preamble(b"GET /health HTTP/1.1\r\n")
        assert is_http_preamble(b"POST /ingest HTTP/1.1\r\n")
        assert not is_http_preamble(b'{"op": "health"}\n')

    def test_query_route(self):
        request = http_request_to_request(
            "GET", "/query?tenant=t&phi=0.5&phi=0.99&deadline_ms=100", b""
        )
        assert request.op == "query_many"
        assert request.tenant == "t"
        assert request.deadline_ms == 100.0
        assert request.args == {"phis": [0.5, 0.99]}

    def test_ingest_route_parses_body(self):
        request = http_request_to_request(
            "POST", "/ingest?tenant=t", b'{"values": [1.5, 2.5]}'
        )
        assert request.op == "ingest"
        assert request.args == {"values": [1.5, 2.5]}

    def test_unknown_route_is_bad_request(self):
        with pytest.raises(ProtocolError, match="no route"):
            http_request_to_request("GET", "/quantiles", b"")

    def test_non_numeric_phi_is_bad_request_not_a_crash(self):
        with pytest.raises(ProtocolError, match="phi='abc'") as excinfo:
            http_request_to_request("GET", "/query?tenant=t&phi=abc", b"")
        assert excinfo.value.code == "bad_request"

    def test_retry_after_header_on_429(self):
        raw = encode_http_response(429, b"{}")
        assert b"Retry-After: 1\r\n" in raw
        assert b"429 Too Many Requests" in raw


# ----------------------------------------------------------------------
# Deadlines and admission control
# ----------------------------------------------------------------------


class TestDeadline:
    def test_default_budget_applies_without_deadline_ms(self):
        clock = _FakeClock()
        deadline = Deadline.from_ms(None, 5.0, clock=clock)
        assert deadline.remaining() == pytest.approx(5.0)

    def test_own_budget_wins(self):
        clock = _FakeClock()
        deadline = Deadline.from_ms(250.0, 5.0, clock=clock)
        assert deadline.remaining() == pytest.approx(0.25)

    def test_expiry_and_check(self):
        clock = _FakeClock()
        deadline = Deadline(0.1, clock=clock)
        deadline.check("warming up")  # fine: budget remains
        clock.advance(0.2)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded, match="while querying"):
            deadline.check("querying")

    def test_unbounded(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        assert not deadline.expired


class _FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class TestAdmissionController:
    def test_inflight_cap_sheds_explicitly(self):
        admission = AdmissionController(2, retry_after_ms=75.0)
        admission.admit()
        admission.admit()
        with pytest.raises(Overloaded) as excinfo:
            admission.admit()
        assert excinfo.value.retry_after_ms == 75.0
        assert admission.shed_total == 1
        admission.release()
        admission.admit()  # slot freed: admitted again

    def test_unbalanced_release_is_a_bug(self):
        with pytest.raises(RuntimeError, match="without a matching admit"):
            AdmissionController(1).release()

    def test_full_queue_sheds_never_blocks(self):
        async def flow():
            admission = AdmissionController(4)
            queue: asyncio.Queue[int] = asyncio.Queue(maxsize=1)
            deadline = Deadline(None)
            admission.enqueue(queue, 1, tenant="t", deadline=deadline)
            with pytest.raises(Overloaded, match="queue is full"):
                admission.enqueue(queue, 2, tenant="t", deadline=deadline)
            assert admission.shed_total == 1

        asyncio.run(flow())

    def test_expired_deadline_refused_before_queueing(self):
        async def flow():
            admission = AdmissionController(4)
            queue: asyncio.Queue[int] = asyncio.Queue(maxsize=1)
            clock = _FakeClock()
            deadline = Deadline(0.05, clock=clock)
            clock.advance(1.0)
            with pytest.raises(DeadlineExceeded):
                admission.enqueue(queue, 1, tenant="t", deadline=deadline)
            assert queue.empty()

        asyncio.run(flow())

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_inflight"):
            AdmissionController(0)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=3, probe_after=2)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # the streak resets
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 1

    def test_counted_rejections_admit_a_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_after=2)
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow_ingest()  # rejection 1
        assert not breaker.allow_ingest()  # rejection 2 -> half-open
        assert breaker.state == "half_open"
        assert breaker.allow_ingest()  # the probe goes through

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_after=1)
        breaker.record_failure()
        breaker.allow_ingest()
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"

    def test_probe_failure_reopens_and_counts_a_trip(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_after=1)
        breaker.record_failure()
        breaker.allow_ingest()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(probe_after=0)


# ----------------------------------------------------------------------
# Chaos plans
# ----------------------------------------------------------------------


class TestChaosPlan:
    def test_from_dict_and_file(self, tmp_path):
        raw = {
            "latency_at": {"3": 0.05},
            "reset_at": [5],
            "crash_at": [7],
            "apply_crash_at": [1],
            "die_at": 9,
        }
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps(raw))
        for plan in (ChaosPlan.from_dict(raw), ChaosPlan.from_file(path)):
            assert plan.latency_at == {3: 0.05}
            assert plan.reset_at == frozenset({5})
            assert plan.die_at == 9

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos plan keys"):
            ChaosPlan.from_dict({"jitter": 1})

    def test_faults_fire_once(self):
        plan = ChaosPlan(latency_at={0: 0.5}, crash_at={1}, apply_crash_at={0})
        assert plan.take_latency(0) == 0.5
        assert plan.take_latency(0) == 0.0  # one-shot
        with pytest.raises(ChaosCrash, match="seq 1"):
            plan.maybe_crash(1, "handler")
        plan.maybe_crash(1, "handler")  # already fired: no raise
        with pytest.raises(ChaosCrash, match="tenant 't'"):
            plan.maybe_apply_crash(0, "t")
        plan.maybe_apply_crash(0, "t")

    def test_sequences_are_deterministic(self):
        plan = ChaosPlan()
        assert [plan.next_request_seq() for _ in range(3)] == [0, 1, 2]
        assert [plan.next_apply_seq() for _ in range(3)] == [0, 1, 2]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counters_gauges_histograms(self):
        metrics = MetricRegistry()
        metrics.counter("requests_total", op="ingest").increment(3)
        metrics.gauge("breaker_open", tenant="t").set(1.0)
        for value in (0.1, 0.2, 0.3):
            metrics.histogram("request_seconds").record(value)
        data = metrics.to_dict()
        assert data["counters"]['requests_total{op="ingest"}'] == 3
        assert data["gauges"]['breaker_open{tenant="t"}'] == 1.0
        assert data["histograms"]["request_seconds"]["count"] == 3.0
        text = metrics.render_text()
        assert 'requests_total{op="ingest"} 3' in text
        assert 'request_seconds{stat="p50"}' in text

    def test_counters_only_increase(self):
        with pytest.raises(ValueError, match="only increase"):
            MetricRegistry().counter("x").increment(-1)

    def test_histogram_window_is_bounded(self):
        histogram = MetricRegistry().histogram("h", window=4)
        for value in range(100):
            histogram.record(float(value))
        assert histogram.count == 100  # lifetime count survives the ring
        assert histogram.percentile(0.0) == 96.0  # only the window remains


# ----------------------------------------------------------------------
# Tenant registry
# ----------------------------------------------------------------------


class TestTenantRegistry:
    def test_seed_derivation_stable_and_distinct(self):
        registry = TenantRegistry(None, master_seed=42)
        assert registry.tenant_seed("a") == registry.tenant_seed("a")
        assert registry.tenant_seed("a") != registry.tenant_seed("b")
        other = TenantRegistry(None, master_seed=43)
        assert registry.tenant_seed("a") != other.tenant_seed("a")

    @pytest.mark.parametrize("bad", ["", ".hidden", "a/b", "x" * 65, "sp ace"])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid tenant name"):
            TenantRegistry(None).validate_name(bad)

    def test_replan_on_existing_tenant_refused(self):
        registry = TenantRegistry(None, eps=0.01, delta=1e-4)
        registry.get_or_create("t")
        with pytest.raises(ValueError, match="already planned"):
            registry.get_or_create("t", eps=0.05)

    @pytest.mark.smoke
    def test_flush_and_restore_bit_identical(self, tmp_path):
        registry = TenantRegistry(tmp_path, master_seed=3)
        state = registry.get_or_create("t")
        state.estimator.extend([float(i) for i in range(500)])
        registry.flush(state)
        before = state.estimator.to_state_dict()

        rebooted = TenantRegistry(tmp_path, master_seed=3)
        report = rebooted.restore_all()
        assert report.restored == ["t"]
        assert report.fallbacks == {}
        restored = rebooted.get("t")
        assert restored is not None
        assert restored.estimator.to_state_dict() == before
        assert restored.last_good_snapshot is not None

    @pytest.mark.smoke
    def test_torn_latest_falls_back_a_generation(self, tmp_path):
        registry = TenantRegistry(tmp_path, master_seed=3)
        state = registry.get_or_create("t")
        state.estimator.extend([1.0, 2.0])
        registry.flush(state)
        state.estimator.extend([3.0, 4.0])
        registry.flush(state)
        live = Path(registry.checkpoint_path("t"))
        live.write_bytes(live.read_bytes()[:10])  # tear generation 0

        rebooted = TenantRegistry(tmp_path, master_seed=3)
        report = rebooted.restore_all()
        assert report.restored == ["t"]
        assert report.fallbacks == {"t": 1}
        restored = rebooted.get("t")
        assert restored is not None and restored.n == 2

    def test_every_generation_torn_is_unrecoverable_not_wrong(self, tmp_path):
        registry = TenantRegistry(tmp_path, master_seed=3)
        state = registry.get_or_create("t")
        state.estimator.extend([1.0, 2.0])
        registry.flush(state)
        live = Path(registry.checkpoint_path("t"))
        live.write_bytes(live.read_bytes()[:10])

        rebooted = TenantRegistry(tmp_path, master_seed=3)
        report = rebooted.restore_all()
        assert report.restored == []
        assert report.unrecoverable == ["t"]
        assert rebooted.get("t") is None  # fresh on next use, never garbage


# ----------------------------------------------------------------------
# In-process server end-to-end (asyncio.run drives the loop)
# ----------------------------------------------------------------------


async def _call(host, port, *requests, timeout=15.0):
    """Pipeline line-protocol requests over one connection."""
    reader, writer = await asyncio.open_connection(host, port)
    responses = []
    try:
        for request in requests:
            writer.write(json.dumps(request).encode("utf-8") + b"\n")
            await asyncio.wait_for(writer.drain(), timeout)
            line = await asyncio.wait_for(reader.readline(), timeout)
            if not line:
                responses.append(None)  # connection reset under us
                break
            responses.append(json.loads(line))
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
    return responses


async def _http(host, port, raw, timeout=15.0):
    """One shim HTTP exchange; returns (status, headers, body bytes)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(raw)
        await asyncio.wait_for(writer.drain(), timeout)
        data = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, head.decode("latin-1"), body


def _serve(flow, *, config=None, chaos=None):
    """Run one service and one client coroutine on a private loop."""

    async def main():
        service = QuantileService(config or ServiceConfig(), chaos=chaos)
        host, port = await service.start()
        try:
            return await flow(service, host, port)
        finally:
            if not service._shutdown_started:
                await service.shutdown(flush=False)

    return asyncio.run(main())


class TestServerEndToEnd:
    def test_ingest_query_inverse_snapshot(self):
        async def flow(service, host, port):
            responses = await _call(
                host,
                port,
                {"op": "ingest", "tenant": "t", "id": 1,
                 "values": [5.0, 1.0, 3.0, 2.0, 4.0]},
                {"op": "query_many", "tenant": "t", "id": 2,
                 "phis": [0.5]},
                {"op": "inverse_quantile", "tenant": "t", "id": 3,
                 "value": 3.0},
                {"op": "snapshot", "tenant": "t", "id": 4},
            )
            ingest, query, inverse, snapshot = responses
            assert ingest == {
                "ok": True, "id": 1, "tenant": "t", "accepted": 5, "n": 5,
                "pending_batches": 0, "breaker": "closed",
            }
            assert query["quantiles"] == [3.0]
            assert query["degraded"] is False
            assert inverse["rank"] == 3
            assert inverse["phi"] == pytest.approx(3 / 5)
            assert snapshot["n"] == 5
            assert snapshot["breaker"] == "closed"

        _serve(flow)

    def test_explicit_errors_for_every_bad_request(self):
        async def flow(service, host, port):
            responses = await _call(
                host,
                port,
                {"op": "query_many", "tenant": "ghost", "phis": [0.5]},
                {"op": "ingest", "tenant": "t", "values": []},
                {"op": "ingest", "tenant": "bad/name", "values": [1.0]},
                {"op": "ingest", "tenant": "t", "values": [1.0]},
                {"op": "ingest", "tenant": "t", "values": [2.0],
                 "eps": 0.05},  # re-plan attempt -> ValueError -> bad_request
                {"op": "query_many", "tenant": "t", "phis": "0.5"},
            )
            codes = [r["error"]["code"] for r in responses if not r["ok"]]
            assert codes == [
                "unknown_tenant",
                "bad_request",
                "bad_request",
                "bad_request",
                "bad_request",
            ]
            assert responses[3]["ok"] is True

        _serve(flow)

    def test_malformed_line_answered_not_dropped(self):
        async def flow(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 15.0)
            response = json.loads(line)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

        _serve(flow)

    def test_inflight_cap_sheds_with_retry_hint(self):
        config = ServiceConfig(max_inflight=2)

        async def flow(service, host, port):
            for _ in range(config.max_inflight):
                service._admission.admit()
            (shed,) = await _call(host, port, {"op": "health", "id": 1})
            assert shed["error"]["code"] == "overloaded"
            assert shed["error"]["retry_after_ms"] == 1000.0
            for _ in range(config.max_inflight):
                service._admission.release()
            (health,) = await _call(host, port, {"op": "health"})
            assert health["ok"] is True
            assert health["shed_total"] == 1

        _serve(flow, config=config)

    def test_deadline_propagates_into_query_work(self):
        # Request seq 1 (the query) is held 80 ms against a 10 ms budget:
        # the handler must refuse with deadline_exceeded, not answer late.
        chaos = ChaosPlan(latency_at={1: 0.08})

        async def flow(service, host, port):
            ingest, query = await _call(
                host,
                port,
                {"op": "ingest", "tenant": "t", "values": [1.0, 2.0, 3.0]},
                {"op": "query_many", "tenant": "t", "phis": [0.5],
                 "deadline_ms": 10},
            )
            assert ingest["ok"] is True
            assert query["error"]["code"] == "deadline_exceeded"

        _serve(flow, chaos=chaos)

    def test_chaos_reset_aborts_connection_but_server_survives(self):
        chaos = ChaosPlan(reset_at={0})

        async def flow(service, host, port):
            responses = await _call(host, port, {"op": "health"})
            assert responses == [None]  # aborted: EOF/reset, no bytes
            # The server is still alive for the next connection.
            (health,) = await _call(host, port, {"op": "health"})
            assert health["ok"] is True
            assert service.metrics.counter("chaos_resets_total").value == 1

        _serve(flow, chaos=chaos)

    def test_chaos_handler_crash_maps_to_internal(self):
        chaos = ChaosPlan(crash_at={0})

        async def flow(service, host, port):
            crashed, health = await _call(
                host, port, {"op": "health", "id": 5}, {"op": "health"}
            )
            assert crashed["id"] == 5
            assert crashed["error"]["code"] == "internal"
            assert crashed["error"]["injected"] is True
            assert health["ok"] is True  # mapped, not fatal

        _serve(flow, chaos=chaos)

    def test_large_legal_ingest_line_is_accepted(self):
        # A max_batch-sized ingest is one JSON line far beyond asyncio's
        # 64 KiB default stream limit; the server must read and apply
        # it, not die with an unhandled LimitOverrunError.
        values = [float(i % 1_000) for i in range(20_000)]

        async def flow(service, host, port):
            line = json.dumps(
                {"op": "ingest", "tenant": "t", "values": values}
            ).encode()
            assert len(line) > 64 * 1024  # bigger than the asyncio default
            ingest, query = await _call(
                host,
                port,
                {"op": "ingest", "tenant": "t", "values": values},
                {"op": "query_many", "tenant": "t", "phis": [0.5]},
            )
            assert ingest["ok"] is True
            assert ingest["accepted"] == len(values)
            assert query["ok"] is True

        _serve(flow)

    def test_oversized_line_answered_with_bad_request_then_closed(self):
        async def flow(service, host, port):
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_LINE_BYTES
            )
            try:
                writer.write(b"x" * (MAX_LINE_BYTES + 2048) + b"\n")
                with contextlib.suppress(ConnectionError):
                    await asyncio.wait_for(writer.drain(), 15.0)
                line = await asyncio.wait_for(reader.readline(), 15.0)
                response = json.loads(line)
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request"
                assert "exceeds" in response["error"]["message"]
                # Framing is lost after an overrun: the connection closes.
                tail = await asyncio.wait_for(reader.read(), 15.0)
                assert tail == b""
            finally:
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
            # The server survives for the next client.
            (health,) = await _call(host, port, {"op": "health"})
            assert health["ok"] is True

        _serve(flow)

    def test_drain_refuses_new_work_but_answers_probes(self):
        async def flow(service, host, port):
            service._draining = True
            refused, health = await _call(
                host,
                port,
                {"op": "ingest", "tenant": "t", "values": [1.0]},
                {"op": "health"},
            )
            assert refused["error"]["code"] == "shutting_down"
            assert health["ok"] is True
            assert health["status"] == "draining"
            service._draining = False

        _serve(flow)


class TestQueryCache:
    """The memoised query_many path: hits, misses, and invalidation."""

    def test_repeat_phis_hit_the_cache(self):
        async def flow(service, host, port):
            responses = await _call(
                host,
                port,
                {"op": "ingest", "tenant": "t", "id": 1,
                 "values": [float(v) for v in range(100)]},
                {"op": "query_many", "tenant": "t", "id": 2,
                 "phis": [0.25, 0.5, 0.75]},
                {"op": "query_many", "tenant": "t", "id": 3,
                 "phis": [0.25, 0.5, 0.75]},
                {"op": "query_many", "tenant": "t", "id": 4,
                 "phis": [0.5]},  # different tuple -> its own miss
                {"op": "metrics", "id": 5},
            )
            _, first, second, _, metrics = responses
            assert second["quantiles"] == first["quantiles"]
            counters = metrics["metrics"]["counters"]
            assert counters['query_cache_hits_total{tenant="t"}'] == 1
            assert counters['query_cache_misses_total{tenant="t"}'] == 2

        _serve(flow)

    def test_ingest_invalidates_cache(self):
        async def flow(service, host, port):
            responses = await _call(
                host,
                port,
                {"op": "ingest", "tenant": "t", "id": 1,
                 "values": [1.0, 2.0, 3.0]},
                {"op": "query_many", "tenant": "t", "id": 2, "phis": [0.5]},
                {"op": "ingest", "tenant": "t", "id": 3,
                 "values": [100.0, 200.0, 300.0]},
                {"op": "query_many", "tenant": "t", "id": 4, "phis": [0.5]},
                {"op": "metrics", "id": 5},
            )
            _, before, _, after, metrics = responses
            # The second query must not be served from the pre-ingest
            # cache: the answer reflects the new elements.
            assert after["quantiles"] != before["quantiles"]
            assert after["n"] == 6
            counters = metrics["metrics"]["counters"]
            assert counters['query_cache_misses_total{tenant="t"}'] == 2
            assert 'query_cache_hits_total{tenant="t"}' not in counters

        _serve(flow)

    def test_cache_is_per_tenant(self):
        async def flow(service, host, port):
            responses = await _call(
                host,
                port,
                {"op": "ingest", "tenant": "a", "id": 1, "values": [1.0, 2.0]},
                {"op": "ingest", "tenant": "b", "id": 2, "values": [9.0, 8.0]},
                {"op": "query_many", "tenant": "a", "id": 3, "phis": [0.5]},
                {"op": "query_many", "tenant": "b", "id": 4, "phis": [0.5]},
                {"op": "metrics", "id": 5},
            )
            counters = responses[-1]["metrics"]["counters"]
            # Same phi tuple, different tenants: two misses, no hits.
            assert counters['query_cache_misses_total{tenant="a"}'] == 1
            assert counters['query_cache_misses_total{tenant="b"}'] == 1

        _serve(flow)

    def test_cache_size_is_bounded(self):
        from repro.service.server import _QUERY_CACHE_MAX_ENTRIES

        async def flow(service, host, port):
            await _call(
                host,
                port,
                {"op": "ingest", "tenant": "t", "id": 0,
                 "values": [float(v) for v in range(50)]},
                *[
                    {"op": "query_many", "tenant": "t", "id": i + 1,
                     "phis": [round(0.01 + i * 0.9 / 200, 6)]}
                    for i in range(_QUERY_CACHE_MAX_ENTRIES + 10)
                ],
            )
            state = service.registry.get("t")
            assert len(state.query_cache) <= _QUERY_CACHE_MAX_ENTRIES

        _serve(flow)


class TestCircuitBreakerEndToEnd:
    def test_breaker_flow_degraded_reads_then_probe_recovery(self, tmp_path):
        config = ServiceConfig(
            checkpoint_dir=str(tmp_path),
            breaker_threshold=2,
            breaker_probe_after=2,
            checkpoint_interval=10**9,
        )
        # Apply seq 0 is the good seed batch; seqs 1 and 2 fail and trip
        # the threshold-2 breaker.
        chaos = ChaosPlan(apply_crash_at={1, 2})

        async def flow(service, host, port):
            seeded, persisted = await _call(
                host,
                port,
                {"op": "ingest", "tenant": "t",
                 "values": [1.0, 2.0, 3.0, 4.0]},
                {"op": "snapshot", "tenant": "t", "persist": True},
            )
            assert seeded["ok"] and persisted["ok"]

            fail1, fail2 = await _call(
                host,
                port,
                {"op": "ingest", "tenant": "t", "values": [5.0]},
                {"op": "ingest", "tenant": "t", "values": [6.0]},
            )
            assert fail1["error"]["code"] == "ingest_failed"
            assert fail2["error"]["code"] == "ingest_failed"

            degraded, inverse = await _call(
                host,
                port,
                {"op": "query_many", "tenant": "t", "phis": [0.5]},
                {"op": "inverse_quantile", "tenant": "t", "value": 2.0},
            )
            # The read is served, honestly annotated with what it rests on.
            assert degraded["ok"] is True
            assert degraded["degraded"] is True
            assert degraded["coverage"] == 1.0
            assert degraded["as_of_n"] == 4
            assert degraded["quantiles"] == [2.0]
            # Inverse needs the live summary: explicit refusal, no guess.
            assert inverse["error"]["code"] == "degraded_unavailable"

            reject1, reject2, probe, live = await _call(
                host,
                port,
                {"op": "ingest", "tenant": "t", "values": [7.0]},
                {"op": "ingest", "tenant": "t", "values": [7.0]},
                {"op": "ingest", "tenant": "t", "values": [5.0]},
                {"op": "query_many", "tenant": "t", "phis": [0.5]},
            )
            assert reject1["error"]["code"] == "circuit_open"
            assert reject2["error"]["code"] == "circuit_open"
            # The probe_after-th rejection admitted this probe; its
            # success closes the breaker and reads go live again.
            assert probe["ok"] is True
            assert probe["breaker"] == "closed"
            assert live["degraded"] is False
            assert live["n"] == 5

        _serve(flow, config=config, chaos=chaos)

    def test_degraded_without_any_good_snapshot_is_explicit(self):
        config = ServiceConfig(breaker_threshold=1)
        chaos = ChaosPlan(apply_crash_at={0})

        async def flow(service, host, port):
            failed, read = await _call(
                host,
                port,
                {"op": "ingest", "tenant": "t", "values": [1.0]},
                {"op": "query_many", "tenant": "t", "phis": [0.5]},
            )
            assert failed["error"]["code"] == "ingest_failed"
            assert read["error"]["code"] == "degraded_unavailable"

        _serve(flow, config=config, chaos=chaos)


class TestHttpShimEndToEnd:
    def test_health_ingest_query_metrics(self):
        async def flow(service, host, port):
            status, _head, body = await _http(
                host, port, b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            assert status == 200
            assert json.loads(body)["status"] == "serving"

            payload = json.dumps({"values": [1.0, 2.0, 3.0]}).encode()
            status, _head, body = await _http(
                host,
                port,
                b"POST /ingest?tenant=t HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                + payload,
            )
            assert status == 200
            assert json.loads(body)["accepted"] == 3

            status, _head, body = await _http(
                host,
                port,
                b"GET /query?tenant=t&phi=0.5 HTTP/1.1\r\nHost: x\r\n\r\n",
            )
            assert status == 200
            assert json.loads(body)["quantiles"] == [2.0]

            status, head, body = await _http(
                host, port, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            assert status == 200
            assert "text/plain" in head
            assert b'requests_total{op="ingest"} 1' in body

        _serve(flow)

    def test_error_codes_map_to_http_statuses(self):
        async def flow(service, host, port):
            status, _head, body = await _http(
                host,
                port,
                b"GET /query?tenant=ghost&phi=0.5 HTTP/1.1\r\nHost: x\r\n\r\n",
            )
            assert status == 404
            assert json.loads(body)["error"]["code"] == "unknown_tenant"

            status, _head, body = await _http(
                host, port, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            assert status == 400

        _serve(flow)

    def test_non_numeric_phi_gets_400_not_a_dropped_connection(self):
        async def flow(service, host, port):
            status, _head, body = await _http(
                host,
                port,
                b"GET /query?tenant=t&phi=abc HTTP/1.1\r\nHost: x\r\n\r\n",
            )
            assert status == 400
            assert json.loads(body)["error"]["code"] == "bad_request"

        _serve(flow)

    def test_absurd_content_length_gets_400(self):
        async def flow(service, host, port):
            status, _head, body = await _http(
                host,
                port,
                b"POST /ingest?tenant=t HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 999999999999\r\n\r\n",
            )
            assert status == 400
            assert json.loads(body)["error"]["code"] == "bad_request"

        _serve(flow)


class TestCrashSafetyInProcess:
    def test_graceful_shutdown_then_restart_is_bit_identical(self, tmp_path):
        config = ServiceConfig(
            checkpoint_dir=str(tmp_path), seed=9, checkpoint_interval=10**9
        )

        async def first():
            service = QuantileService(config)
            host, port = await service.start()
            await _call(
                host,
                port,
                {"op": "ingest", "tenant": "t",
                 "values": [float(i) for i in range(200)]},
            )
            before = service.registry.get("t").estimator.to_state_dict()
            await service.shutdown()  # SIGTERM path: drains and flushes
            return before

        before = asyncio.run(first())

        async def second():
            service = QuantileService(config)
            host, port = await service.start()
            try:
                assert service.recovery.restored == ["t"]
                assert service.recovery.fallbacks == {}
                state = service.registry.get("t")
                assert state.restored_generation == 0
                assert state.estimator.to_state_dict() == before
                (ready,) = await _call(host, port, {"op": "ready"})
                assert ready["ready"] is True
                assert ready["recovery"]["restored"] == 1
            finally:
                await service.shutdown(flush=False)

        asyncio.run(second())

    def test_shutdown_concludes_despite_one_tenant_flush_failure(self, tmp_path):
        config = ServiceConfig(
            checkpoint_dir=str(tmp_path), checkpoint_interval=10**9
        )

        async def first():
            service = QuantileService(config)
            host, port = await service.start()
            await _call(
                host,
                port,
                {"op": "ingest", "tenant": "bad", "values": [9.0]},
                {"op": "ingest", "tenant": "good",
                 "values": [1.0, 2.0, 3.0]},
            )
            real_flush = service.registry.flush

            def flaky(state):
                if state.name == "bad":
                    raise OSError("disk full")
                return real_flush(state)

            service.registry.flush = flaky
            # The failing tenant must not hang shutdown or starve the
            # healthy tenant's final flush.
            await asyncio.wait_for(service.shutdown(), timeout=15.0)
            assert service._stopped.is_set()
            failures = service.metrics.counter(
                "checkpoint_flush_failures_total", tenant="bad"
            )
            assert failures.value == 1

        asyncio.run(first())

        async def second():
            service = QuantileService(config)
            await service.start()
            try:
                assert service.recovery.restored == ["good"]
                assert service.registry.get("good").n == 3
            finally:
                await service.shutdown(flush=False)

        asyncio.run(second())

    def test_shutdown_sets_stopped_even_when_a_step_raises(self, tmp_path):
        config = ServiceConfig(checkpoint_dir=str(tmp_path))

        async def flow():
            service = QuantileService(config)
            host, port = await service.start()
            await _call(host, port,
                        {"op": "ingest", "tenant": "t", "values": [1.0]})

            def explode():
                raise RuntimeError("broken close path")

            service._server.close = explode
            with pytest.raises(RuntimeError, match="broken close path"):
                await service.shutdown()
            # The failure still concluded the shutdown: waiters unblock
            # instead of hanging until SIGKILL.
            assert service._stopped.is_set()
            await asyncio.wait_for(service.wait_stopped(), timeout=1.0)

        asyncio.run(flow())

    def test_interval_flush_runs_off_loop_and_persists(self, tmp_path):
        config = ServiceConfig(
            checkpoint_dir=str(tmp_path), checkpoint_interval=4
        )

        async def flow(service, host, port):
            (ingest,) = await _call(
                host,
                port,
                {"op": "ingest", "tenant": "t",
                 "values": [1.0, 2.0, 3.0, 4.0, 5.0]},
            )
            assert ingest["ok"] is True
            flushes = service.metrics.counter("checkpoint_flushes_total")
            for _ in range(500):  # the flush completes asynchronously
                if flushes.value >= 1:
                    break
                await asyncio.sleep(0.01)
            assert flushes.value >= 1
            state = service.registry.get("t")
            assert state.since_checkpoint == 0
            assert state.last_good_snapshot is not None
            assert Path(service.registry.checkpoint_path("t")).exists()

        _serve(flow, config=config)

    def test_torn_live_checkpoint_recovers_from_prior_generation(self, tmp_path):
        config = ServiceConfig(
            checkpoint_dir=str(tmp_path), seed=9, checkpoint_interval=10**9
        )

        async def first():
            service = QuantileService(config)
            host, port = await service.start()
            await _call(
                host,
                port,
                {"op": "ingest", "tenant": "t", "values": [1.0, 2.0]},
                {"op": "snapshot", "tenant": "t", "persist": True},
                {"op": "ingest", "tenant": "t", "values": [3.0, 4.0]},
                {"op": "snapshot", "tenant": "t", "persist": True},
            )
            await service.shutdown(flush=False)
            return service.registry.checkpoint_path("t")

        live = Path(asyncio.run(first()))
        live.write_bytes(live.read_bytes()[:10])  # the torn SIGKILL write

        async def second():
            service = QuantileService(config)
            await service.start()
            try:
                assert service.recovery.fallbacks == {"t": 1}
                state = service.registry.get("t")
                assert state.restored_generation == 1
                assert state.n == 2  # generation 1 held the first flush
            finally:
                await service.shutdown(flush=False)

        asyncio.run(second())


# ----------------------------------------------------------------------
# The real process: READY handshake, signals, crash-restart
# ----------------------------------------------------------------------

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _server_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _start_server(*args):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=_server_env(),
        text=True,
    )
    readable, _, _ = select.select([proc.stdout], [], [], 60.0)
    assert readable, "server never printed READY"
    line = proc.stdout.readline().strip()
    assert line.startswith("READY "), f"unexpected first line: {line!r}"
    _, host, port = line.split()
    return proc, host, int(port)


def _sync_rpc(host, port, requests, timeout=15.0):
    with socket.create_connection((host, port), timeout=timeout) as sock:
        stream = sock.makefile("rwb")
        responses = []
        for request in requests:
            stream.write(json.dumps(request).encode("utf-8") + b"\n")
            stream.flush()
            line = stream.readline()
            responses.append(json.loads(line) if line else None)
        return responses


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=30)
    if proc.stdout is not None:
        proc.stdout.close()


class TestServiceProcess:
    def test_sigkill_then_restart_recovers_bit_identically(self, tmp_path):
        values = [float(i) for i in range(50)]
        proc, host, port = _start_server(
            "--checkpoint-dir", str(tmp_path), "--seed", "3"
        )
        try:
            ingest, persisted, before = _sync_rpc(
                host,
                port,
                [
                    {"op": "ingest", "tenant": "t", "values": values},
                    {"op": "snapshot", "tenant": "t", "persist": True},
                    {"op": "query_many", "tenant": "t",
                     "phis": [0.1, 0.5, 0.9]},
                ],
            )
            assert ingest["n"] == 50 and persisted["ok"]
            proc.kill()  # SIGKILL: no flush, no goodbye
            proc.wait(timeout=30)
        finally:
            _stop(proc)

        proc2, host2, port2 = _start_server(
            "--checkpoint-dir", str(tmp_path), "--seed", "3"
        )
        try:
            after, snapshot = _sync_rpc(
                host2,
                port2,
                [
                    {"op": "query_many", "tenant": "t",
                     "phis": [0.1, 0.5, 0.9]},
                    {"op": "snapshot", "tenant": "t"},
                ],
            )
            # Bit-identical restore: exactly the pre-kill answers.
            assert after["quantiles"] == before["quantiles"]
            assert snapshot["n"] == 50
            assert snapshot["restored_generation"] == 0
            # SIGTERM is the graceful path: drains, flushes, exits 0.
            proc2.send_signal(signal.SIGTERM)
            assert proc2.wait(timeout=30) == 0
        finally:
            _stop(proc2)

    def test_sigterm_flushes_unpersisted_tenants_for_recovery(self, tmp_path):
        proc, host, port = _start_server(
            "--checkpoint-dir", str(tmp_path), "--seed", "5"
        )
        try:
            (ingest,) = _sync_rpc(
                host,
                port,
                [{"op": "ingest", "tenant": "t",
                  "values": [3.0, 1.0, 2.0]}],
            )
            assert ingest["n"] == 3
            # Nothing persisted explicitly; graceful shutdown must flush.
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            _stop(proc)

        proc2, host2, port2 = _start_server(
            "--checkpoint-dir", str(tmp_path), "--seed", "5"
        )
        try:
            (query,) = _sync_rpc(
                host2, port2,
                [{"op": "query_many", "tenant": "t", "phis": [0.5]}],
            )
            assert query["ok"] is True
            assert query["n"] == 3
            assert query["quantiles"] == [2.0]
        finally:
            _stop(proc2)

    def test_chaos_death_mid_request_recovers_from_last_checkpoint(
        self, tmp_path
    ):
        chaos_path = tmp_path / "chaos.json"
        chaos_path.write_text(json.dumps({"die_at": 2}))
        ckpt = tmp_path / "ckpt"
        proc, host, port = _start_server(
            "--checkpoint-dir", str(ckpt), "--seed", "7",
            "--chaos", str(chaos_path),
        )
        try:
            responses = _sync_rpc(
                host,
                port,
                [
                    {"op": "ingest", "tenant": "t",
                     "values": [1.0, 2.0, 3.0]},  # seq 0
                    {"op": "snapshot", "tenant": "t",
                     "persist": True},  # seq 1
                    {"op": "query_many", "tenant": "t",
                     "phis": [0.5]},  # seq 2: os._exit mid-request
                ],
            )
            assert responses[0]["ok"] and responses[1]["ok"]
            assert responses[2] is None  # the process died under us
            assert proc.wait(timeout=30) == CHAOS_EXIT_CODE
        finally:
            _stop(proc)

        proc2, host2, port2 = _start_server(
            "--checkpoint-dir", str(ckpt), "--seed", "7"
        )
        try:
            (query,) = _sync_rpc(
                host2, port2,
                [{"op": "query_many", "tenant": "t", "phis": [0.5]}],
            )
            assert query["ok"] is True
            assert query["n"] == 3  # everything the last checkpoint held
        finally:
            _stop(proc2)
