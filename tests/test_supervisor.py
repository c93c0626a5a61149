"""The multi-core serving tier: shard mapping, re-homing, rate limits,
worker liveness.

Unit layers cover the deterministic tenant→shard derivation, checkpoint
chain re-homing across layout changes, the per-tenant token bucket, and
per-worker metric aggregation.  The process layer drives a real
``repro serve --workers 2`` supervisor through its ``READY`` handshake:
SO_REUSEPORT workers on a 1-core host still exercise every sharding,
forwarding, respawn, and recovery path — only the throughput scaling
claim needs real cores, and that lives in the sustained bench.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.persist import move_checkpoint_chain
from repro.service import (
    RateLimited,
    ServiceSupervisor,
    TokenBucket,
    rehome_checkpoints,
    shard_for_tenant,
)
from repro.service.metrics import (
    MetricRegistry,
    merge_metric_payloads,
    render_payload_text,
)
from repro.service.runner import add_serve_parser, resolve_workers
from repro.service.server import ServiceConfig, resolve_backend
from repro.service.supervisor import default_worker_count
from repro.service.tenants import tenant_chain_name

# ----------------------------------------------------------------------
# Tenant -> shard derivation
# ----------------------------------------------------------------------


class TestShardMapping:
    def test_pinned_values(self):
        # Pinned SHA-256 derivations: the mapping IS the on-disk layout
        # contract, so any drift here silently orphans worker-N/ chains.
        assert shard_for_tenant("alpha", 2) == 1
        assert shard_for_tenant("beta", 2) == 0
        assert shard_for_tenant("gamma", 2) == 0
        assert shard_for_tenant("alpha", 4) == 1
        assert shard_for_tenant("beta", 4) == 2
        assert shard_for_tenant("gamma", 4) == 0
        assert shard_for_tenant("delta", 4) == 2

    def test_deterministic_and_in_range(self):
        for workers in (1, 2, 3, 4, 7):
            for i in range(50):
                name = f"tenant-{i}"
                shard = shard_for_tenant(name, workers)
                assert 0 <= shard < workers
                assert shard == shard_for_tenant(name, workers)

    def test_single_worker_owns_everything(self):
        assert all(
            shard_for_tenant(f"t{i}", 1) == 0 for i in range(20)
        )

    def test_every_shard_gets_tenants(self):
        shards = {shard_for_tenant(f"t{i}", 4) for i in range(200)}
        assert shards == {0, 1, 2, 3}

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            shard_for_tenant("t", 0)


# ----------------------------------------------------------------------
# Worker-count resolution and supervisor construction
# ----------------------------------------------------------------------


def _serve_args(*argv: str) -> object:
    parser = argparse.ArgumentParser()
    add_serve_parser(parser.add_subparsers(dest="command"))
    return parser.parse_args(["serve", *argv])


class TestResolveWorkers:
    def test_explicit_count_wins(self):
        assert resolve_workers(_serve_args("--workers", "3")) == 3

    def test_zero_means_one_per_core(self):
        assert resolve_workers(_serve_args()) == default_worker_count()

    def test_chaos_forces_single_process(self):
        # Chaos plans are deterministic per-process scripts; a kernel
        # load-balancing connections across workers would scramble them.
        args = _serve_args("--chaos", "plan.json", "--workers", "4")
        assert resolve_workers(args) == 1

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="--workers must be >= 0"):
            resolve_workers(_serve_args("--workers", "-1"))


class TestServiceSupervisorConstruction:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ServiceSupervisor(ServiceConfig(), workers=0)

    def test_holds_no_sockets_before_start(self):
        if not hasattr(socket, "SO_REUSEPORT"):
            pytest.skip("SO_REUSEPORT not supported here")
        supervisor = ServiceSupervisor(ServiceConfig(), workers=2)
        assert supervisor.workers == 2
        assert supervisor.shard_ports == ()

    def test_seed_independent(self):
        # The derivation must not involve the service seed: a restart
        # with a different seed still finds every tenant's chain.
        assert shard_for_tenant("alpha", 2) == 1  # no seed parameter exists


class TestTenantChainName:
    def test_base_and_generation_entries(self):
        assert tenant_chain_name("tenant-abc.ckpt") == "abc"
        assert tenant_chain_name("tenant-abc.ckpt.1") == "abc"
        assert tenant_chain_name("tenant-a_b-9.ckpt.12") == "a_b-9"

    def test_foreign_entries_are_none(self):
        assert tenant_chain_name("notes.txt") is None
        assert tenant_chain_name("tenant-.ckpt") is None
        assert tenant_chain_name("tenant-abc.ckpt.x") is None
        assert tenant_chain_name("tenant-has space.ckpt") is None


# ----------------------------------------------------------------------
# Checkpoint chain re-homing
# ----------------------------------------------------------------------


class TestMoveCheckpointChain:
    def test_moves_every_present_generation(self, tmp_path):
        src = tmp_path / "tenant-a.ckpt"
        dst = tmp_path / "sub" / "tenant-a.ckpt"
        dst.parent.mkdir()
        src.write_bytes(b"live")
        Path(f"{src}.1").write_bytes(b"older")
        assert move_checkpoint_chain(src, dst, keep=2) == 2
        assert not src.exists() and not Path(f"{src}.1").exists()
        assert dst.read_bytes() == b"live"
        assert Path(f"{dst}.1").read_bytes() == b"older"

    def test_partial_chain_moves_what_exists(self, tmp_path):
        src = tmp_path / "tenant-b.ckpt"
        dst = tmp_path / "tenant-b2.ckpt"
        src.write_bytes(b"only-live")
        assert move_checkpoint_chain(src, dst, keep=3) == 1
        assert dst.read_bytes() == b"only-live"

    def test_missing_chain_is_a_noop(self, tmp_path):
        assert (
            move_checkpoint_chain(
                tmp_path / "absent.ckpt", tmp_path / "dst.ckpt"
            )
            == 0
        )


class TestRehomeCheckpoints:
    @staticmethod
    def _chain(directory, name, payload):
        # Re-homing moves whole files without reading them, so plain
        # sentinel bytes stand in for real checkpoint frames.
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"tenant-{name}.ckpt").write_bytes(payload)

    def test_classic_root_splits_into_worker_dirs(self, tmp_path):
        # alpha -> shard 1 of 2, beta -> shard 0 (pinned above).
        self._chain(tmp_path, "alpha", b"a")
        self._chain(tmp_path, "beta", b"b")
        moved = rehome_checkpoints(str(tmp_path), 2)
        assert moved == 2
        assert (tmp_path / "worker-1" / "tenant-alpha.ckpt").is_file()
        assert (tmp_path / "worker-0" / "tenant-beta.ckpt").is_file()
        assert not (tmp_path / "tenant-alpha.ckpt").exists()

    def test_worker_dirs_fold_back_to_root(self, tmp_path):
        self._chain(tmp_path / "worker-1", "alpha", b"a")
        self._chain(tmp_path / "worker-0", "beta", b"b")
        assert rehome_checkpoints(str(tmp_path), 1) == 2
        assert (tmp_path / "tenant-alpha.ckpt").is_file()
        assert (tmp_path / "tenant-beta.ckpt").is_file()

    def test_reshard_between_worker_counts(self, tmp_path):
        # beta: shard 0 of 2 -> shard 2 of 4.
        self._chain(tmp_path / "worker-0", "beta", b"b")
        assert rehome_checkpoints(str(tmp_path), 4) == 1
        assert (tmp_path / "worker-2" / "tenant-beta.ckpt").is_file()

    def test_already_homed_chains_do_not_move(self, tmp_path):
        self._chain(tmp_path / "worker-1", "alpha", b"a")
        assert rehome_checkpoints(str(tmp_path), 2) == 0
        assert (tmp_path / "worker-1" / "tenant-alpha.ckpt").is_file()

    def test_worker_copy_wins_over_stale_root_copy(self, tmp_path):
        # A crash between moves can leave a tenant at both stems; the
        # worker-dir copy is the one a worker flushed last.
        self._chain(tmp_path, "alpha", b"stale")
        self._chain(tmp_path / "worker-1", "alpha", b"fresh")
        rehome_checkpoints(str(tmp_path), 2)
        chain = tmp_path / "worker-1" / "tenant-alpha.ckpt"
        assert chain.read_bytes() == b"fresh"
        assert not (tmp_path / "tenant-alpha.ckpt").exists()

    def test_missing_root_is_a_noop(self, tmp_path):
        assert rehome_checkpoints(str(tmp_path / "absent"), 2) == 0


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_reject_with_retry_hint(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2, clock=lambda: now[0])
        bucket.admit("t")
        bucket.admit("t")
        with pytest.raises(RateLimited) as exc_info:
            bucket.admit("t")
        # Empty bucket at 10 req/s: next token is 100ms away.
        assert exc_info.value.retry_after_ms == pytest.approx(100.0)
        assert bucket.rejected_total == 1

    def test_tokens_refill_on_the_clock(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2, clock=lambda: now[0])
        bucket.admit("t")
        bucket.admit("t")
        now[0] += 0.1  # one token accrues
        bucket.admit("t")
        with pytest.raises(RateLimited):
            bucket.admit("t")

    def test_refill_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=3, clock=lambda: now[0])
        now[0] += 60.0
        assert bucket.tokens == pytest.approx(3.0)

    def test_retry_after_is_never_zero(self):
        now = [0.0]
        bucket = TokenBucket(rate=1e6, burst=1, clock=lambda: now[0])
        bucket.admit("t")
        with pytest.raises(RateLimited) as exc_info:
            bucket.admit("t")
        assert exc_info.value.retry_after_ms >= 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="rate must be > 0"):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError, match="burst must be >= 1"):
            TokenBucket(rate=1.0, burst=0)


# ----------------------------------------------------------------------
# Metric aggregation
# ----------------------------------------------------------------------


class TestMergeMetricPayloads:
    def test_counters_and_gauges_sum_across_workers(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("requests_total", op="ingest").increment(3)
        b.counter("requests_total", op="ingest").increment(4)
        a.gauge("inflight").set(1.0)
        b.gauge("inflight").set(2.0)
        merged = merge_metric_payloads({0: a.to_dict(), 1: b.to_dict()})
        assert merged["counters"]['requests_total{op="ingest"}'] == 7
        assert merged["gauges"]["inflight"] == 3.0
        assert merged["workers"] == [0, 1]

    def test_histograms_stay_per_worker(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.histogram("latency_ms").record(1.0)
        b.histogram("latency_ms").record(100.0)
        merged = merge_metric_payloads({0: a.to_dict(), 1: b.to_dict()})
        names = set(merged["histograms"])
        assert 'latency_ms{worker="0"}' in names
        assert 'latency_ms{worker="1"}' in names

    def test_disjoint_counters_pass_through(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("only_a").increment()
        b.counter("only_b").increment(2)
        merged = merge_metric_payloads({0: a.to_dict(), 1: b.to_dict()})
        assert merged["counters"]["only_a"] == 1
        assert merged["counters"]["only_b"] == 2

    def test_rendered_text_carries_merged_lines(self):
        a = MetricRegistry()
        a.counter("requests_total").increment(5)
        text = render_payload_text(merge_metric_payloads({0: a.to_dict()}))
        assert "requests_total 5\n" in text


# ----------------------------------------------------------------------
# Backend defaulting + worker count
# ----------------------------------------------------------------------


class TestResolveBackend:
    def test_explicit_choice_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "native")
        assert resolve_backend("python") == "python"

    def test_env_var_passes_through_for_degrade_semantics(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "native")
        assert resolve_backend(None) is None

    def test_defaults_to_native_when_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        pytest.importorskip("repro.kernels._native")
        assert resolve_backend(None) == "native"


def test_default_worker_count_is_positive():
    assert default_worker_count() >= 1


# ----------------------------------------------------------------------
# The real supervisor process: REUSEPORT workers behind one port
# ----------------------------------------------------------------------

_SRC = str(Path(__file__).resolve().parents[1] / "src")

# Pinned mapping (asserted above): with 2 workers, alpha lives on shard
# 1 and beta on shard 0 — one tenant per worker.
_SHARD0_TENANT = "beta"
_SHARD1_TENANT = "alpha"

_supports_reuseport = hasattr(socket, "SO_REUSEPORT")
requires_reuseport = pytest.mark.skipif(
    not _supports_reuseport, reason="SO_REUSEPORT not supported here"
)


def _server_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _start_supervised(*args):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=_server_env(),
        text=True,
    )
    readable, _, _ = select.select([proc.stdout], [], [], 120.0)
    assert readable, "supervisor never printed READY"
    line = proc.stdout.readline().strip()
    assert line.startswith("READY "), f"unexpected first line: {line!r}"
    _, host, port = line.split()
    return proc, host, int(port)


def _rpc(host, port, *requests, timeout=30.0):
    with socket.create_connection((host, port), timeout=timeout) as sock:
        stream = sock.makefile("rwb")
        responses = []
        for request in requests:
            stream.write(json.dumps(request).encode("utf-8") + b"\n")
            stream.flush()
            line = stream.readline()
            responses.append(json.loads(line) if line else None)
        return responses


def _http(host, port, raw, timeout=30.0):
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=60)
    if proc.stdout is not None:
        proc.stdout.close()


def _shard_pids(host, port):
    (response,) = _rpc(host, port, {"op": "shards"})
    assert response["ok"], response
    return {entry["shard"]: entry["pid"] for entry in response["shards"]}


@requires_reuseport
class TestSupervisorProcess:
    def test_worker_sigkill_recovers_only_that_shard(self, tmp_path):
        proc, host, port = _start_supervised(
            "--workers", "2", "--checkpoint-dir", str(tmp_path), "--seed", "3"
        )
        try:
            shard0_values = [float(i) for i in range(200)]
            shard1_values = [float(i) * 2.0 for i in range(200)]
            phis = [0.1, 0.5, 0.9]
            ingest0, ingest1, _, _, before0, before1 = _rpc(
                host,
                port,
                {"op": "ingest", "tenant": _SHARD0_TENANT,
                 "values": shard0_values},
                {"op": "ingest", "tenant": _SHARD1_TENANT,
                 "values": shard1_values},
                {"op": "snapshot", "tenant": _SHARD0_TENANT, "persist": True},
                {"op": "snapshot", "tenant": _SHARD1_TENANT, "persist": True},
                {"op": "query_many", "tenant": _SHARD0_TENANT, "phis": phis},
                {"op": "query_many", "tenant": _SHARD1_TENANT, "phis": phis},
            )
            assert ingest0["n"] == 200 and ingest1["n"] == 200
            pids = _shard_pids(host, port)
            assert set(pids) == {0, 1}

            os.kill(pids[0], signal.SIGKILL)  # crash exactly one shard

            # The surviving shard keeps answering throughout.  A
            # connection racing the kill can land in the dying worker's
            # accept backlog and get reset, so tolerate transport-level
            # resets for a moment — but never an unanswered request on a
            # connection the live worker accepted.
            alive = None
            for _ in range(40):
                try:
                    (alive,) = _rpc(
                        host, port,
                        {"op": "query_many", "tenant": _SHARD1_TENANT,
                         "phis": phis},
                    )
                    break
                except (ConnectionError, TimeoutError):
                    time.sleep(0.05)
            assert alive is not None and alive["ok"] is True
            assert alive["quantiles"] == before1["quantiles"]

            # The supervisor respawns shard 0, which recovers its
            # tenants from the worker-0/ chain bit-identically.
            deadline = time.monotonic() + 60.0
            recovered = None
            while time.monotonic() < deadline:
                try:
                    (response,) = _rpc(
                        host, port,
                        {"op": "query_many", "tenant": _SHARD0_TENANT,
                         "phis": phis},
                    )
                except (ConnectionError, TimeoutError):
                    response = None
                if response is not None and response.get("ok"):
                    recovered = response
                    break
                time.sleep(0.25)
            assert recovered is not None, "shard 0 never came back"
            assert recovered["quantiles"] == before0["quantiles"]
            assert recovered["n"] == 200

            # The respawned worker is a NEW process owning the SAME shard.
            pids_after = _shard_pids(host, port)
            assert pids_after[1] == pids[1]
            assert pids_after[0] != pids[0]

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            _stop(proc)

    def test_rate_limit_rejections_are_explicit_429s(self, tmp_path):
        proc, host, port = _start_supervised(
            "--workers", "2",
            "--rate-limit", "1", "--rate-burst", "2",
        )
        try:
            # Burst of 2, then every further request must come back as
            # an explicit rate_limited error — never a silent drop.
            responses = _rpc(
                host,
                port,
                *[
                    {"op": "query_many", "tenant": _SHARD0_TENANT,
                     "phis": [0.5]}
                    for _ in range(6)
                ],
            )
            assert all(response is not None for response in responses)
            rejected = [r for r in responses if not r.get("ok")]
            limited = [
                r for r in rejected
                if r["error"]["code"] == "rate_limited"
            ]
            assert limited, f"no rate_limited rejection in {responses}"
            assert all(
                r["error"]["retry_after_ms"] >= 1.0 for r in limited
            )

            # Through the HTTP shim the same rejection is a 429 with a
            # Retry-After header.
            raw = _http(
                host, port,
                f"GET /query?tenant={_SHARD0_TENANT}&phi=0.5 "
                "HTTP/1.1\r\nHost: x\r\n\r\n".encode(),
            )
            assert raw.startswith(b"HTTP/1.1 429 ")
            assert b"Retry-After:" in raw
        finally:
            _stop(proc)

    def test_mapping_and_answers_stable_across_restart(self, tmp_path):
        phis = [0.25, 0.75]
        proc, host, port = _start_supervised(
            "--workers", "2", "--checkpoint-dir", str(tmp_path), "--seed", "9"
        )
        try:
            _, _, before = _rpc(
                host,
                port,
                {"op": "ingest", "tenant": _SHARD0_TENANT,
                 "values": [float(i) for i in range(100)]},
                {"op": "ingest", "tenant": _SHARD1_TENANT,
                 "values": [float(i) + 0.5 for i in range(100)]},
                {"op": "query_many", "tenant": _SHARD0_TENANT, "phis": phis},
            )
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            _stop(proc)

        # Graceful shutdown flushed each tenant into its OWNING worker's
        # directory — the layout a restart derives from the name alone.
        assert (tmp_path / "worker-0" / f"tenant-{_SHARD0_TENANT}.ckpt").is_file()
        assert (tmp_path / "worker-1" / f"tenant-{_SHARD1_TENANT}.ckpt").is_file()

        proc2, host2, port2 = _start_supervised(
            "--workers", "2", "--checkpoint-dir", str(tmp_path), "--seed", "9"
        )
        try:
            after, route = _rpc(
                host2, port2,
                {"op": "query_many", "tenant": _SHARD0_TENANT, "phis": phis},
                {"op": "route", "tenant": _SHARD0_TENANT},
            )
            assert after["quantiles"] == before["quantiles"]
            assert route["shard"] == 0 and route["workers"] == 2
            proc2.send_signal(signal.SIGTERM)
            assert proc2.wait(timeout=60) == 0
        finally:
            _stop(proc2)

    def test_classic_checkpoints_boot_into_multiworker_layout(self, tmp_path):
        # A directory written by the PR 6 single-process service must
        # serve unchanged answers under --workers 2 (and fold back).
        phis = [0.1, 0.9]
        proc, host, port = _start_supervised(
            "--workers", "1", "--checkpoint-dir", str(tmp_path), "--seed", "4"
        )
        try:
            _, _, before = _rpc(
                host, port,
                {"op": "ingest", "tenant": _SHARD1_TENANT,
                 "values": [float(i) for i in range(150)]},
                {"op": "ingest", "tenant": _SHARD0_TENANT,
                 "values": [float(i) * 3.0 for i in range(150)]},
                {"op": "query_many", "tenant": _SHARD1_TENANT, "phis": phis},
            )
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            _stop(proc)
        assert (tmp_path / f"tenant-{_SHARD1_TENANT}.ckpt").is_file()

        proc2, host2, port2 = _start_supervised(
            "--workers", "2", "--checkpoint-dir", str(tmp_path), "--seed", "4"
        )
        try:
            after, health = _rpc(
                host2, port2,
                {"op": "query_many", "tenant": _SHARD1_TENANT, "phis": phis},
                {"op": "health"},
            )
            assert after["quantiles"] == before["quantiles"]
            assert health["workers"] == 2
            proc2.send_signal(signal.SIGTERM)
            assert proc2.wait(timeout=60) == 0
        finally:
            _stop(proc2)

        # And back down to the classic layout: worker dirs fold to root.
        proc3, host3, port3 = _start_supervised(
            "--workers", "1", "--checkpoint-dir", str(tmp_path), "--seed", "4"
        )
        try:
            (again,) = _rpc(
                host3, port3,
                {"op": "query_many", "tenant": _SHARD1_TENANT, "phis": phis},
            )
            assert again["quantiles"] == before["quantiles"]
        finally:
            _stop(proc3)

    def test_metrics_aggregate_across_workers(self, tmp_path):
        proc, host, port = _start_supervised("--workers", "2")
        try:
            _rpc(
                host, port,
                {"op": "ingest", "tenant": _SHARD0_TENANT, "values": [1.0]},
                {"op": "ingest", "tenant": _SHARD1_TENANT, "values": [2.0]},
            )
            (metrics,) = _rpc(host, port, {"op": "metrics"})
            assert metrics["ok"], metrics
            merged = metrics["metrics"]
            assert merged["workers"] == [0, 1]
            ingest_counts = sum(
                count
                for rendered, count in merged["counters"].items()
                if rendered.startswith("requests_total")
                and 'op="ingest"' in rendered
            )
            forwarded = sum(
                count
                for rendered, count in merged["counters"].items()
                if rendered.startswith("forwarded_total")
            )
            # Each client ingest counts once at its ingress worker plus
            # once at the owner when it took a forwarding hop.
            assert ingest_counts == 2 + forwarded
            assert ingest_counts >= 2
        finally:
            _stop(proc)

    def test_query_fanout_merges_across_shards(self, tmp_path):
        proc, host, port = _start_supervised("--workers", "2")
        try:
            _rpc(
                host, port,
                {"op": "ingest", "tenant": _SHARD0_TENANT,
                 "values": [float(i) for i in range(500)]},
                {"op": "ingest", "tenant": _SHARD1_TENANT,
                 "values": [float(i) + 500.0 for i in range(500)]},
            )
            (fanout,) = _rpc(
                host, port,
                {"op": "query_fanout", "phis": [0.5],
                 "tenants": [_SHARD0_TENANT, _SHARD1_TENANT]},
            )
            assert fanout["ok"], fanout
            assert fanout["n"] == 1000
            assert fanout["coverage"] == 1.0
            assert fanout["missing"] == []
            # The merged median sits at the seam of the two tenants.
            assert 400.0 <= fanout["quantiles"][0] <= 600.0
        finally:
            _stop(proc)
