"""Runs one benchmark workload against the package build of the commit under test.

``run.py`` starts this file in a fresh interpreter whose ``PYTHONPATH``
holds only that build.  Before timing anything it checks that ``repro``
and its native extension were loaded from the build; then it reads the
inputs ``run.py`` generated, runs the workload, and writes one JSON result
holding the metrics, the answers ``run.py`` checks against exact ranks, and
the operation counts.  Not meant to be run by hand; see ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from array import array

from procs import child_pids, vm_hwm_mib
from spans import SpanRecorder

STREAM_EPS, STREAM_DELTA = 0.001, 1e-3
POOL_EPS, POOL_DELTA = 0.01, 1e-3
POOL_WORKERS = 2
SERVE_WORKERS = 2
SERVE_TENANTS = 8
BATCH = 65_536
#: The stream is fed this many whole cycles of the input pool.
CYCLES = 8
PHIS = [i / 100 for i in range(1, 100)]
SERVE_PHIS = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
#: Latency samples a percentile needs: ten beyond p90.
MIN_SAMPLES = 110
#: Fresh interpreters timed for the median ``setup_s``, spread over the run.
SETUP_PROCESSES = 15
POOL_WARMUP_S, POOL_WARMUP_PASSES = 2.0, 3
SERVE_WARMUP_S = 0.5
READY_TIMEOUT_S = 60.0

STREAM_SETUP = (
    "from repro import UnknownNQuantiles\n"
    f"UnknownNQuantiles(eps={STREAM_EPS}, delta={STREAM_DELTA}, seed=0, "
    "backend='native')\n"
    "print('ready', flush=True)\n"
)
POOL_SETUP = (
    "import repro.runtime\n"
    "from repro.core.params import plan_parameters\n"
    f"plan_parameters({POOL_EPS}, {POOL_DELTA})\n"
    "print('ready', flush=True)\n"
)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def verify_build(lib: str, fingerprint: str) -> None:
    """Refuse to time unless the package and its extension come from ``lib``."""
    import repro
    from repro.kernels import _native

    lib = os.path.realpath(lib)
    for module in (repro, _native):
        path = os.path.realpath(module.__file__)
        if os.path.commonpath([path, lib]) != lib:
            raise SystemExit(
                f"{module.__name__} was loaded from {path}, not from the "
                f"build of the commit under test in {lib}"
            )
    with open(os.path.join(lib, ".complete"), encoding="utf-8") as handle:
        if handle.read().strip() != fingerprint:
            raise SystemExit(f"the build in {lib} is not of the sources under test")


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def load_floats(path: str) -> array:
    values = array("d")
    with open(path, "rb") as handle:
        values.fromfile(handle, os.path.getsize(path) // 8)
    return values


def time_fresh_process(code: str) -> float:
    """Seconds from spawning an interpreter running ``code`` to its ``ready``."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - started
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return seconds


class SetupProbes:
    """Fresh-interpreter setup times, taken evenly over the measured window.

    The host's speed drifts over tens of seconds, so probes taken back to
    back would all land in one phase of the drift; spread out, their
    median averages over it.  Probes run between timed operations, never
    during one.  The window starts at the first call of ``take_due``.
    """

    def __init__(self, code: str, seconds: float, count: int = SETUP_PROCESSES) -> None:
        self.code, self.count = code, count
        self.interval = seconds / count
        self.started: float | None = None
        self.times: list[float] = []

    def take_due(self) -> None:
        """Take the next probe if its share of the window has passed."""
        if self.started is None:
            self.started = time.perf_counter()
        elapsed = time.perf_counter() - self.started
        if len(self.times) < self.count and elapsed >= len(self.times) * self.interval:
            self.times.append(time_fresh_process(self.code))

    def median(self) -> float:
        while len(self.times) < self.count:
            self.times.append(time_fresh_process(self.code))
        return median(self.times)


def traced_native(recorder: SpanRecorder):
    """A ``NativeBackend`` whose kernel calls are recorded as spans.

    The views it builds are ``NativeMergedView`` subclasses whose
    ``select_many``, the C rank walk behind ``query_many``, is a span too.
    """
    from repro.kernels.native_backend import NativeBackend, NativeMergedView

    sizes = {
        "batch_contains_nan": lambda args: len(args[0]),
        "block_representatives": lambda args: args[2] * args[3],
        "write_slot": lambda args: len(args[2]),
        "select_collapse": lambda args: sum(len(v) for v, _ in args[0]),
        "merged_view": lambda args: sum(len(v) for v, _ in args[0]),
        "merge_views": lambda args: len(args[0]) + len(args[1]),
    }
    kernels = {
        name: recorder.wrap(f"kernels.{name}", getattr(NativeBackend, name),
                            lambda args, size=size: size(args[1:]))
        for name, size in sizes.items()
    }

    class TracedMergedView(NativeMergedView):
        __slots__ = ()
        select_many = recorder.wrap(
            "kernels.select_many", NativeMergedView.select_many, lambda args: len(args[1])
        )

    def traced_view(view):
        if isinstance(view, NativeMergedView):
            return TracedMergedView(view.values, view.cumweights)
        return view

    class TracedNativeBackend(NativeBackend):
        def merged_view(self, weighted):
            return traced_view(kernels["merged_view"](self, weighted))

        def merge_views(self, a, b):
            return traced_view(kernels["merge_views"](self, a, b))

    for name in sizes.keys() - {"merged_view", "merge_views"}:
        setattr(TracedNativeBackend, name, kernels[name])
    return TracedNativeBackend()


# ----------------------------------------------------------------------
# stream: online aggregation, one estimator polled after every batch
# ----------------------------------------------------------------------

def stream_phase(
    run_dir: str, seconds: float, seed: int, recorder=None, probes=None
) -> dict:
    from repro import UnknownNQuantiles

    pool = load_floats(os.path.join(run_dir, "base.f64"))
    view = memoryview(pool)
    batches = [view[i:i + BATCH] for i in range(0, len(pool), BATCH)]
    total = CYCLES * len(batches)
    backend = traced_native(recorder) if recorder is not None else "native"
    rates: list[float] = []
    polls = array("d")
    points = []
    deadline = time.perf_counter() + seconds
    while not rates or time.perf_counter() < deadline:
        if probes is not None:
            probes.take_due()
        estimator = UnknownNQuantiles(
            eps=STREAM_EPS, delta=STREAM_DELTA, seed=seed + len(rates),
            backend=backend,
        )
        update, query = estimator.update_batch, estimator.query_many
        if recorder is not None:
            update = recorder.wrap("core.update_batch", update, lambda a: len(a[0]))
            query = recorder.wrap("core.query_many", query)
        started = time.perf_counter()
        for index in range(total):
            if recorder is not None:
                recorder.next_request()
            update(batches[index % len(batches)])
            poll_started = time.perf_counter_ns()
            answers = query(PHIS)
            polls.append(time.perf_counter_ns() - poll_started)
            if (index + 1) % len(batches) == 0:
                points.append([(index + 1) // len(batches), answers])
        rates.append(total * BATCH / (time.perf_counter() - started))
    peak = vm_hwm_mib()
    engine = estimator.engine
    return {
        "e2e": {
            "elems_per_s": median(rates),
            "latency_p50_ms": median(polls) / 1e6,
            "latency_p90_ms": p90(polls) / 1e6,
            "peak_rss_mib": peak,
        },
        "reps": len(rates),
        "attempted": 2 * total * len(rates),
        "failed": 0,
        "counts": {
            "core.collapse_count": engine.collapse_count,
            "core.leaves_created": engine.leaves_created,
            "core.memory_bytes": estimator.memory_bytes,
            "core.final_sampling_rate": estimator.sampling_rate,
        },
        "check": {"eps": STREAM_EPS, "points": points},
    }


def stream_layers(phase: dict, run_dir: str, seed: int, recorder: SpanRecorder) -> dict:
    if not recorder.children_nest():
        raise RuntimeError("stream spans do not nest")
    spans = recorder.summary()
    reps = phase["reps"]

    def per_elem(name):
        return spans[name]["total_ns"] / spans[name]["elems"]

    def mean_us(name):
        return spans[name]["total_ns"] / spans[name]["calls"] / 1e3

    return {
        "kernels.select_collapse_ms": spans["kernels.select_collapse"]["total_ns"] / reps / 1e6,
        "kernels.select_collapse_calls": spans["kernels.select_collapse"]["calls"] / reps,
        "kernels.write_slot_ns_per_elem": per_elem("kernels.write_slot"),
        "kernels.batch_contains_nan_ns_per_elem": per_elem("kernels.batch_contains_nan"),
        "kernels.merged_view_us": mean_us("kernels.merged_view"),
        "kernels.merge_views_us": mean_us("kernels.merge_views"),
        "kernels.select_many_us": mean_us("kernels.select_many"),
        "core.update_batch_self_ms": spans["core.update_batch"]["self_ns"] / reps / 1e6,
        "core.query_many_self_us": (
            spans["core.query_many"]["self_ns"] / spans["core.query_many"]["calls"] / 1e3
        ),
        **phase["counts"],
    }


# ----------------------------------------------------------------------
# pool_file: one-shot Section 6 parallel scans of one file
# ----------------------------------------------------------------------

def pool_phase(
    run_dir: str, seconds: float, seed: int, recorder=None, min_passes=MIN_SAMPLES,
    probes=None,
) -> dict:
    from repro.runtime import PoolWorkerError, run_pool_on_file

    path = os.path.join(run_dir, "data.f64")
    failed = passes = 0

    def one_pass():
        nonlocal failed, passes
        passes += 1
        started = time.perf_counter()
        try:
            result = run_pool_on_file(
                path, POOL_WORKERS, eps=POOL_EPS, delta=POOL_DELTA,
                seed=seed * 1_000_003 + passes, backend="native",
            )
        except PoolWorkerError:
            failed += 1
            return None, None
        return time.perf_counter() - started, result

    warm_until = time.perf_counter() + POOL_WARMUP_S
    while passes < POOL_WARMUP_PASSES or time.perf_counter() < warm_until:
        one_pass()
    walls, answers, phases = [], [], []
    bound_ok, n = True, 0
    started = time.perf_counter()
    while (
        time.perf_counter() - started < seconds or len(walls) < min_passes
    ) and time.perf_counter() - started < 3 * seconds:
        if probes is not None:
            probes.take_due()
        if recorder is not None:
            recorder.next_request()
            span = recorder.begin("runtime.pass")
        wall, result = one_pass()
        if recorder is not None:
            recorder.end(span)
        if result is None:
            continue
        walls.append(wall)
        answers.append(result.query_many(PHIS))
        bound_ok = bound_ok and result.report.within_communication_bound
        n = result.n
        ingest = [worker.ingest_seconds for worker in result.workers]
        phases.append({
            "spawn_ms": result.spawn_seconds * 1e3,
            "ingest_ms": result.ingest_seconds * 1e3,
            "merge_ms": result.merge_seconds * 1e3,
            "pass_overhead_ms": (
                wall - result.ingest_seconds - result.merge_seconds
            ) * 1e3,
            "worker_skew": max(ingest) / min(ingest),
            "shipped_bytes": result.shipped_bytes,
            "shipped_buffers": result.report.shipped_buffers,
        })
    peak = max(
        vm_hwm_mib(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    return {
        "e2e": {
            "elems_per_s": n / median(walls),
            "latency_p50_ms": median(walls) * 1e3,
            "latency_p90_ms": p90(walls) * 1e3,
            "peak_rss_mib": peak,
        },
        "attempted": passes,
        "failed": failed,
        "phases": phases,
        "check": {
            "eps": POOL_EPS, "factor": 2, "n": n, "answers": answers,
            "bound_ok": bound_ok,
        },
    }


def single_process_rate(run_dir: str, seed: int, recorder=None) -> float:
    """Elements/s of one process scanning the pool's file into one estimator."""
    from repro import UnknownNQuantiles
    from repro.streams.diskfile import CHUNK_VALUES, read_float_chunks

    estimator = UnknownNQuantiles(
        eps=POOL_EPS, delta=POOL_DELTA, seed=seed,
        backend=traced_native(recorder) if recorder is not None else "native",
    )
    chunks = read_float_chunks(
        os.path.join(run_dir, "data.f64"), CHUNK_VALUES, reuse_buffer=True
    )
    started = time.perf_counter()
    if recorder is None:
        for chunk in chunks:
            estimator.update_batch(chunk)
    else:
        read = recorder.wrap("diskfile.read_float_chunks", next)
        update = recorder.wrap("core.update_batch", estimator.update_batch)
        while (chunk := read(chunks, None)) is not None:
            update(chunk)
    return estimator.n / (time.perf_counter() - started)


def pool_layers(phase: dict, run_dir: str, seed: int, recorder: SpanRecorder) -> dict:
    single = median([single_process_rate(run_dir, seed + i) for i in range(3)])
    single_process_rate(run_dir, seed, recorder)
    spans = recorder.summary()
    reads = spans["diskfile.read_float_chunks"]
    reps = spans["kernels.block_representatives"]
    layers = {
        f"runtime.{key}": median([p[key] for p in phase["phases"]])
        for key in phase["phases"][0]
    }
    layers.update({
        "kernels.block_representatives_ns_per_elem": reps["total_ns"] / reps["elems"],
        "diskfile.read_ns_per_elem": reads["total_ns"] / phase["check"]["n"],
        "diskfile.single_process_elems_per_s": single,
        "runtime.parallel_efficiency": phase["e2e"]["elems_per_s"] / single,
    })
    return layers


# ----------------------------------------------------------------------
# serve: a closed loop over one connection to a two-shard server
# ----------------------------------------------------------------------

def tenants_by_shard(entry_shard: int) -> list[str]:
    """Eight tenant names, four per shard; the entry shard's four come first.

    Slots 0-3 of the inputs are therefore served locally by the shard the
    connection landed on and slots 4-7 take the peer-forward hop, whichever
    shard the kernel picked for the connection.
    """
    from repro.service import shard_for_tenant

    per_shard = SERVE_TENANTS // SERVE_WORKERS
    owned: dict[int, list[str]] = {shard: [] for shard in range(SERVE_WORKERS)}
    index = 0
    while any(len(names) < per_shard for names in owned.values()):
        name = f"tenant-{index:03d}"
        index += 1
        names = owned[shard_for_tenant(name, SERVE_WORKERS)]
        if len(names) < per_shard:
            names.append(name)
    order = [entry_shard, *(s for s in range(SERVE_WORKERS) if s != entry_shard)]
    return [name for shard in order for name in owned[shard]]


def encode(body: dict) -> bytes:
    return json.dumps(body, separators=(",", ":")).encode() + b"\n"


def start_server(run_dir: str, seed: int, tag: str):
    """Spawn ``repro serve``; returns (process, host, port, seconds to READY).

    Each server gets a new directory holding its log and an empty
    checkpoint directory, so a traced run's second server boots with no
    tenants rather than restoring the first one's.
    """
    home = tempfile.mkdtemp(prefix=f"server-{tag}-", dir=run_dir)
    checkpoints = os.path.join(home, "checkpoints")
    os.mkdir(checkpoints)
    with open(os.path.join(home, "server.log"), "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--workers", str(SERVE_WORKERS), "--backend", "native",
             "--seed", str(seed), "--checkpoint-dir", checkpoints],
            stdout=subprocess.PIPE, stderr=log, cwd=run_dir, process_group=0,
        )
    readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if readable else b""
    seconds = time.perf_counter() - started
    if not line.startswith(b"READY "):
        stop_server(proc)
        raise RuntimeError(f"server {tag} never printed READY")
    _, host, port = line.split()
    return proc, host.decode(), int(port), seconds


def stop_server(proc) -> None:
    """Graceful SIGTERM, then make sure nothing of its session survives."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    proc.stdout.close()
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            deadline = time.monotonic() + 5
        time.sleep(0.02)


class LineClient:
    """One blocking connection speaking the line/JSON protocol."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        return self.reader.readline()

    def request(self, body: dict) -> dict:
        return json.loads(self.call(encode(body)))

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class ServeLoad:
    """The pre-encoded request mix and what the client sent of it."""

    # Request kinds, for splitting latencies.
    KINDS = ("ingest.local", "ingest.forwarded", "query.local", "query.forwarded")

    def __init__(self, inputs: dict, tenants: list[str]) -> None:
        self.lines = [
            [encode({"op": "ingest", "tenant": name, "values": values})
             for values in inputs["lines"][slot]]
            for slot, name in enumerate(tenants)
        ]
        queries = [
            encode({"op": "query_many", "tenant": name, "phis": SERVE_PHIS})
            for name in tenants
        ]
        local = SERVE_TENANTS // SERVE_WORKERS
        self.schedule = []
        for slot, op, index in inputs["schedule"]:
            forwarded = int(slot >= local)
            line = self.lines[slot][index] if op == 0 else queries[slot]
            self.schedule.append((line, 2 * op + forwarded, slot, index))
        self.counts = [[0] * len(lines) for lines in self.lines]
        self.position = 0
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def seed_tenants(self, client: LineClient) -> None:
        for slot, lines in enumerate(self.lines):
            for index, line in enumerate(lines):
                self.account(client.call(line), slot, index)

    def account(self, response: bytes, slot: int = -1, index: int = -1) -> bool:
        """Count one response; an acknowledged ingest counts its line as sent."""
        self.attempted += 1
        if response.startswith(b'{"ok":true'):
            if index >= 0:
                self.counts[slot][index] += 1
            return True
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(response.decode(errors="replace")[:300])
        return False

    def drive(self, client, seconds, latencies=None, recorder=None) -> int:
        """Run the schedule for ``seconds``; returns values acknowledged."""
        clock = time.perf_counter_ns
        stop = clock() + int(seconds * 1e9)
        schedule, size = self.schedule, len(self.schedule)
        position, acked = self.position, 0
        while True:
            line, kind, slot, index = schedule[position]
            position = (position + 1) % size
            started = clock()
            if started >= stop:
                break
            if recorder is not None:
                recorder.next_request()
                span = recorder.begin(f"client.{self.KINDS[kind]}")
            response = client.call(line)
            if recorder is not None:
                recorder.end(span)
            if latencies is not None:
                latencies[kind].append(clock() - started)
            ok = self.account(response, slot, index if kind < 2 else -1)
            if ok and kind < 2:
                acked += 64
        self.position = position
        return acked


def scrape(client: LineClient) -> dict:
    response = client.request({"op": "metrics"})
    if not response.get("ok"):
        raise RuntimeError(f"metrics scrape failed: {response}")
    return response["metrics"]


def counter_sum(payload: dict, prefix: str) -> int:
    return sum(
        value for name, value in payload["counters"].items()
        if name == prefix or name.startswith(prefix + "{")
    )


def serve_phase(run_dir: str, seconds: float, seed: int, recorder=None) -> dict:
    """One fresh server: seed its tenants, warm up, drive it for ``seconds``."""
    with open(os.path.join(run_dir, "serve.json"), encoding="utf-8") as handle:
        inputs = json.load(handle)
    latencies = [array("d") for _ in ServeLoad.KINDS]
    proc, host, port, ready = start_server(
        run_dir, seed, "traced" if recorder is not None else "load"
    )
    try:
        client = LineClient(host, port)
        try:
            health = client.request({"op": "health"})
            if health.get("backend") != "native" or health.get("workers") != SERVE_WORKERS:
                raise RuntimeError(f"server is not the native two-shard layout: {health}")
            tenants = tenants_by_shard(health["shard"])
            load = ServeLoad(inputs, tenants)
            load.seed_tenants(client)
            load.drive(client, SERVE_WARMUP_S)
            before = scrape(client)
            started = time.perf_counter()
            acked = load.drive(client, seconds, latencies, recorder)
            window = time.perf_counter() - started
            after = scrape(client)
            peak = max(vm_hwm_mib(pid) for pid in [proc.pid, *child_pids(proc.pid)])
            finals = []
            for slot, name in enumerate(tenants):
                answer = client.call(
                    encode({"op": "query_many", "tenant": name, "phis": SERVE_PHIS})
                )
                described = client.call(encode({"op": "snapshot", "tenant": name}))
                load.account(answer)
                load.account(described)
                finals.append({
                    **{k: json.loads(described).get(k) for k in ("eps", "delta", "n")},
                    "counts": load.counts[slot],
                    "answers": json.loads(answer).get("quantiles"),
                })
        finally:
            client.close()
    finally:
        stop_server(proc)
    everything = [value for kind in latencies for value in kind]
    return {
        "e2e": {
            "setup_s": ready,
            "elems_per_s": acked / window,
            "latency_p50_ms": median(everything) / 1e6,
            "latency_p90_ms": p90(everything) / 1e6,
            "peak_rss_mib": peak,
        },
        "attempted": load.attempted,
        "failed": load.failed,
        "errors": load.errors,
        "latencies": latencies,
        "entry_shard": health["shard"],
        "metrics": (before, after),
        "lines": inputs["lines"],
        "schedule": load.schedule,
        "check": {"tenants": finals},
    }


def serve_layers(phase: dict, run_dir: str, seed: int, recorder: SpanRecorder) -> dict:
    from repro import UnknownNQuantiles
    from repro.persist import save_checkpoint_rotating
    from repro.service.protocol import encode_response, ok_response, parse_line

    local_ingest, fwd_ingest, local_query, fwd_query = phase["latencies"]
    before, after = phase["metrics"]

    def delta(prefix):
        return counter_sum(after, prefix) - counter_sum(before, prefix)

    def server_p50_ms(op):
        name = f'request_seconds{{op="{op}",worker="{phase["entry_shard"]}"}}'
        return after["histograms"][name]["p50"] * 1e3

    forwarded = delta("forwarded_total")
    tenant_requests = delta('requests_total{op="ingest"}') + delta(
        'requests_total{op="query_many"}'
    )
    hits, misses = delta("query_cache_hits_total"), delta("query_cache_misses_total")
    layers = {
        "service.ingest_local_p50_ms": median(local_ingest) / 1e6,
        "service.ingest_forwarded_p50_ms": median(fwd_ingest) / 1e6,
        "service.query_local_p50_ms": median(local_query) / 1e6,
        "service.query_forwarded_p50_ms": median(fwd_query) / 1e6,
        "service.forward_hop_ms": (
            median([*fwd_ingest, *fwd_query]) - median([*local_ingest, *local_query])
        ) / 1e6,
        "service.server_ingest_p50_ms": server_p50_ms("ingest"),
        "service.server_query_p50_ms": server_p50_ms("query_many"),
        "service.forward_share": forwarded / (tenant_requests - forwarded),
        "service.query_cache_hit_ratio": hits / (hits + misses),
        "persist.checkpoint_flushes": delta("checkpoint_flushes_total"),
    }

    # Outside the timed window: one tenant's ingest replayed into a
    # tenant-sized estimator, checkpointed, plus the protocol codec on
    # the workload's own request lines.
    tenants = phase["check"]["tenants"]
    slot = max(range(SERVE_TENANTS), key=lambda s: tenants[s]["n"])
    estimator = UnknownNQuantiles(
        eps=tenants[slot]["eps"], delta=tenants[slot]["delta"], seed=seed,
        backend="native",
    )
    for values, count in zip(phase["lines"][slot], tenants[slot]["counts"]):
        batch = array("d", values)
        for _ in range(count):
            estimator.update_batch(batch)
    directory = os.path.join(run_dir, "persist")
    os.makedirs(directory, exist_ok=True)
    save = recorder.wrap("persist.save_checkpoint_rotating", save_checkpoint_rotating)
    for _ in range(21):
        save(estimator, os.path.join(directory, "tenant.ckpt"))
    lines = [line for line, _, _, _ in phase["schedule"]]
    parse = recorder.wrap("protocol.parse_line", parse_line)
    for line in lines:
        parse(line)
    answer = estimator.query_many(SERVE_PHIS)
    responses = [
        ok_response(None, tenant="tenant-000", accepted=64, n=estimator.n,
                    pending_batches=0, breaker="closed"),
        ok_response(None, tenant="tenant-000", quantiles=answer, n=estimator.n,
                    degraded=False),
    ] * (len(lines) // 2)
    encode_one = recorder.wrap("protocol.encode_response", encode_response)
    for response in responses:
        encode_one(response)
    spans = recorder.summary()

    def mean(name, scale):
        return spans[name]["total_ns"] / spans[name]["calls"] / scale

    layers.update({
        "persist.save_checkpoint_ms": mean("persist.save_checkpoint_rotating", 1e6),
        "protocol.parse_us": mean("protocol.parse_line", 1e3),
        "protocol.encode_us": mean("protocol.encode_response", 1e3),
    })
    return layers


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

WORKLOADS = ("stream", "pool_file", "serve")


def untraced(workload: str, run_dir: str, seconds: float, seed: int) -> dict:
    """The end-to-end metrics of one workload, tracing off."""
    if workload == "stream":
        probes = SetupProbes(STREAM_SETUP, seconds)
        phase = stream_phase(run_dir, seconds, seed, probes=probes)
        phase["e2e"]["setup_s"] = probes.median()
    elif workload == "pool_file":
        probes = SetupProbes(POOL_SETUP, seconds)
        phase = pool_phase(run_dir, seconds, seed, probes=probes)
        phase["e2e"]["setup_s"] = probes.median()
    else:
        phase = serve_phase(run_dir, seconds, seed)
    return {"metrics": phase["e2e"], "phases": {workload: phase}}


def traced(
    workload: str, run_dir: str, seconds: float, seed: int, spans_dir: str
) -> dict:
    """Every layer's metrics, plus the named workload's tracing overhead.

    The named workload runs untraced and then traced, for half the time
    each; the other two run traced for a quarter of it each, so that every
    traced run reports every layer.  Pool passes need no percentiles here,
    so ten of them suffice.  Each traced phase's spans are written to
    ``spans-<phase>.jsonl`` in ``spans_dir``, replacing the previous run's.
    """

    def run(name: str, share: float, recorder: SpanRecorder | None) -> dict:
        if name == "stream":
            return stream_phase(run_dir, share, seed, recorder)
        if name == "pool_file":
            return pool_phase(run_dir, share, seed, recorder, min_passes=10)
        return serve_phase(run_dir, share, seed, recorder)

    layers_of = {"stream": stream_layers, "pool_file": pool_layers, "serve": serve_layers}
    phases = {workload: run(workload, seconds / 2, None)}
    layers: dict[str, float] = {}
    for name in WORKLOADS:
        recorder = SpanRecorder()
        phase = run(name, seconds / 2 if name == workload else seconds / 4, recorder)
        layers.update(layers_of[name](phase, run_dir, seed, recorder))
        recorder.write(os.path.join(spans_dir, f"spans-{name}.jsonl"))
        phases[f"{name}.traced"] = phase
    untraced_rate = phases[workload]["e2e"]["elems_per_s"]
    traced_rate = phases[f"{workload}.traced"]["e2e"]["elems_per_s"]
    layers["tracing.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0
    return {"metrics": layers, "phases": phases}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--lib", required=True)
    parser.add_argument("--fingerprint", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    verify_build(args.lib, args.fingerprint)
    if args.trace:
        result = traced(args.workload, args.run_dir, args.seconds, args.seed, args.spans_dir)
    else:
        result = untraced(args.workload, args.run_dir, args.seconds, args.seed)
    phases = result["phases"]
    checks: dict[str, list] = {}
    for key, phase in phases.items():
        checks.setdefault(key.split(".")[0], []).append(phase["check"])
    out = {
        "metrics": result["metrics"],
        "attempted": sum(phase["attempted"] for phase in phases.values()),
        "failed": sum(phase["failed"] for phase in phases.values()),
        "errors": [e for phase in phases.values() for e in phase.get("errors", [])],
        "checks": checks,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
