"""E-R: recovery cost vs checkpoint interval on the serving tier's chains.

Eight tenants of one in-process
:class:`~repro.service.tenants.TenantRegistry` — the store behind
``repro serve`` — each take every eighth element of the same stream, and
two of them crash mid-stream at fixed points.  A tenant checkpoints
(``registry.flush``: one rotating checkpoint chain per tenant) every
``interval`` elements, or never.  A crash discards the tenant's estimator
and restores it the way a rebooted server does: a fresh registry over the
same directory runs ``restore_all()``, and the tenant replays its stream
from the restored ``n``.  The eight snapshots are then merged with
``merge_snapshots``.  Shape claims:

* replayed work falls as the interval shrinks — each crash costs at most
  one interval of replay;
* checkpoint count rises in proportion as the interval shrinks (the
  durability/overhead trade);
* accuracy is *invariant*: restore is bit-identical, RNG state included,
  so every configuration (no checkpointing too) answers identically, and
  coverage is always 1.0.
"""

from __future__ import annotations

import random
import tempfile
from typing import NamedTuple

from conftest import format_table, report

from repro.core.parallel import MergedSummary, merge_snapshots
from repro.service.tenants import TenantRegistry
from repro.stats.rank import rank_error

EPS, DELTA = 0.02, 1e-3
NUM_TENANTS = 8
STREAM_N = 160_000
CRASHES = {2: 15_300, 5: 6_700}  # off the checkpoint grid: replay is real
INTERVALS = [None, 16_000, 4_000, 1_000, 250]  # None = no checkpointing
PHIS = [0.1, 0.5, 0.9, 0.99]
SEED = 33


class Run(NamedTuple):
    interval: int | None
    summary: MergedSummary
    checkpoints: int
    replayed: int
    restarts: int
    worst: float


def _registry(checkpoint_dir):
    return TenantRegistry(checkpoint_dir, eps=EPS, delta=DELTA, master_seed=SEED)


def run_interval(streams, interval, checkpoint_dir):
    """Ingest every tenant through its crash; merge what they hold.

    Returns the merged summary, checkpoints written, elements replayed
    and restarts.
    """
    registry = _registry(checkpoint_dir)
    flushes = replayed = restarts = 0
    snapshots = []
    for tenant, stream in enumerate(streams):
        name = f"shard-{tenant}"
        state = registry.get_or_create(name)
        crash_at = CRASHES.get(tenant)
        while state.n < len(stream):
            stop = len(stream)
            if interval is not None:
                stop = min(stop, (state.n // interval + 1) * interval)
            if crash_at is not None:
                stop = min(stop, crash_at)
            state.estimator.update_batch(stream[state.n : stop])
            if interval is not None and state.n % interval == 0:
                registry.flush(state)
                flushes += 1
            if state.n == crash_at:
                # The process dies with the estimator; the reboot restores
                # every chain it finds and this tenant replays its tail.
                registry = _registry(checkpoint_dir)
                registry.restore_all()
                state = registry.get_or_create(name)
                replayed += crash_at - state.n
                restarts += 1
                crash_at = None
        snapshots.append(state.estimator.snapshot())
    summary = merge_snapshots(
        snapshots, seed=SEED, expected_n=sum(len(s) for s in streams)
    )
    return summary, flushes, replayed, restarts


def run_all():
    rng = random.Random(42)
    data = [rng.random() for _ in range(STREAM_N)]
    streams = [data[tenant::NUM_TENANTS] for tenant in range(NUM_TENANTS)]
    union = sorted(data)
    results = []
    for interval in INTERVALS:
        with tempfile.TemporaryDirectory() as tmp_dir:
            counters = run_interval(
                streams, interval, None if interval is None else tmp_dir
            )
        summary = counters[0]
        worst = max(
            rank_error(union, summary.query(phi), phi) / len(union) for phi in PHIS
        )
        results.append(Run(interval, *counters, worst))
    return results


def test_recovery_cost_vs_checkpoint_interval(benchmark):
    results = benchmark.pedantic(run_all, rounds=1)
    rows = []
    answers = set()
    for run in results:
        assert run.restarts == len(CRASHES)
        assert run.summary.report.weight_coverage == 1.0
        answers.add(tuple(run.summary.query_many(PHIS)))
        rows.append(
            [
                "off" if run.interval is None else str(run.interval),
                str(run.checkpoints),
                str(run.replayed),
                f"{run.replayed / STREAM_N:.4f}",
                f"{run.worst:.5f}",
                f"{run.summary.report.weight_coverage:g}",
            ]
        )

    # Shape claim 1: accuracy is invariant — bit-identical restore means
    # every interval (and no checkpointing at all) answers identically.
    assert len(answers) == 1
    assert max(run.worst for run in results) <= 2 * EPS

    # Shape claim 2: replay falls monotonically as the interval shrinks,
    # and each crash costs at most one interval of replay.
    replays = [run.replayed for run in results]
    assert all(a >= b for a, b in zip(replays, replays[1:]))
    for run in results:
        if run.interval is not None:
            assert run.replayed <= len(CRASHES) * run.interval

    # Shape claim 3: durability overhead rises as the interval shrinks.
    checkpoint_counts = [run.checkpoints for run in results]
    assert all(a <= b for a, b in zip(checkpoint_counts, checkpoint_counts[1:]))

    lines = format_table(
        [
            "ckpt interval",
            "ckpts written",
            "replayed",
            "replay / N",
            "worst err / N",
            "coverage",
        ],
        rows,
    )
    lines.append("")
    lines.append(
        f"{NUM_TENANTS} tenants of one TenantRegistry, N={STREAM_N}, crashes at "
        + ", ".join(f"shard-{s}: n={n}" for s, n in sorted(CRASHES.items()))
    )
    report("er_recovery_cost", lines)
