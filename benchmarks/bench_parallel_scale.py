"""E11: multi-process parallel ingest — Section 6 on real processes.

The simulated parallel bench (``bench_parallel.py``) shows the
*protocol* is cheap; this one shows the *runtime* is real: a float64
file is byte-range partitioned across W worker processes
(:func:`repro.runtime.run_pool_on_file`), and we measure aggregate
ingest rate, bytes actually shipped over the result queue, and
coordinator merge time for W in {1, 2, 4}.  The simulated
:class:`~repro.core.parallel.ParallelQuantiles` is run on the *same*
per-worker slices so the real pool's accuracy is checked against both
the union ground truth and its single-process twin.

Two uses of the one pool engine run over the same worker grid:
one-shot runs (``workers`` rows — spawn, one pass, reap) and a reused
:class:`~repro.runtime.PersistentPool` (``workers_reused`` rows — one
pool across ``REUSED_PASSES`` passes, its one-time spawn excluded and
reported apart).  Every row carries a per-phase breakdown — spawn ms,
ingest ms, shipped bytes, merge ms — so a scaling regression points at
the phase that caused it.  The ``persistence`` block times alternating
one-shot and reused passes at 2 workers, caller-side, as medians and
quartiles.

Shape claims:

* every worker ships at most one full + one partial buffer — asserted
  from ``MergeReport.shipments``, i.e. measured on the wire;
* shipped bytes are tiny next to the input (KBs vs MBs);
* a reused pool gives quantiles bit-identical to a one-shot run under
  the same seed, pass after pass;
* a reused pool's median pass beats a one-shot pass;
* real and simulated pools are both within 2 eps of the union;
* with >= 4 physical cores, the 4-worker pool ingests >= 3x faster than
  the 1-worker pool and the reused pool scales monotonically (criteria
  recorded as skipped on smaller hosts — a 1-core container cannot
  exhibit multi-core scaling).

This file is also a standalone script::

    python benchmarks/bench_parallel_scale.py [--smoke] [--start-method M]

which writes the machine-readable ``BENCH_parallel_scale.json`` at the
repo root.  ``--smoke`` is the fast CI variant; criteria are reported
but only enforced in full runs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import statistics
import tempfile
import time

from conftest import format_table, report

from repro.core.parallel import ParallelQuantiles
from repro.core.params import plan_parameters
from repro.kernels import available_backends
from repro.runtime import PersistentPool, run_pool_on_file
from repro.stats.rank import rank_error
from repro.streams.diskfile import plan_byte_ranges, read_float_chunks, write_floats

EPS, DELTA = 0.01, 1e-3
WORKER_GRID = [1, 2, 4]
PHIS = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]

#: Full-run input size (the ISSUE's 4M-element file); smoke uses less.
FULL_N = 4_000_000
SMOKE_N = 200_000

#: Bytes shipped over the result queue per worker count in the committed
#: pre-arena full run (uncondensed snapshots, JSON-encoded buffer lists).
#: Condensed columnar v2 frames must cut every one of them by >= 3x.
PRE_ARENA_SHIPPED_BYTES = {1: 64_783, 2: 135_370, 4: 294_302}
SHIPPED_REDUCTION_REQUIRED = 3.0

#: Passes one reused pool runs per worker count (spawn paid once).
REUSED_PASSES = 10

#: Alternating one-shot/reused pairs timed in the persistence block.
PERSISTENCE_PAIRS = 12
PERSISTENCE_WORKERS = 2


def _make_file(directory: str, n: int, seed: int = 47) -> str:
    rng = random.Random(seed)
    path = os.path.join(directory, f"scale_{n}.f64")
    write_floats(path, (rng.random() for _ in range(n)))
    return path


def _pool_stats(result) -> dict:
    return {
        "elems_per_s": round(result.elements_per_second, 1),
        # Per-phase breakdown: where the wall time of one run went.
        "spawn_ms": round(result.spawn_seconds * 1_000, 3),
        "ingest_ms": round(result.ingest_seconds * 1_000, 3),
        "merge_ms": round(result.merge_seconds * 1_000, 3),
        "shipped_bytes": result.shipped_bytes,
        "shipped_buffers": result.report.shipped_buffers,
        "within_communication_bound": result.report.within_communication_bound,
        "weight_coverage": result.report.weight_coverage,
    }


def _reused_stats(results: list, pool_spawn_seconds: float) -> dict:
    """Median per-pass phases of one reused pool; spawn reported apart."""
    rows = [_pool_stats(result) for result in results]
    stats = dict(rows[-1])
    for key in ("elems_per_s", "spawn_ms", "ingest_ms", "merge_ms"):
        stats[key] = round(statistics.median(row[key] for row in rows), 3)
    stats["within_communication_bound"] = all(
        row["within_communication_bound"] for row in rows
    )
    stats["passes"] = len(results)
    stats["pool_spawn_ms"] = round(pool_spawn_seconds * 1_000, 3)
    return stats


def _spread(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def persistence_passes(
    path: str,
    *,
    workers: int = PERSISTENCE_WORKERS,
    pairs: int = PERSISTENCE_PAIRS,
    plan=None,
    backend: str | None = None,
    start_method: str | None = None,
    seed: int = 7,
) -> dict:
    """Caller-side wall ms of one-shot vs reused passes, alternating.

    Each pair runs one ``run_pool_on_file`` and one ``run_file`` on a
    pool spawned beforehand, swapping which goes first every pair.  Both
    use the same seed, so every answer must agree bit for bit.
    """
    plan = plan if plan is not None else plan_parameters(EPS, DELTA)
    options = dict(plan=plan, seed=seed, backend=backend)
    one_shot_ms: list[float] = []
    reused_ms: list[float] = []
    answers = set()
    with PersistentPool(workers, start_method=start_method, **options) as pool:
        pool.run_file(path, timeout=600)  # warm the workers once
        for pair in range(pairs):
            order = ("one-shot", "reused") if pair % 2 == 0 else ("reused", "one-shot")
            for mode in order:
                started = time.perf_counter()
                if mode == "one-shot":
                    result = run_pool_on_file(
                        path, workers, start_method=start_method, timeout=600,
                        **options,
                    )
                    one_shot_ms.append((time.perf_counter() - started) * 1_000)
                else:
                    result = pool.run_file(path, timeout=600)
                    reused_ms.append((time.perf_counter() - started) * 1_000)
                answers.add(tuple(result.query_many(PHIS)))
    return {
        "workers": workers,
        "pairs": pairs,
        "one_shot_pass_ms": _spread(one_shot_ms),
        "reused_pass_ms": _spread(reused_ms),
        "bit_identical": len(answers) == 1,
    }


def _worst_error(summary, union: list[float]) -> float:
    return max(
        rank_error(union, summary.query(phi), phi) / len(union) for phi in PHIS
    )


def _simulated_twin(path: str, workers: int, plan, seed: int) -> ParallelQuantiles:
    """The single-process simulation fed the exact per-worker slices."""
    pq = ParallelQuantiles(workers, plan=plan, seed=seed)
    for worker_id, (start, stop) in enumerate(plan_byte_ranges(path, workers)):
        for chunk in read_float_chunks(path, start=start, stop=stop):
            pq.extend(worker_id, chunk)
    return pq


def run_scale(
    n: int,
    *,
    backend: str | None = None,
    start_method: str | None = None,
    seed: int = 7,
) -> dict:
    """Measure the worker grid over one n-element file; return the report."""
    # Fastest available backend by default (native, else python): the
    # scaling question is about the process runtime, so the per-worker
    # kernels should not be the bottleneck being measured.
    if backend is None:
        backend = "native" if "native" in available_backends() else "python"
    plan_started = time.perf_counter()
    plan = plan_parameters(EPS, DELTA)
    plan_ms = (time.perf_counter() - plan_started) * 1_000
    out: dict = {
        "bench": "parallel_scale",
        "n": n,
        "eps": EPS,
        "delta": DELTA,
        "backend": backend,
        "cpu_count": os.cpu_count(),
        # Planning happens once in the coordinator and is shipped to the
        # workers as part of the work spec; it is never per-worker cost.
        "plan_ms": round(plan_ms, 3),
        "workers": {},
        "workers_reused": {},
    }
    with tempfile.TemporaryDirectory(prefix="repro-scale-") as tmp:
        path = _make_file(tmp, n)
        out["file_bytes"] = os.stat(path).st_size
        union: list[float] = []
        for chunk in read_float_chunks(path):
            union.extend(chunk)
        union.sort()
        result = None
        for workers in WORKER_GRID:
            result = run_pool_on_file(
                path,
                workers,
                plan=plan,
                seed=seed,
                backend=backend,
                start_method=start_method,
                timeout=600,
            )
            assert result.n == n
            stats = _pool_stats(result)
            stats["worst_err_over_n"] = round(_worst_error(result, union), 6)
            out["workers"][str(workers)] = stats
            with PersistentPool(
                workers,
                plan=plan,
                seed=seed,
                backend=backend,
                start_method=start_method,
            ) as pool:
                reused = [
                    pool.run_file(path, timeout=600)
                    for _ in range(REUSED_PASSES)
                ]
            assert all(again.n == n for again in reused)
            reused_stats = _reused_stats(reused, pool.spawn_seconds)
            reused_stats["worst_err_over_n"] = round(
                _worst_error(reused[-1], union), 6
            )
            # Same seed, reused workers: every pass must agree bit for bit
            # with the one-shot run, or persistence changed the math.
            reused_stats["bit_identical_to_oneshot"] = all(
                again.query_many(PHIS) == result.query_many(PHIS)
                for again in reused
            )
            out["workers_reused"][str(workers)] = reused_stats
        out["start_method"] = result.start_method
        out["persistence"] = persistence_passes(
            path, plan=plan, backend=backend, start_method=start_method, seed=seed
        )
        # Accuracy twin: the simulated pool on the same slices as the
        # widest real pool (folds bench_parallel's check into this bench).
        twin_started = time.perf_counter()
        twin = _simulated_twin(path, WORKER_GRID[-1], plan, seed)
        out["simulated_twin"] = {
            "workers": WORKER_GRID[-1],
            "worst_err_over_n": round(_worst_error(twin, union), 6),
            "seconds": round(time.perf_counter() - twin_started, 3),
        }
    rates = {w: out["workers"][str(w)]["elems_per_s"] for w in WORKER_GRID}
    reused_rates = {
        w: out["workers_reused"][str(w)]["elems_per_s"] for w in WORKER_GRID
    }
    speedup = rates[4] / rates[1]
    cores = out["cpu_count"] or 1
    shipped_reduction = min(
        PRE_ARENA_SHIPPED_BYTES[w] / out["workers"][str(w)]["shipped_bytes"]
        for w in WORKER_GRID
    )
    reused_monotone = all(
        reused_rates[b] >= reused_rates[a]
        for a, b in zip(WORKER_GRID, WORKER_GRID[1:])
    )
    persistence = out["persistence"]
    reused_median = persistence["reused_pass_ms"]["median"]
    one_shot_median = persistence["one_shot_pass_ms"]["median"]
    out["pre_arena_baseline"] = {
        "shipped_bytes": {str(w): PRE_ARENA_SHIPPED_BYTES[w] for w in WORKER_GRID}
    }
    out["criteria"] = {
        "per_worker_shipment_bound": {
            "measured": all(
                out[rows][str(w)]["within_communication_bound"]
                for rows in ("workers", "workers_reused")
                for w in WORKER_GRID
            ),
            "required": True,
            "pass": all(
                out[rows][str(w)]["within_communication_bound"]
                for rows in ("workers", "workers_reused")
                for w in WORKER_GRID
            ),
        },
        "real_pool_within_2eps": {
            "measured": max(
                out["workers"][str(w)]["worst_err_over_n"] for w in WORKER_GRID
            ),
            "required": 2 * EPS,
            "pass": all(
                out["workers"][str(w)]["worst_err_over_n"] <= 2 * EPS
                for w in WORKER_GRID
            ),
        },
        "simulated_twin_within_2eps": {
            "measured": out["simulated_twin"]["worst_err_over_n"],
            "required": 2 * EPS,
            "pass": out["simulated_twin"]["worst_err_over_n"] <= 2 * EPS,
        },
        # Condensed columnar shipping: worst-case (minimum) reduction in
        # queue bytes across the worker grid vs the pre-arena run.
        "shipped_bytes_reduction_vs_boxed": {
            "measured": round(shipped_reduction, 2),
            "required": SHIPPED_REDUCTION_REQUIRED,
            "pass": shipped_reduction >= SHIPPED_REDUCTION_REQUIRED,
        },
        "reused_bit_identical_to_oneshot": {
            "measured": persistence["bit_identical"]
            and all(
                out["workers_reused"][str(w)]["bit_identical_to_oneshot"]
                for w in WORKER_GRID
            ),
            "required": True,
            "pass": persistence["bit_identical"]
            and all(
                out["workers_reused"][str(w)]["bit_identical_to_oneshot"]
                for w in WORKER_GRID
            ),
        },
        # What persistence buys: no spawn, plan or reap per pass.
        "reused_pass_faster_than_oneshot": {
            "measured": {"reused_ms": reused_median, "one_shot_ms": one_shot_median},
            "required": "reused median < one-shot median",
            "pass": reused_median < one_shot_median,
        },
        "four_worker_speedup_vs_one": {
            "measured": round(speedup, 2),
            "required": 3.0,
            "pass": speedup >= 3.0,
            # Multi-core scaling cannot be exhibited on < 4 cores; the
            # measurement is still recorded, the criterion is waived.
            "skipped": cores < 4,
            "skip_reason": (
                f"host has {cores} core(s); >= 4 needed to measure scaling"
                if cores < 4
                else None
            ),
        },
        # Adding workers never makes a reused pool slower (monotone
        # elems/s over the grid, spawn excluded).
        "reused_monotone_speedup": {
            "measured": {str(w): reused_rates[w] for w in WORKER_GRID},
            "required": "monotone non-decreasing",
            "pass": reused_monotone,
            "skipped": cores < 4,
            "skip_reason": (
                f"host has {cores} core(s); >= 4 needed to measure scaling"
                if cores < 4
                else None
            ),
        },
    }
    return out


def _scale_table(result: dict) -> list[str]:
    rows = [
        [
            w,
            mode,
            f"{stats['elems_per_s']:,.0f}",
            f"{stats['spawn_ms']:.1f}",
            f"{stats['ingest_ms']:.1f}",
            f"{stats['merge_ms']:.2f}",
            str(stats["shipped_bytes"]),
            str(stats["shipped_buffers"]),
            f"{stats['worst_err_over_n']:.5f}",
        ]
        for table, mode in (("workers", "one-shot"), ("workers_reused", "reused"))
        for w, stats in result[table].items()
    ]
    lines = format_table(
        [
            "workers",
            "pool",
            "elems/s",
            "spawn ms",
            "ingest ms",
            "merge ms",
            "shipped bytes",
            "buffers",
            "worst err / N",
        ],
        rows,
    )
    lines.append("")
    lines.append(
        f"n={result['n']:,}  backend={result['backend']}  "
        f"start_method={result['start_method']}  cpus={result['cpu_count']}  "
        f"file={result['file_bytes']:,} bytes"
    )
    twin = result["simulated_twin"]
    lines.append(
        f"simulated twin ({twin['workers']} workers): worst err / N = "
        f"{twin['worst_err_over_n']:.5f} (budget {2 * EPS:g})"
    )
    persistence = result["persistence"]
    lines.append(
        f"{persistence['pairs']} alternating passes at "
        f"{persistence['workers']} workers, median [q1, q3] ms: "
        + "; ".join(
            f"{name} {spread['median']:.1f} [{spread['q1']:.1f}, "
            f"{spread['q3']:.1f}]"
            for name, spread in (
                ("one-shot", persistence["one_shot_pass_ms"]),
                ("reused", persistence["reused_pass_ms"]),
            )
        )
    )
    return lines


def test_parallel_scale_real_processes(benchmark):
    result = benchmark.pedantic(lambda: run_scale(60_000), rounds=1)
    report("e11_parallel_scale", _scale_table(result))
    criteria = result["criteria"]
    assert criteria["per_worker_shipment_bound"]["pass"]
    assert criteria["real_pool_within_2eps"]["pass"]
    assert criteria["simulated_twin_within_2eps"]["pass"]
    # Reuse-independent correctness is hardware-independent: assert it
    # even on small hosts.
    assert criteria["reused_bit_identical_to_oneshot"]["pass"]
    # Speedup is hardware-dependent; under pytest only the recorded shape
    # is checked (the standalone full run enforces it on capable hosts).
    assert criteria["four_worker_speedup_vs_one"]["measured"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Real-process parallel ingest scaling -> "
        "BENCH_parallel_scale.json"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small-n fast run (CI); criteria are reported but not enforced",
    )
    parser.add_argument(
        "--start-method",
        choices=["fork", "spawn", "forkserver"],
        default=None,
        help="multiprocessing start method (default: platform default)",
    )
    parser.add_argument(
        "--enforce-monotone",
        action="store_true",
        help="fail (even under --smoke) if the reused pool's elems/s is "
        "not monotone over the worker grid; no-op on < 4-core hosts, "
        "where the criterion is recorded as skipped",
    )
    parser.add_argument(
        "--out",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent
            / "BENCH_parallel_scale.json"
        ),
        help="output path (default: <repo root>/BENCH_parallel_scale.json)",
    )
    args = parser.parse_args(argv)
    result = run_scale(
        SMOKE_N if args.smoke else FULL_N, start_method=args.start_method
    )
    result["smoke"] = args.smoke
    pathlib.Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    if not args.smoke:
        failed = [
            name
            for name, criterion in result["criteria"].items()
            if not criterion["pass"] and not criterion.get("skipped")
        ]
        if failed:
            print(f"FAILED criteria: {failed}")
            return 1
    if args.enforce_monotone:
        monotone = result["criteria"]["reused_monotone_speedup"]
        if not monotone["pass"] and not monotone.get("skipped"):
            print(
                "FAILED criteria: ['reused_monotone_speedup'] "
                f"(rates: {monotone['measured']})"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
