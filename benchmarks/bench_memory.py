"""E10: actual process memory of the summaries (tracemalloc).

The paper counts memory in stored elements; a Python adopter wants bytes.
This bench builds each summary over the same 200k-element stream inside a
tracemalloc window and reports the allocated bytes that survive, next to
the abstract element count.

Shape claims: the byte ordering matches the element ordering (GK < MRL99
sketch << reservoir << exact), and the sketch's bytes-per-claimed-element
stays within a small constant (no hidden superlinear overhead).

This file is also a standalone script: ``python benchmarks/bench_memory.py``
measures the columnar arena against the pre-arena boxed layout (one
``list[float]`` of python float objects per buffer) on identical element
counts, records the tracemalloc ingest peak, and writes the
machine-readable ``BENCH_memory.json`` at the repo root.  Use ``--smoke``
for the fast CI variant.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import tracemalloc

from conftest import format_table, report

from repro.baselines.gk import GKQuantiles
from repro.core.arena import BUFFER_METADATA_BYTES, FLOAT_BYTES
from repro.core.unknown_n import UnknownNQuantiles
from repro.sampling.reservoir import ReservoirSampler
from repro.stats.bounds import reservoir_sample_size

EPS, DELTA = 0.01, 1e-4
N = 200_000


def _warm_backends() -> None:
    """Trigger lazy backend imports before any tracemalloc window opens.

    The first estimator construction imports the kernel backend module;
    measured inside the window that import machinery would be charged to
    the estimator.
    """
    warm = UnknownNQuantiles(eps=0.1, delta=0.01, seed=0)
    warm.update_batch([0.25, 0.5, 0.75])


def measure(build):
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    holder = build()
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return holder, max(0, current - before), max(0, peak - before)


def run():
    _warm_backends()
    rng = random.Random(3)
    data = [rng.random() for _ in range(N)]

    def build_sketch():
        est = UnknownNQuantiles(eps=EPS, delta=DELTA, seed=4)
        for value in data:
            est.update(value)
        return est

    def build_gk():
        gk = GKQuantiles(EPS)
        gk.extend(data)
        return gk

    def build_reservoir():
        sampler = ReservoirSampler(reservoir_sample_size(EPS, DELTA), random.Random(5))
        for value in data:
            sampler.update(value)
        return sampler

    def build_exact():
        return sorted(data)

    results = {}
    for name, build in (
        ("gk01", build_gk),
        ("mrl99 sketch", build_sketch),
        ("reservoir", build_reservoir),
        ("exact copy", build_exact),
    ):
        holder, allocated, _ = measure(build)
        if hasattr(holder, "memory_elements"):
            elements = holder.memory_elements
        else:
            elements = len(holder)
        results[name] = (elements, allocated)
    return results


def test_real_memory_footprint(benchmark):
    results = benchmark.pedantic(run, rounds=1)
    rows = [
        [name, str(elements), f"{allocated / 1024:.0f} KiB"]
        for name, (elements, allocated) in results.items()
    ]
    lines = format_table(["summary", "claimed elements", "allocated bytes"], rows)
    lines.append("")
    lines.append(f"uniform stream, N={N}, eps={EPS}, delta={DELTA}")
    report("e10_real_memory", lines)

    ordering = [results[name][1] for name in ("gk01", "mrl99 sketch", "reservoir", "exact copy")]
    assert ordering == sorted(ordering)
    sketch_elements, sketch_bytes = results["mrl99 sketch"]
    # The columnar arena stores elements at 8 bytes each; allow a small
    # constant factor for buffer metadata, the plan, and the RNG.
    assert sketch_bytes <= sketch_elements * 24


# ----------------------------------------------------------------------
# Standalone arena-vs-boxed report: writes BENCH_memory.json at repo root
# ----------------------------------------------------------------------


def _build_boxed(b: int, k: int, rng: random.Random) -> list[list[float]]:
    """The pre-arena storage layout: one boxed python list per buffer.

    Fresh ``rng.random()`` results guarantee every element is a distinct
    float object (as streamed data is), so tracemalloc charges the full
    per-object cost the old layout actually paid.
    """
    return [[rng.random() for _ in range(k)] for _ in range(b)]


def run_memory_report(n: int) -> dict:
    """Measure arena vs boxed storage on identical element counts."""
    _warm_backends()
    rng = random.Random(3)
    data = [rng.random() for _ in range(n)]

    def build_sketch():
        est = UnknownNQuantiles(eps=EPS, delta=DELTA, seed=4)
        est.update_batch(data)
        return est

    est, est_resident, est_peak = measure(build_sketch)
    plan = est.plan
    boxed, boxed_resident, _ = measure(
        lambda: _build_boxed(plan.b, plan.k, random.Random(9))
    )
    boxed_elements = sum(len(column) for column in boxed)
    arena_bytes = est.engine.arena.nbytes
    bound = (
        plan.b * plan.k * FLOAT_BYTES
        + plan.b * BUFFER_METADATA_BYTES
        + plan.k * FLOAT_BYTES
    )
    reduction = boxed_resident / arena_bytes if arena_bytes else float("inf")
    out = {
        "bench": "memory",
        "n": n,
        "eps": EPS,
        "delta": DELTA,
        "plan": {"b": plan.b, "k": plan.k},
        "arena": {
            "store_bytes": arena_bytes,
            "memory_bytes": est.memory_bytes,
            "memory_elements": est.memory_elements,
            "tracemalloc_resident_bytes": est_resident,
            "tracemalloc_ingest_peak_bytes": est_peak,
        },
        "boxed_baseline": {
            "elements": boxed_elements,
            "tracemalloc_resident_bytes": boxed_resident,
            "bytes_per_element": round(boxed_resident / boxed_elements, 2),
        },
        "criteria": {
            # The tentpole claim: the same b*k element slots at 8 bytes
            # each instead of boxed float objects behind pointer arrays.
            "arena_vs_boxed_resident_reduction": {
                "measured": round(reduction, 2),
                "required": 3.0,
                "pass": reduction >= 3.0,
            },
            # The provable ceiling: arena + O(b) metadata + O(k) staging.
            "memory_bytes_within_arena_bound": {
                "measured": est.memory_bytes,
                "required": bound,
                "pass": est.memory_bytes <= bound,
            },
        },
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Columnar arena vs boxed storage -> BENCH_memory.json"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small-n fast run (CI); criteria are reported but not enforced",
    )
    parser.add_argument(
        "--out",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent / "BENCH_memory.json"
        ),
        help="output path (default: <repo root>/BENCH_memory.json)",
    )
    args = parser.parse_args(argv)
    result = run_memory_report(50_000 if args.smoke else N)
    result["smoke"] = args.smoke
    pathlib.Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    if not args.smoke:
        failed = [
            name
            for name, criterion in result["criteria"].items()
            if not criterion["pass"]
        ]
        if failed:
            print(f"FAILED criteria: {failed}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
