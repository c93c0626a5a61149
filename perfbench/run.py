#!/usr/bin/env python3
"""The repository's benchmark: build the commit under test, run one workload, check it.

Run from the repository root::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 40 --trace 0

Steps, in order:

1. Build the package with its native extension into
   ``.bench_build/perfbench/lib-<fingerprint>`` (``REPRO_REQUIRE_NATIVE=1``),
   keyed by a hash of ``src/``, ``setup.py`` and ``pyproject.toml``, so a
   build is reused only for identical sources.  No sources, no compiler or
   a failed build ends the run with a non-zero exit before any timing.
2. Generate the workload's inputs from ``--seed``.
3. Run ``workloads.py`` in a fresh interpreter that sees only that build
   (``PYTHONPATH``), with ``PYTHONHASHSEED`` fixed.
4. Check every answer against exact ranks of the generated inputs.
5. Print one JSON line: ``correct``, ``attempted``, ``failed`` and the
   metrics named in ``BENCHMARK.json`` (end-to-end with ``--trace 0``,
   per-layer with ``--trace 1``), each with its unit.  A traced run also
   leaves its spans in ``.bench_build/perfbench/spans-<workload>.jsonl``.

Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from array import array
from bisect import bisect_left, bisect_right

from procs import kill_session

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("stream", "pool_file", "serve")
#: Values in the seeded input pool: 64 batches of 64 Ki values, 32 MiB.
POOL_VALUES = 64 * 65_536
#: The pool_file input is the pool repeated this many times (256 MiB).
FILE_COPIES = 8
SERVE_TENANTS, SERVE_LINES, SERVE_BATCH = 8, 32, 64
#: Requests in the serve schedule, cycled: 4 ingests to 1 query_many, each
#: for a tenant drawn from all eight, so about half take the forward hop.
SERVE_SCHEDULE = 6_000


def child_timeout(seconds: int) -> float:
    """Seconds a workload process may take to hand back its result.

    An untraced pool_file run measures for up to 3 x ``seconds`` to reach
    its minimum pass count; the margin covers warm-up, setup probes,
    server spawns and the traced run's outside-timed layer measurements.
    """
    return 3 * seconds + 45.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    return 2


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------

def source_fingerprint() -> str:
    """SHA-256 over the package sources and build files of the checkout."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "setup.py"), os.path.join(ROOT, "pyproject.toml")]
    source = os.path.join(ROOT, "src", "repro")
    if not os.path.isdir(source):
        raise FileNotFoundError(f"no package sources at {source}")
    for dirpath, dirnames, filenames in os.walk(source):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        files.extend(
            os.path.join(dirpath, name)
            for name in sorted(filenames)
            if not name.endswith((".pyc", ".so"))
        )
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def build(fingerprint: str) -> str:
    """The package build for ``fingerprint``, compiling it when missing."""
    lib = os.path.join(BUILD_ROOT, f"lib-{fingerprint[:16]}")
    if os.path.exists(os.path.join(lib, ".complete")):
        return lib
    os.makedirs(BUILD_ROOT, exist_ok=True)
    for entry in os.listdir(BUILD_ROOT):
        if entry.startswith(("lib-", "obj-")):
            shutil.rmtree(os.path.join(BUILD_ROOT, entry))
    staging, objects = lib + ".partial", os.path.join(BUILD_ROOT, "obj-build")
    shutil.copytree(
        os.path.join(ROOT, "src", "repro"),
        os.path.join(staging, "repro"),
        ignore=shutil.ignore_patterns("__pycache__", "*.pyc", "*.so"),
    )
    env = dict(os.environ, REPRO_REQUIRE_NATIVE="1")
    steps = [
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", staging, "--build-temp", objects],
        [sys.executable, "-m", "compileall", "-q", staging],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(
                f"build step {' '.join(step[1:3])} failed:\n{done.stdout}{done.stderr}"
            )
    shutil.rmtree(objects)
    with open(os.path.join(staging, ".complete"), "w", encoding="utf-8") as handle:
        handle.write(fingerprint + "\n")
    os.rename(staging, lib)
    return lib


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def make_inputs(run_dir: str, workloads: set[str], seed: int) -> dict:
    """Write the seeded inputs; returns what the exact-rank checks need."""
    rng = random.Random(f"perfbench:{seed}")
    truth: dict = {}
    if workloads & {"stream", "pool_file"}:
        pool = array("d")
        for _ in range(POOL_VALUES // 65_536):
            pool.extend([rng.random() for _ in range(65_536)])
        with open(os.path.join(run_dir, "base.f64"), "wb") as handle:
            pool.tofile(handle)
        if "pool_file" in workloads:
            with open(os.path.join(run_dir, "data.f64"), "wb") as handle:
                for _ in range(FILE_COPIES):
                    pool.tofile(handle)
        truth["pool"] = array("d", sorted(pool))
    if "serve" in workloads:
        lines = [
            [[rng.lognormvariate(0.0, 1.0) for _ in range(SERVE_BATCH)]
             for _ in range(SERVE_LINES)]
            for _ in range(SERVE_TENANTS)
        ]
        # Slots 0-3 are local to the entry shard and 4-7 forwarded.
        schedule = [
            [rng.randrange(SERVE_TENANTS), int(i % 5 == 4), rng.randrange(SERVE_LINES)]
            for i in range(SERVE_SCHEDULE)
        ]
        with open(os.path.join(run_dir, "serve.json"), "w", encoding="utf-8") as handle:
            json.dump({"lines": lines, "schedule": schedule}, handle)
        truth["serve"] = [[sorted(line) for line in tenant] for tenant in lines]
    return truth


# ----------------------------------------------------------------------
# Exact-rank checks
# ----------------------------------------------------------------------

def rank_error(lo: int, hi: int, target: float) -> float:
    """Distance from ``target`` to the rank interval ``(lo, hi]`` of an answer."""
    return max(lo + 1 - target, target - hi, 0.0)


def check_pool_answers(sorted_pool, copies: int, answers, phis, tolerance) -> list[str]:
    n = copies * len(sorted_pool)
    problems = []
    for phi, answer in zip(phis, answers):
        lo = copies * bisect_left(sorted_pool, answer)
        hi = copies * bisect_right(sorted_pool, answer)
        error = rank_error(lo, hi, phi * n)
        if error > tolerance * n + 1:
            problems.append(f"phi={phi:g} answer={answer!r} off by {error:.0f} of {n}")
    return problems


def check(workload: str, result: list, truth: dict) -> list[str]:
    phis = [i / 100 for i in range(1, 100)]
    problems: list[str] = []
    for part in result:
        if workload == "stream":
            for cycles, answers in part["points"]:
                problems += check_pool_answers(
                    truth["pool"], cycles, answers, phis, part["eps"]
                )
        elif workload == "pool_file":
            if not part["bound_ok"]:
                problems.append("a worker shipped more than 1 full + 1 partial buffer")
            if part["n"] != FILE_COPIES * len(truth["pool"]):
                problems.append(f"pool merged {part['n']} values")
            for answers in part["answers"]:
                problems += check_pool_answers(
                    truth["pool"], FILE_COPIES, answers, phis,
                    part["factor"] * part["eps"],
                )
        else:
            serve_phis = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
            for lines, tenant in zip(truth["serve"], part["tenants"]):
                counts = tenant["counts"]
                n = SERVE_BATCH * sum(counts)
                if tenant["n"] != n or not tenant["answers"]:
                    problems.append(f"a tenant holds {tenant['n']} values, not {n}")
                    continue
                for phi, answer in zip(serve_phis, tenant["answers"]):
                    lo = sum(c * bisect_left(line, answer) for c, line in zip(counts, lines))
                    hi = sum(c * bisect_right(line, answer) for c, line in zip(counts, lines))
                    error = rank_error(lo, hi, phi * n)
                    if error > tenant["eps"] * n + 1:
                        problems.append(
                            f"serve phi={phi:g} answer={answer!r} off by {error:.0f} of {n}"
                        )
    return problems


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def run_child(args, lib: str, fingerprint: str, run_dir: str) -> dict:
    out = os.path.join(run_dir, "result.json")
    env = dict(os.environ, PYTHONPATH=lib, PYTHONHASHSEED="0", REPRO_REQUIRE_NATIVE="1")
    env.pop("REPRO_BACKEND", None)
    command = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", args.workload, "--run-dir", run_dir, "--lib", lib,
        "--fingerprint", fingerprint, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans-dir", BUILD_ROOT, "--out", out,
    ]
    timeout = child_timeout(args.seconds)
    child = subprocess.Popen(command, cwd=HERE, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    # Nothing the workload started (pool workers, servers) may outlive it.
    kill_session(child.pid)
    child.wait()
    if code is None:
        raise RuntimeError(f"workload did not finish within {timeout:g}s")
    if code != 0:
        raise RuntimeError(f"workload process exited with code {code}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        fingerprint = source_fingerprint()
        lib = build(fingerprint)
    except (OSError, RuntimeError, ValueError) as exc:
        return fail(f"cannot build the commit under test: {exc}")
    run_dir = os.path.join(BUILD_ROOT, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        needed = set(WORKLOADS) if args.trace else {args.workload}
        truth = make_inputs(run_dir, needed, args.seed)
        try:
            child = run_child(args, lib, fingerprint, run_dir)
        except (OSError, RuntimeError, ValueError) as exc:
            return fail(str(exc))
        problems = []
        for workload, parts in child["checks"].items():
            problems += check(workload, parts, truth)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in [*problems[:20], *child["errors"]]:
        print(f"perfbench: {line}", file=sys.stderr)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in child["metrics"]]
    if missing:
        return fail(f"workload did not report {missing}")
    metrics = {
        m["name"]: {"value": child["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": not problems and child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
