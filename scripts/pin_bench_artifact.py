#!/usr/bin/env python3
"""Pin a bench artifact into ``benchmarks/results/`` with provenance.

The checked-in bench results are *measurements*, never hand-edits: each
file under ``benchmarks/results/BENCH_*.json`` must be the verbatim
output of the bench that produced it, plus one ``pinned`` provenance
block recording where the numbers came from.  The refresh workflow is:

1. let CI produce the artifact (every bench job uploads its
   ``BENCH_*.json``; the multi-core numbers specifically must come from
   the 4-vCPU ``service-scale`` / ``parallel-smoke`` jobs — a 1-core
   dev container cannot measure scaling and its criteria self-record
   as skipped);
2. download the artifact and pin it::

       python scripts/pin_bench_artifact.py BENCH_service.json \\
           --source https://github.com/<org>/<repo>/actions/runs/<id>

   which validates the payload and copies it into
   ``benchmarks/results/`` with the provenance block attached;
3. commit the result.  ``--check`` (run in CI) re-validates every
   pinned file, so a hand-edited or criteria-failing artifact cannot
   land silently.

The validator refuses to pin an artifact whose criteria contain a
failure that is not explicitly skip-recorded: failed criteria belong in
a fixed bench run, not in the repo's record of its own performance.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"

#: Artifacts this script knows how to pin, with the top-level keys a
#: genuine run of the producing bench always emits.
KNOWN_ARTIFACTS: dict[str, list[str]] = {
    "BENCH_parallel_scale.json": ["bench", "workers", "workers_reused", "criteria"],
    "BENCH_service.json": ["smoke", "mode"],
    "BENCH_throughput.json": ["smoke"],
    "BENCH_memory.json": ["smoke"],
}


def _criteria_blocks(payload: Any, path: str = "$") -> list[tuple[str, dict]]:
    """Every ``criteria`` mapping anywhere in the payload, with its path."""
    blocks: list[tuple[str, dict]] = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            here = f"{path}.{key}"
            if key == "criteria" and isinstance(value, dict):
                blocks.append((here, value))
            else:
                blocks.extend(_criteria_blocks(value, here))
    elif isinstance(payload, list):
        for i, value in enumerate(payload):
            blocks.extend(_criteria_blocks(value, f"{path}[{i}]"))
    return blocks


def validate(name: str, payload: Any) -> list[str]:
    """Problems that make ``payload`` unpinnable as artifact ``name``."""
    problems: list[str] = []
    if name not in KNOWN_ARTIFACTS:
        return [f"unknown artifact {name!r}; known: {sorted(KNOWN_ARTIFACTS)}"]
    if not isinstance(payload, dict):
        return [f"{name}: top level must be a JSON object"]
    for key in KNOWN_ARTIFACTS[name]:
        if key not in payload:
            problems.append(
                f"{name}: missing top-level key {key!r} — is this really "
                "the bench's own output?"
            )
    for where, block in _criteria_blocks(payload):
        for criterion, entry in block.items():
            if not isinstance(entry, dict) or "pass" not in entry:
                continue
            if not entry["pass"] and not entry.get("skipped"):
                problems.append(
                    f"{name}: criterion {criterion!r} at {where} failed and "
                    "is not skip-recorded; fix the regression (or the "
                    "bench) instead of pinning the failure"
                )
            if entry.get("skipped") and not entry.get("skip_reason"):
                problems.append(
                    f"{name}: criterion {criterion!r} at {where} is skipped "
                    "without a skip_reason; skips must say why"
                )
    return problems


def pin(source_path: Path, source: str) -> int:
    name = source_path.name
    try:
        payload = json.loads(source_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"cannot read {source_path}: {exc}", file=sys.stderr)
        return 1
    problems = validate(name, payload)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    payload["pinned"] = {
        "source": source,
        "pinned_on": datetime.date.today().isoformat(),
        "tool": "scripts/pin_bench_artifact.py",
    }
    destination = RESULTS_DIR / name
    destination.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"pinned {source_path} -> {destination} (source: {source})")
    return 0


def check() -> int:
    """Validate every pinned artifact currently in benchmarks/results/."""
    failures = 0
    checked = 0
    for name in sorted(KNOWN_ARTIFACTS):
        pinned_path = RESULTS_DIR / name
        if not pinned_path.exists():
            continue
        checked += 1
        try:
            payload = json.loads(pinned_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"{pinned_path}: unreadable: {exc}", file=sys.stderr)
            failures += 1
            continue
        problems = validate(name, payload)
        if isinstance(payload, dict) and "pinned" not in payload:
            problems.append(
                f"{name}: no `pinned` provenance block; re-pin it through "
                "this script so the source run is on record"
            )
        for problem in problems:
            print(f"{pinned_path}: {problem}", file=sys.stderr)
        failures += len(problems)
    print(f"checked {checked} pinned artifact(s), {failures} problem(s)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifact",
        nargs="?",
        help="path to a downloaded BENCH_*.json artifact to pin",
    )
    parser.add_argument(
        "--source",
        help=(
            "where the numbers came from: the CI run URL for multi-core "
            "artifacts, or an explicit host description for local runs"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate every artifact already pinned in benchmarks/results/",
    )
    args = parser.parse_args(argv)
    if args.check:
        if args.artifact:
            parser.error("--check takes no artifact argument")
        return check()
    if not args.artifact:
        parser.error("an artifact path is required (or use --check)")
    if not args.source:
        parser.error("--source is required when pinning: record the run")
    return pin(Path(args.artifact), args.source)


if __name__ == "__main__":
    raise SystemExit(main())
