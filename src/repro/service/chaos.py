"""Deterministic chaos injection for the serving tier.

The same philosophy as the pool's ``fail_after``: a chaos plan is a
*script*, keyed by deterministic sequence numbers rather than timers or
randomness, so every chaos test replays identically and the
assertion can be exact ("request 3 sees 50 ms of injected latency; the
connection serving request 5 is reset; the apply of batch 2 crashes")
instead of probabilistic.

Faults the middleware can inject, each mapped to the seam it attacks:

* ``latency_at``     — hold a request for a scripted delay before the
  handler runs (slow dependency / GC pause / network jitter);
* ``reset_at``       — abort the connection instead of responding
  (peer crash / LB connection churn); the *server-side* work still
  completes, which is exactly what an at-least-once client must expect;
* ``crash_at``       — raise :class:`ChaosCrash` inside the handler; the
  dispatcher must map it to an explicit ``internal`` error response
  (the replint ``service-hygiene`` pass forbids swallowing it);
* ``apply_crash_at`` — fail the ingest worker's apply of the scripted
  batch, which is what trips a tenant's circuit breaker in tests;
* ``die_at``         — hard ``os._exit`` mid-request, a stand-in for
  SIGKILL, for crash-safe-restart tests.

Request sequence numbers count every decoded request, 0-based, in
arrival order; apply sequence numbers count applied batches, 0-based,
across all tenants.  One plan instance is single-use (faults fire once).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

__all__ = ["ChaosCrash", "ChaosPlan", "CHAOS_EXIT_CODE"]

#: Exit code of an injected mid-request death (mirrors the pool's fault
#: exit code so operators can tell injected deaths from real ones).
CHAOS_EXIT_CODE = 70


class ChaosCrash(Exception):
    """An injected handler failure; must surface as an explicit error."""

    def __init__(self, seq: int, where: str) -> None:
        super().__init__(f"chaos: injected crash in {where} (seq {seq})")
        self.seq = seq
        self.where = where


@dataclass
class ChaosPlan:
    """A deterministic script of service-level faults.

    :ivar latency_at: ``{request_seq: seconds}`` — injected delay before
        the handler runs.
    :ivar reset_at: request seqs whose connection is aborted instead of
        answered.
    :ivar crash_at: request seqs whose handler raises :class:`ChaosCrash`.
    :ivar apply_crash_at: applied-batch seqs whose ingest apply fails.
    :ivar die_at: request seq at which the whole process hard-exits
        (``os._exit``), simulating SIGKILL mid-request.
    """

    latency_at: dict[int, float] = field(default_factory=dict)
    reset_at: frozenset[int] | set[int] = field(default_factory=frozenset)
    crash_at: frozenset[int] | set[int] = field(default_factory=frozenset)
    apply_crash_at: frozenset[int] | set[int] = field(default_factory=frozenset)
    die_at: int | None = None

    def __post_init__(self) -> None:
        self._request_seq = 0
        self._apply_seq = 0
        self._fired_latency: set[int] = set()
        self._fired_crashes: set[int] = set()
        self._fired_applies: set[int] = set()

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ChaosPlan":
        """Build a plan from plain JSON data (the ``--chaos`` file)."""
        known = {
            "latency_at",
            "reset_at",
            "crash_at",
            "apply_crash_at",
            "die_at",
        }
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown chaos plan keys: {unknown}")
        return cls(
            latency_at={
                int(seq): float(delay)
                for seq, delay in raw.get("latency_at", {}).items()
            },
            reset_at=frozenset(int(seq) for seq in raw.get("reset_at", ())),
            crash_at=frozenset(int(seq) for seq in raw.get("crash_at", ())),
            apply_crash_at=frozenset(
                int(seq) for seq in raw.get("apply_crash_at", ())
            ),
            die_at=(int(raw["die_at"]) if raw.get("die_at") is not None else None),
        )

    @classmethod
    def from_file(cls, path: str | os.PathLike[str]) -> "ChaosPlan":
        """Load a JSON chaos plan (what ``repro serve --chaos`` reads)."""
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError(f"chaos plan must be a JSON object, got {raw!r}")
        return cls.from_dict(raw)

    # -- request-path hooks (called by the server dispatcher) ----------

    def next_request_seq(self) -> int:
        """Allocate the next request sequence number."""
        seq = self._request_seq
        self._request_seq += 1
        return seq

    def take_latency(self, seq: int) -> float:
        """Scripted delay for this request (0.0 when none); fires once."""
        if seq in self._fired_latency:
            return 0.0
        delay = self.latency_at.get(seq, 0.0)
        if delay > 0.0:
            self._fired_latency.add(seq)
        return delay

    def takes_reset(self, seq: int) -> bool:
        """Whether this request's connection should be aborted."""
        return seq in self.reset_at

    def maybe_crash(self, seq: int, where: str) -> None:
        """Raise the scripted handler crash for this request; fires once."""
        if seq in self.crash_at and seq not in self._fired_crashes:
            self._fired_crashes.add(seq)
            raise ChaosCrash(seq, where)

    def maybe_die(self, seq: int) -> None:
        """Hard-exit the process at the scripted request (SIGKILL twin)."""
        if self.die_at is not None and seq == self.die_at:
            os._exit(CHAOS_EXIT_CODE)

    # -- ingest-path hooks (called by the tenant apply worker) ---------

    def next_apply_seq(self) -> int:
        """Allocate the next applied-batch sequence number."""
        seq = self._apply_seq
        self._apply_seq += 1
        return seq

    def maybe_apply_crash(self, seq: int, tenant: str) -> None:
        """Raise the scripted ingest-apply failure; fires once per seq."""
        if seq in self.apply_crash_at and seq not in self._fired_applies:
            self._fired_applies.add(seq)
            raise ChaosCrash(seq, f"ingest apply for tenant {tenant!r}")
