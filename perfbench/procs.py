"""Process-table helpers over ``/proc`` (Linux), shared by run.py and workloads.py."""

from __future__ import annotations

import os
import signal
import time

__all__ = ["child_pids", "kill_session", "vm_hwm_mib"]


def _stat_fields() -> dict[int, list[str]]:
    """``/proc/<pid>/stat`` fields after the command name, per live pid.

    Index 1 is the parent pid and index 3 the session id.
    """
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                table[int(entry)] = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
    return table


def child_pids(parent: int) -> list[int]:
    return [pid for pid, fields in _stat_fields().items() if int(fields[1]) == parent]


def kill_session(session: int, timeout: float = 10.0) -> None:
    """SIGKILL every process of a session and wait until all have ended."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = [
            pid for pid, fields in _stat_fields().items()
            if int(fields[3]) == session and fields[0] != "Z"
        ]
        if not alive:
            return
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set of one process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
