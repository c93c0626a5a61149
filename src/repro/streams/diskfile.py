"""Disk-resident datasets: stream doubles from binary files.

The paper's abstract targets "online or disk-resident datasets" read in a
single pass.  This module provides the minimal disk substrate: a packed
little-endian float64 file format written and re-read in fixed-size
chunks, so a dataset far larger than memory streams through any estimator
with O(chunk) buffering — one pass, sequential I/O, exactly the DBMS scan
access pattern the paper assumes.
"""

from __future__ import annotations

import array
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

__all__ = [
    "write_floats",
    "read_floats",
    "read_float_chunks",
    "ingest_file",
    "count_floats",
    "plan_byte_ranges",
    "CHUNK_VALUES",
    "ITEM_SIZE",
]

#: Values per I/O chunk (8 bytes each -> 512 KiB reads by default).
CHUNK_VALUES = 65_536

#: Bytes per record (packed little-endian float64).
ITEM_SIZE = 8

_ITEM_SIZE = ITEM_SIZE  # back-compat alias


def _validated_size(path: str | os.PathLike[str]) -> int:
    """The file's size in bytes, rejecting trailing partial records.

    A float64 file whose size is not a multiple of 8 holds a torn final
    record (interrupted writer, truncated copy, wrong file); reading it
    as if the remainder did not exist would silently drop data, so every
    reader validates the size up front and names the damage precisely.
    """
    size = os.stat(path).st_size
    remainder = size % ITEM_SIZE
    if remainder:
        raise ValueError(
            f"{os.fspath(path)!r} is truncated or not a float64 file: size "
            f"{size} bytes is not a multiple of {ITEM_SIZE}; the trailing "
            f"{remainder} byte(s) form a partial record"
        )
    return size


def _native_to_little(values: "array.array") -> "array.array":
    if sys.byteorder == "big":
        values = array.array("d", values)
        values.byteswap()
    return values


def write_floats(path: str | os.PathLike[str], values: Iterable[float]) -> int:
    """Write a stream of floats to ``path`` (little-endian float64).

    Buffers :data:`CHUNK_VALUES` values at a time, so the input iterable
    may be unboundedly large.  Returns the number of values written.
    """
    written = 0
    buffer = array.array("d")
    with open(path, "wb") as handle:
        for value in values:
            buffer.append(value)
            if len(buffer) == CHUNK_VALUES:
                _native_to_little(buffer).tofile(handle)
                written += len(buffer)
                buffer = array.array("d")
        if buffer:
            _native_to_little(buffer).tofile(handle)
            written += len(buffer)
    return written


def read_float_chunks(
    path: str | os.PathLike[str],
    chunk_values: int = CHUNK_VALUES,
    *,
    start: int = 0,
    stop: int | None = None,
    reuse_buffer: bool = False,
) -> Iterator[Sequence[float]]:
    """Stream chunks of up to ``chunk_values`` floats.

    The bulk-ingest counterpart of :func:`read_floats`: each chunk is a
    random-access sequence the estimators' ``update_batch`` can sample
    with one RNG draw per block instead of boxing every element through
    a Python float.

    ``start``/``stop`` are *byte* offsets bounding the scan (both must be
    multiples of 8; ``stop=None`` means end-of-file), so several readers
    can each scan their own slice of one file with sequential I/O — the
    partitioned-scan access pattern :func:`plan_byte_ranges` produces for
    the parallel ingest runtime.

    With ``reuse_buffer=True`` (and a little-endian platform) the reader
    allocates the chunk buffer **once** and every iteration ``readinto``\\ s
    it, yielding a ``memoryview`` cast to float64 — a zero-copy,
    zero-allocation scan straight from the page cache into the sampling
    kernels.  The yielded view is only valid until the next iteration, so
    it suits consumers that fully process each chunk before advancing
    (``update_batch`` copies everything it keeps into the arena); default
    ``False`` yields an independent ``array('d')`` per chunk.
    """
    if chunk_values < 1:
        raise ValueError(f"chunk_values must be >= 1, got {chunk_values}")
    size = _validated_size(path)
    if stop is None:
        stop = size
    if start % ITEM_SIZE or stop % ITEM_SIZE:
        raise ValueError(
            f"byte range [{start}, {stop}) is not aligned to the "
            f"{ITEM_SIZE}-byte float64 record size"
        )
    if not 0 <= start <= stop <= size:
        raise ValueError(
            f"byte range [{start}, {stop}) is out of bounds for "
            f"{os.fspath(path)!r} ({size} bytes)"
        )
    # The resident buffer only pays off when the bytes on disk are already
    # in native order; big-endian hosts fall back to the byteswap copy.
    resident = (
        bytearray(chunk_values * ITEM_SIZE)
        if reuse_buffer and sys.byteorder == "little"
        else None
    )
    with open(path, "rb") as handle:
        if start:
            handle.seek(start)
        position = start
        while position < stop:
            want = min(chunk_values * ITEM_SIZE, stop - position)
            if resident is not None:
                view = memoryview(resident)[:want]
                got = handle.readinto(view)
                if got != want:
                    raise ValueError(
                        f"{os.fspath(path)!r} shrank while being read: expected "
                        f"{want} bytes at offset {position}, got {got}"
                    )
                position += want
                yield view.cast("d")
                continue
            raw = handle.read(want)
            if len(raw) < want:
                raise ValueError(
                    f"{os.fspath(path)!r} shrank while being read: expected "
                    f"{want} bytes at offset {position}, got {len(raw)}"
                )
            position += len(raw)
            chunk = array.array("d")
            chunk.frombytes(raw)
            if sys.byteorder == "big":
                chunk.byteswap()
            yield chunk


def plan_byte_ranges(
    path: str | os.PathLike[str], workers: int
) -> list[tuple[int, int]]:
    """Partition a float64 file into ``workers`` aligned byte ranges.

    Returns ``workers`` contiguous, non-overlapping ``(start, stop)``
    byte ranges that cover the whole file, every boundary aligned to the
    8-byte record size and the element counts balanced to within one
    record — each parallel ingest worker scans its own slice with pure
    sequential I/O.  Files smaller than the worker count yield empty
    ranges (``start == stop``) for the surplus workers.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    total_values = _validated_size(path) // ITEM_SIZE
    base, surplus = divmod(total_values, workers)
    ranges: list[tuple[int, int]] = []
    start_value = 0
    for worker in range(workers):
        span = base + (1 if worker < surplus else 0)
        stop_value = start_value + span
        ranges.append((start_value * ITEM_SIZE, stop_value * ITEM_SIZE))
        start_value = stop_value
    return ranges


def read_floats(
    path: str | os.PathLike[str], chunk_values: int = CHUNK_VALUES
) -> Iterator[float]:
    """Stream the floats back from ``path`` one at a time."""
    for chunk in read_float_chunks(path, chunk_values):
        yield from chunk


def ingest_file(
    estimator: Any,
    path: str | os.PathLike[str],
    chunk_values: int = CHUNK_VALUES,
) -> int:
    """One-pass bulk ingest of a float64 file into an estimator.

    Feeds the file through ``estimator.update_batch`` (or ``extend`` for
    estimators without a batch path) chunk by chunk, keeping memory at
    O(chunk) however large the file.  Returns the number of values fed.

    ``update_batch`` consumers get the zero-copy resident-buffer scan
    (each chunk is fully consumed — everything kept is copied into the
    estimator's arena — before the next read overwrites it); the
    element-by-element ``extend`` fallback reads independent chunks.
    """
    ingest = getattr(estimator, "update_batch", None)
    reuse = ingest is not None
    if ingest is None:
        ingest = estimator.extend
    total = 0
    for chunk in read_float_chunks(path, chunk_values, reuse_buffer=reuse):
        ingest(chunk)
        total += len(chunk)
    return total


def count_floats(path: str | os.PathLike[str]) -> int:
    """Number of float64 values in the file, from its size (no read).

    Raises :class:`ValueError` naming the path and the trailing byte
    remainder when the size is not a multiple of 8 (a torn final record).
    """
    return _validated_size(path) // ITEM_SIZE
