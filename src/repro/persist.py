"""Durable, verifiable checkpoints for every estimator in the library.

Sketch summaries earn their keep in production precisely because they can
be persisted, shipped, and merged (the operational case t-digest and KLL
made canonical); this module gives the MRL99 estimators the same property
with three layers:

* **State dicts** — each estimator exposes ``to_state_dict()`` /
  ``from_state_dict()`` returning plain data (including RNG state, so a
  restored estimator continues the stream *bit-identically* to one that
  never stopped).  :func:`to_state_dict` / :func:`from_state_dict` here
  dispatch on the embedded ``kind`` tag.
* **Framed bytes** — :func:`dumps` / :func:`loads` wrap the state dict in a
  magic + format-version + length + CRC32 frame.  ``loads`` never trusts
  unverified bytes: a wrong magic, a short read, a flipped bit, or a
  length mismatch raises :class:`CheckpointCorruptError`; an unknown frame
  or state version raises :class:`CheckpointVersionError`.  The payload is
  JSON plus a raw float64 blob, not pickle, so a corrupt or hostile file
  can never execute code.

  Frame version 2 (the current writer) is *columnar*: every all-float list
  in the state dict — buffer contents, staged samples, shipped snapshot
  columns — is hoisted out of the JSON text into one contiguous raw
  little-endian float64 blob and replaced by a tiny ``{"__f64__":
  [offset, count]}`` marker.  Floats travel at 8 bytes each instead of
  ~18 bytes of decimal text, checkpoints shrink ~2-3x, and loading is a
  single ``frombytes`` per column instead of per-character float parsing.
  Version-1 frames (all-JSON) are still read transparently.
* **Atomic files** — :func:`save_checkpoint` writes to a temporary file in
  the target directory, fsyncs, then ``os.replace``\\ s into place, so a
  crash mid-write leaves either the old checkpoint or the new one — never
  a torn file.  :func:`load_checkpoint` reads and verifies.

The serving tier's checkpoint chains (:mod:`repro.service.tenants`) are
built on this layer.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import sys
import tempfile
import zlib
from array import array
from collections.abc import Sequence
from typing import Any

from repro.core.extreme import ExtremeValueEstimator
from repro.core.known_n import KnownNQuantiles
from repro.core.multi import MultiQuantiles
from repro.core.parallel import MergedSummary, ParallelQuantiles
from repro.core.streaming_extreme import StreamingExtremeEstimator
from repro.core.unknown_n import EstimatorSnapshot, UnknownNQuantiles

__all__ = [
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "to_state_dict",
    "from_state_dict",
    "dumps",
    "loads",
    "save_checkpoint",
    "load_checkpoint",
    "save_checkpoint_rotating",
    "load_checkpoint_rotating",
    "checkpoint_generations",
    "move_checkpoint_chain",
]

#: 8-byte file signature; never reused across incompatible layouts.
MAGIC = b"RPROCKPT"
#: Version of the byte frame (magic/length/CRC layout); v2 is columnar.
FORMAT_VERSION = 2
#: Version of the state-dict schemas the estimators emit.
STATE_VERSION = 1

_HEADER = struct.Struct(">II Q")  # format version, CRC32, payload length
_META_LEN = struct.Struct(">Q")  # v2 payload: JSON metadata length prefix

#: Marker key a hoisted float column leaves behind in the JSON metadata.
_F64_KEY = "__f64__"


class CheckpointError(Exception):
    """Base class for checkpoint load/save failures."""


class CheckpointCorruptError(CheckpointError):
    """The checkpoint bytes fail verification (truncated, flipped, torn)."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint is well-formed but written by an incompatible version."""


# ----------------------------------------------------------------------
# State-dict dispatch
# ----------------------------------------------------------------------

_CHECKPOINTABLE = {
    "unknown_n": UnknownNQuantiles,
    "known_n": KnownNQuantiles,
    "multi": MultiQuantiles,
    "extreme": ExtremeValueEstimator,
    "streaming_extreme": StreamingExtremeEstimator,
    "parallel": ParallelQuantiles,
    "merged": MergedSummary,
}


def _keep_columnar(data: Sequence[float]) -> Any:
    """Preserve a float column's packed form on its way into a state dict.

    ``array('d')`` and float64 ``memoryview``\\ s (arena slot views) pass
    through untouched — :func:`_hoist_floats` hoists each with a single
    ``tobytes`` memcpy, so checkpointing a snapshot never boxes its
    floats into PyObjects.  Anything else degrades to a plain list.
    """
    if isinstance(data, array) and data.typecode == "d":
        return data
    if isinstance(data, memoryview) and data.format == "d":
        return data
    return list(data)


def _snapshot_to_state_dict(snap: EstimatorSnapshot) -> dict[str, Any]:
    """EstimatorSnapshot is a frozen value object; serialised field-wise."""
    return {
        "kind": "snapshot",
        "state_version": STATE_VERSION,
        "full_buffers": [
            [_keep_columnar(data), weight] for data, weight in snap.full_buffers
        ],
        "staged": _keep_columnar(snap.staged),
        "rate": snap.rate,
        "pending": list(snap.pending) if snap.pending is not None else None,
        "n": snap.n,
        "k": snap.k,
    }


def _as_float_array(data: Any) -> "array[float]":
    """A packed ``array('d')`` of ``data``, reusing it when already packed."""
    if isinstance(data, array) and data.typecode == "d":
        return data
    return array("d", (float(v) for v in data))


def _snapshot_from_state_dict(state: dict[str, Any]) -> EstimatorSnapshot:
    pending = state["pending"]
    staged = state["staged"]
    return EstimatorSnapshot(
        full_buffers=[
            (_as_float_array(data), int(weight))
            for data, weight in state["full_buffers"]
        ],
        staged=(
            staged.tolist()
            if isinstance(staged, array)
            else [float(v) for v in staged]
        ),
        rate=int(state["rate"]),
        pending=(float(pending[0]), int(pending[1])) if pending is not None else None,
        n=int(state["n"]),
        k=int(state["k"]),
    )


def to_state_dict(obj: Any) -> dict[str, Any]:
    """The plain-data state of any checkpointable object."""
    if isinstance(obj, EstimatorSnapshot):
        return _snapshot_to_state_dict(obj)
    for cls in _CHECKPOINTABLE.values():
        if isinstance(obj, cls):
            return obj.to_state_dict()
    raise TypeError(
        f"{type(obj).__name__} is not checkpointable; supported types are "
        f"{sorted(c.__name__ for c in _CHECKPOINTABLE.values())} and "
        "EstimatorSnapshot"
    )


def from_state_dict(state: dict[str, Any]) -> Any:
    """Rebuild the object a state dict describes, dispatching on its kind."""
    if not isinstance(state, dict) or "kind" not in state:
        raise CheckpointCorruptError("state dict has no 'kind' tag")
    version = state.get("state_version")
    if version != STATE_VERSION:
        raise CheckpointVersionError(
            f"state version {version!r} is not supported "
            f"(this build reads version {STATE_VERSION})"
        )
    kind = state["kind"]
    if kind == "snapshot":
        return _snapshot_from_state_dict(state)
    try:
        cls = _CHECKPOINTABLE[kind]
    except KeyError:
        raise CheckpointCorruptError(f"unknown checkpoint kind {kind!r}") from None
    try:
        return cls.from_state_dict(state)
    except (KeyError, TypeError, IndexError) as exc:
        raise CheckpointCorruptError(
            f"malformed {kind!r} state dict: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Columnar float hoisting (frame v2)
# ----------------------------------------------------------------------

def _hoist_column(column: "array[float]", blob: bytearray) -> dict[str, list[int]]:
    """Append a float column to the blob; return its JSON marker."""
    if sys.byteorder != "little":  # the on-disk blob is always little-endian
        column = array("d", column)
        column.byteswap()
    offset = len(blob)
    blob += column.tobytes()
    return {_F64_KEY: [offset, len(column)]}


def _hoist_floats(value: Any, blob: bytearray) -> Any:
    """Recursively replace all-float sequences with ``__f64__`` markers.

    Integer lists (RNG words) and mixed lists (a ``(candidate, seen)``
    pending pair) are left in the JSON metadata, where their element
    types round-trip exactly.  ``bool`` is excluded despite being an
    ``int`` subclass because it is never a float; ``numpy.float64``
    qualifies because it *is* a ``float`` subclass.

    Packed float64 containers — ``array('d')`` and one-dimensional
    ``'d'``-format memoryviews (arena slot views) — hoist as one
    ``tobytes`` memcpy each, never boxing elements, so checkpointing a
    snapshot whose buffers are zero-copy arena views runs at memcpy
    speed.  Any other array type (a stray ndarray) goes through its
    ``tolist``.
    """
    if isinstance(value, dict):
        return {key: _hoist_floats(sub, blob) for key, sub in value.items()}
    if isinstance(value, array) and value.typecode == "d":
        return _hoist_column(value, blob)
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if seq and all(isinstance(item, float) for item in seq):
            return _hoist_column(array("d", seq), blob)
        return [_hoist_floats(sub, blob) for sub in seq]
    if isinstance(value, memoryview):
        if value.format == "d" and value.ndim == 1:
            if sys.byteorder != "little":  # pragma: no cover - BE hosts
                return _hoist_column(array("d", value), blob)
            offset = len(blob)
            blob += value.tobytes()
            return {_F64_KEY: [offset, value.nbytes // 8]}
        return _hoist_floats(value.tolist(), blob)
    tolist = getattr(value, "tolist", None)
    if tolist is not None and not isinstance(value, (str, bytes, bytearray)):
        return _hoist_floats(tolist(), blob)
    return value


def _restore_floats(value: Any, blob: memoryview) -> Any:
    """Inverse of :func:`_hoist_floats`: markers become ``array('d')``.

    Decoded columns stay columnar — the estimators' ``from_state_dict``
    constructors accept any float sequence, and keeping them packed is
    what makes loading a big checkpoint one ``frombytes`` per buffer.
    """
    if isinstance(value, dict):
        marker = value.get(_F64_KEY)
        if marker is not None and len(value) == 1:
            if (
                not isinstance(marker, list)
                or len(marker) != 2
                or not all(isinstance(part, int) and part >= 0 for part in marker)
            ):
                raise CheckpointCorruptError(f"malformed float-column marker {marker!r}")
            offset, count = marker
            if offset + count * 8 > len(blob):
                raise CheckpointCorruptError(
                    f"float column [{offset}, {count}] overruns the "
                    f"{len(blob)}-byte payload blob"
                )
            column = array("d")
            column.frombytes(blob[offset : offset + count * 8])
            if sys.byteorder != "little":
                column.byteswap()
            return column
        return {key: _restore_floats(sub, blob) for key, sub in value.items()}
    if isinstance(value, list):
        return [_restore_floats(sub, blob) for sub in value]
    return value


# ----------------------------------------------------------------------
# Byte framing
# ----------------------------------------------------------------------

def dumps(obj: Any) -> bytes:
    """Serialise a checkpointable object to verified, framed bytes.

    The frame is version 2: a JSON-metadata length prefix, the JSON
    metadata (with every float column hoisted out), then one contiguous
    raw little-endian float64 blob.  The CRC32 covers the whole payload.
    """
    blob = bytearray()
    meta = _hoist_floats(to_state_dict(obj), blob)
    encoded = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    payload = _META_LEN.pack(len(encoded)) + encoded + bytes(blob)
    header = MAGIC + _HEADER.pack(FORMAT_VERSION, zlib.crc32(payload), len(payload))
    return header + payload


def _decode_json(payload: bytes | memoryview) -> Any:
    try:
        return json.loads(bytes(payload).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(
            f"checkpoint payload is not valid JSON: {exc}"
        ) from exc


def loads(data: bytes) -> Any:
    """Rebuild an object from framed bytes, verifying every layer first.

    Reads both frame versions: 1 (all-JSON payload, the pre-columnar
    writer) and 2 (JSON metadata + raw float64 blob, the current writer).
    """
    header_size = len(MAGIC) + _HEADER.size
    if len(data) < header_size:
        raise CheckpointCorruptError(
            f"checkpoint truncated: {len(data)} bytes is shorter than the "
            f"{header_size}-byte header"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointCorruptError("bad magic: not a repro checkpoint")
    version, crc, length = _HEADER.unpack_from(data, len(MAGIC))
    if version not in (1, FORMAT_VERSION):
        raise CheckpointVersionError(
            f"checkpoint format version {version} is not supported "
            f"(this build reads versions 1 and {FORMAT_VERSION})"
        )
    payload = data[header_size:]
    if len(payload) != length:
        raise CheckpointCorruptError(
            f"checkpoint truncated: header promises {length} payload bytes, "
            f"found {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise CheckpointCorruptError("CRC mismatch: checkpoint bytes are corrupt")
    if version == 1:
        return from_state_dict(_decode_json(payload))
    if len(payload) < _META_LEN.size:
        raise CheckpointCorruptError(
            "checkpoint truncated: v2 payload is missing its metadata length"
        )
    (meta_len,) = _META_LEN.unpack_from(payload)
    if _META_LEN.size + meta_len > len(payload):
        raise CheckpointCorruptError(
            f"checkpoint truncated: metadata length {meta_len} overruns the "
            f"{len(payload)}-byte payload"
        )
    view = memoryview(payload)
    meta = _decode_json(view[_META_LEN.size : _META_LEN.size + meta_len])
    state = _restore_floats(meta, view[_META_LEN.size + meta_len :])
    return from_state_dict(state)


# ----------------------------------------------------------------------
# Atomic file persistence
# ----------------------------------------------------------------------

def save_checkpoint(obj: Any, path: str | os.PathLike[str]) -> None:
    """Atomically write a checkpoint: temp file + fsync + rename.

    A crash at any instant leaves ``path`` holding either the previous
    checkpoint in full or the new one in full.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    data = dumps(obj)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
    # Make the rename itself durable where the platform allows.
    with contextlib.suppress(OSError):
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def load_checkpoint(path: str | os.PathLike[str]) -> Any:
    """Read and verify a checkpoint file; raises the typed errors on damage."""
    with open(path, "rb") as handle:
        return loads(handle.read())


# ----------------------------------------------------------------------
# Generation-keeping rotation
# ----------------------------------------------------------------------
#
# A single atomic file survives a crash *during* a write, but not a write
# that completes and is then damaged (torn by the media, truncated by an
# operator, half-synced by a dying disk).  The serving tier therefore
# keeps the previous ``keep - 1`` generations next to the live file:
# ``path`` is generation 0, ``path.1`` the one before it, and so on.
# Restore walks the chain and uses the newest generation whose frame
# still verifies, so one bad frame costs one checkpoint interval of
# state, never the whole tenant.

def checkpoint_generations(
    path: str | os.PathLike[str], keep: int = 2
) -> list[str]:
    """The on-disk generation chain for ``path``, newest first.

    Index 0 is the live checkpoint itself; index ``g`` is the file the
    ``g``-th previous :func:`save_checkpoint_rotating` left behind.
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    path = os.fspath(path)
    return [path] + [f"{path}.{gen}" for gen in range(1, keep)]


def save_checkpoint_rotating(
    obj: Any, path: str | os.PathLike[str], keep: int = 2
) -> None:
    """Atomically write a checkpoint, keeping ``keep - 1`` prior generations.

    Existing generations are shifted (``path`` becomes ``path.1``, which
    becomes ``path.2``, ...) before the new frame is written atomically
    to ``path``.  Every shift is an ``os.replace``, so a crash at any
    instant leaves a chain whose surviving entries are each either a
    complete old frame or a complete new one; a reader that walks the
    chain with :func:`load_checkpoint_rotating` always finds the newest
    verifiable generation.
    """
    chain = checkpoint_generations(path, keep)
    for older, newer in zip(chain[-1:0:-1], chain[-2::-1]):
        if os.path.exists(newer):
            os.replace(newer, older)
    save_checkpoint(obj, chain[0])


def move_checkpoint_chain(
    src: str | os.PathLike[str], dst: str | os.PathLike[str], keep: int = 2
) -> int:
    """Move every existing generation of a rotated chain to a new stem.

    Each present generation is moved with :func:`os.replace` (atomic on
    the same filesystem), newest first, so a crash mid-move leaves every
    generation intact at exactly one of the two stems and a chain walk at
    ``dst`` prefers the newest frames already moved.  Returns the number
    of generations moved.  The serving tier uses this to re-home tenant
    checkpoint chains when the worker-shard layout changes.
    """
    moved = 0
    for src_gen, dst_gen in zip(
        checkpoint_generations(src, keep), checkpoint_generations(dst, keep)
    ):
        if os.path.exists(src_gen):
            os.replace(src_gen, dst_gen)
            moved += 1
    return moved


def load_checkpoint_rotating(
    path: str | os.PathLike[str], keep: int = 2
) -> tuple[Any, int]:
    """Restore from the newest verifiable generation of a rotated chain.

    Returns ``(object, generation)`` where generation 0 is the live file
    and higher numbers are successively older fallbacks.  A generation
    that is missing, torn, or version-incompatible is skipped; when no
    generation verifies, the error of the *newest* damaged one is
    re-raised (or :class:`FileNotFoundError` when the chain is empty),
    so the caller sees why the most recent state was unusable.
    """
    first_error: Exception | None = None
    for generation, candidate in enumerate(checkpoint_generations(path, keep)):
        try:
            return load_checkpoint(candidate), generation
        except FileNotFoundError:
            continue
        except (CheckpointCorruptError, CheckpointVersionError) as exc:
            if first_error is None:
                first_error = exc
    if first_error is not None:
        raise first_error
    raise FileNotFoundError(
        f"no checkpoint generation exists for {os.fspath(path)!r}"
    )
