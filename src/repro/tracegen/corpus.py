"""Content-addressed trace corpus: streams stored, verified and served by digest.

One store serves two clients:

* the evaluation service (:mod:`repro.service`), which registers uploaded
  streams under their content digest;
* the paper-table builders, which keep the generated benchmark streams
  under ``<cache_dir>/traces/`` so a warm run reads them instead of
  replaying the RNG (see :func:`repro.tracegen.profiles.trace_key`).

Layout, sharded two hex characters deep like the engine's result cache:

* ``ab/<digest>.trace`` — one stream.  A JSON header line
  ``{"digest", "n", "sels"}``, then ``n`` little-endian uint64 addresses,
  then (when ``sels`` is true) ``n`` uint8 sel values.  The digest covers
  the stream *content* only — never the display name, width or stride —
  so two tenants uploading the same stream share one entry, which is
  what lets their jobs coalesce.
* ``ab/<key>.name`` — a JSON name entry binding a generated trace's key
  to its content digest and its ``name``/``kind``/``width``/``stride``.

Every read recomputes the digest from the bytes it read: a short file, a
bad header, trailing bytes or a flipped bit reads as a miss, never as a
served stream.  Writes are atomic (temp file + ``os.replace``), so one
directory can back several processes.

A corpus constructed without a root directory is memory-backed: handy
for tests and for ``repro-bus serve`` runs that only take inline traces.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import IO, Any, Callable, Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tracegen.trace import AddressTrace

Stream = Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]]

#: Sel values widened to uint64 per hashing step (bounds the copy).
_WIDEN_SLICE = 1 << 16
#: Longest header line a stream entry may carry.
_HEADER_MAX = 4096
_NAME_FIELDS = ("name", "kind", "width", "stride")


def _array_digest(addresses: np.ndarray, sels: Optional[np.ndarray]) -> str:
    """:func:`trace_digest` over arrays already in memory, without a
    full-length copy: addresses are hashed in place, sels widened to
    ``<u8`` one slice at a time."""
    digest = hashlib.sha256()
    digest.update(b"addresses\0")
    digest.update(memoryview(addresses))
    digest.update(b"\0sels\0")
    if sels is None:
        digest.update(b"none")
    else:
        for start in range(0, len(sels), _WIDEN_SLICE):
            chunk = sels[start : start + _WIDEN_SLICE].astype("<u8")
            digest.update(memoryview(chunk))
    return digest.hexdigest()


def trace_digest(
    addresses: Sequence[int], sels: Optional[Sequence[int]] = None
) -> str:
    """The sha256 content address of one stream.

    Same byte discipline as the engine's :func:`~repro.engine.cell_key`:
    little-endian uint64 address bytes, then the sel bytes (widened to
    uint64) or an explicit ``none`` marker.  Display metadata is
    excluded by design.
    """
    return _array_digest(
        np.asarray(addresses, dtype="<u8"),
        None if sels is None else np.asarray(sels, dtype="<u8"),
    )


def _sel_array(sels: Sequence[int]) -> np.ndarray:
    """Sels as uint8; anything but 0 or 1 is rejected."""
    try:
        array = np.asarray(sels, dtype=np.uint8)
    except OverflowError:
        array = None
    if array is None or (array.size and int(array.max()) > 1):
        raise ValueError("trace corpus sels must be 0 or 1")
    return array


def _atomic_write(target: Path, write: Callable[[IO[bytes]], object]) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as tmp:
            write(tmp)
        os.replace(tmp_name, target)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _read_arrays(
    path: Path, digest: str
) -> Optional[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """One stream entry's arrays if they verify against ``digest``, else None."""
    try:
        with open(path, "rb") as fh:
            line = fh.readline(_HEADER_MAX)
            header = json.loads(line)
            if not (
                line.endswith(b"\n")
                and isinstance(header, dict)
                and header.get("digest") == digest
                and type(header.get("n")) is int
                and header["n"] >= 0
                and type(header.get("sels")) is bool
            ):
                return None
            count = header["n"]
            body = count * (9 if header["sels"] else 8)
            if os.fstat(fh.fileno()).st_size != len(line) + body:
                return None  # short body or trailing bytes; bounds a forged n
            addresses = np.fromfile(fh, dtype="<u8", count=count)
            sels = np.fromfile(fh, dtype=np.uint8, count=count) if header["sels"] else None
    except (OSError, ValueError):
        return None
    if len(addresses) != count or (sels is not None and len(sels) != count):
        return None
    if _array_digest(addresses, sels) != digest:
        return None
    return addresses, sels


class TraceCorpus:
    """Digest → stream store (plus key → generated-trace names),
    directory-backed or in-memory."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[str, Stream] = {}
        self._names: Dict[str, Dict[str, Any]] = {}

    def _path(self, digest: str, suffix: str = ".trace") -> Path:
        assert self.root is not None
        return self.root / digest[:2] / f"{digest}{suffix}"

    # -- streams by content digest ---------------------------------------

    def add(
        self,
        addresses: Sequence[int],
        sels: Optional[Sequence[int]] = None,
    ) -> str:
        """Store a stream, returning its digest (idempotent: an entry
        that still verifies is left as it is; a damaged one is rewritten)."""
        address_array = np.asarray(addresses, dtype="<u8")
        sel_array = None if sels is None else _sel_array(sels)
        if sel_array is not None and len(sel_array) != len(address_array):
            raise ValueError("trace corpus sels must match the addresses in length")
        digest = _array_digest(address_array, sel_array)
        if self.root is None:
            self._memory[digest] = (
                tuple(addresses),
                None if sels is None else tuple(sels),
            )
            return digest
        if _read_arrays(self._path(digest), digest) is not None:
            return digest
        header = json.dumps(
            {"digest": digest, "n": len(address_array), "sels": sel_array is not None},
            sort_keys=True,
        )

        def write(tmp: IO[bytes]) -> None:
            tmp.write(header.encode("ascii") + b"\n")
            tmp.flush()  # tofile writes through the descriptor, past the buffer
            address_array.tofile(tmp)
            if sel_array is not None:
                sel_array.tofile(tmp)

        _atomic_write(self._path(digest), write)
        return digest

    def get(self, digest: str) -> Optional[Stream]:
        """The stored ``(addresses, sels)``, or None on a miss."""
        if self.root is None:
            return self._memory.get(digest)
        arrays = _read_arrays(self._path(digest), digest)
        if arrays is None:
            return None
        addresses = arrays[0].tolist()
        sels = None if arrays[1] is None else arrays[1].tolist()
        del arrays  # free the arrays before the tuples are built
        return tuple(addresses), None if sels is None else tuple(sels)

    def __contains__(self, digest: str) -> bool:
        return self.get(digest) is not None

    def __len__(self) -> int:
        if self.root is None:
            return len(self._memory)
        return sum(1 for _ in self.root.glob("*/*.trace"))

    def digests(self) -> Iterator[str]:
        if self.root is None:
            yield from sorted(self._memory)
            return
        for path in sorted(self.root.glob("*/*.trace")):
            yield path.stem

    # -- generated traces by key -------------------------------------------

    def save(self, key: str, trace: AddressTrace) -> str:
        """Store ``trace`` and bind ``key`` to it; returns the content digest."""
        digest = self.add(trace.addresses, trace.sels)
        entry: Dict[str, Any] = {"key": key, "digest": digest}
        entry.update((field, getattr(trace, field)) for field in _NAME_FIELDS)
        if self.root is None:
            self._names[key] = entry
        else:
            body = json.dumps(entry, sort_keys=True).encode("utf-8")
            _atomic_write(self._path(key, ".name"), lambda tmp: tmp.write(body))
        return digest

    def load(self, key: str) -> Optional[AddressTrace]:
        """The trace bound to ``key``, or None on a miss (a missing,
        damaged or dangling name entry, or a stream that fails to verify)."""
        entry: Any
        if self.root is None:
            entry = self._names.get(key)
        else:
            try:
                entry = json.loads(self._path(key, ".name").read_bytes())
            except (OSError, ValueError):
                return None
        if not isinstance(entry, dict) or entry.get("key") != key:
            return None
        digest = entry.get("digest")
        stored = self.get(digest) if isinstance(digest, str) else None
        if stored is None:
            return None
        try:
            return AddressTrace(
                addresses=stored[0],
                sels=stored[1],
                **{field: entry[field] for field in _NAME_FIELDS},
            )
        except (KeyError, TypeError, ValueError):
            return None
