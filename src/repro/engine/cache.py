"""Content-addressed on-disk result cache for engine cells.

The cache key of a cell is a SHA-256 over

* a canonical JSON header: metric, codec name, bus width, codec
  parameters (a trained code's include its training stream), in-sequence
  stride and the **code-version tag**;
* the raw address array bytes (little-endian uint64);
* the raw sel array bytes (or an explicit ``none`` marker).

The code-version tag is itself a SHA-256 over the *source files* that
determine the cell's result: the codec's defining module plus the shared
core/metrics machinery (and the gate-level RTL stack for power cells).
Editing one codec therefore invalidates exactly that codec's cells; the
shared files invalidate everything, which is the conservative and correct
behaviour for a result cache.

Entries are sharded two hex characters deep (``ab/abcdef….json``) and
written atomically (temp file + ``os.replace``), so a cache directory can
be shared between concurrent runs.  Each entry also stores a SHA-256 of
its payload's canonical JSON, checked on every read: a corrupt, truncated
or edited entry reads as a miss (counted as ``engine.cache_corrupt``),
never as an error and never as a served result.

Concurrency and eviction (the long-running-service hardening):

* atomic rename already guarantees readers never observe a torn entry —
  a reader sees either a complete previous value or a complete new one;
* :meth:`ResultCache.lock` adds **per-key in-flight locks** (``flock`` on
  a ``.lock`` sidecar) so cooperating *processes* can serialize the
  compute-then-put window, and :meth:`ResultCache.get_or_compute` wraps
  the whole probe → lock → re-probe → compute → put dance: under N
  contending processes exactly one computes, the rest re-probe and hit;
* ``max_bytes`` turns the cache into an LRU: :meth:`ResultCache.get`
  touches the entry's mtime on every hit, and :meth:`ResultCache.sweep`
  deletes least-recently-used entries until the directory fits the
  budget (``put`` triggers a sweep periodically so a service that runs
  for weeks cannot fill the disk).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

import numpy as np

from repro.core.registry import encoder_class
from repro.engine.cells import METRIC_CODEC, METRIC_POWER, Cell
from repro.obs import metrics as obs_metrics
from repro.obs.manifest import source_digest as _module_digest

#: Source modules shared by every cell metric: the word/codec framework
#: and the transition counters.
_COMMON_MODULES = (
    "repro.core.base",
    "repro.core.word",
    "repro.metrics.transitions",
    "repro.metrics.fast",
)

#: Additional modules whose source determines a power cell's result.
_POWER_MODULES = (
    "repro.rtl.codecs",
    "repro.rtl.netlist",
    "repro.rtl.power",
)

#: Additional modules whose source determines a codec-transitions cell's
#: result: such cells may be computed by either the columnar kernels or
#: the reference ``encode_stream``, so a kernel edit must invalidate them.
_CODEC_MODULES = ("repro.core.kernels",)


def code_version(metric: str, codec_name: str) -> str:
    """The code-version tag for one cell's metric/codec combination.

    The codec's defining module, resolved through the registry by name,
    is included for **every** metric — a power cell's result depends on
    the codec's semantics just as much as a transition cell's, so editing
    e.g. ``core/t0.py`` must invalidate both.  A name the registry does
    not know raises ``KeyError``.
    """
    modules = list(_COMMON_MODULES)
    if metric == METRIC_POWER:
        modules.extend(_POWER_MODULES)
    if metric == METRIC_CODEC:
        modules.extend(_CODEC_MODULES)
    modules.append(encoder_class(codec_name).__module__)
    digest = hashlib.sha256()
    for name in sorted(set(modules)):
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(_module_digest(name).encode("ascii"))
        digest.update(b"\0")
    return digest.hexdigest()


def cell_key(cell: Cell, version: str) -> str:
    """Content address of one cell (see the module docstring)."""
    header = json.dumps(
        {
            "metric": cell.metric,
            "codec": cell.codec_name,
            "width": cell.width,
            "params": {key: value for key, value in cell.params},
            "stride": cell.stride,
            "code_version": version,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    digest = hashlib.sha256(header)
    digest.update(b"\0addresses\0")
    digest.update(np.asarray(cell.addresses, dtype="<u8").tobytes())
    digest.update(b"\0sels\0")
    if cell.sels is None:
        digest.update(b"none")
    else:
        digest.update(np.asarray(cell.sels, dtype="<u8").tobytes())
    return digest.hexdigest()


def _payload_digest(payload: Dict[str, Any]) -> str:
    """SHA-256 of a payload's canonical JSON: what a cache entry stores
    and what :meth:`ResultCache.get` checks before serving it."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: ``put`` calls between automatic LRU sweeps (when ``max_bytes`` is set).
_SWEEP_EVERY = 32


class ResultCache:
    """Directory-backed key → JSON payload store.

    ``max_bytes`` bounds the total entry size: when set, the cache
    behaves as an LRU (hits refresh an entry's mtime; :meth:`sweep`
    evicts the stalest entries past the budget, and runs automatically
    every :data:`_SWEEP_EVERY` puts).
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: Optional[int] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._puts_since_sweep = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload, or None on a miss.

        An entry that exists but does not verify (unparseable, another
        key's, or a payload whose digest does not match) misses too and
        counts ``engine.cache_corrupt``.
        """
        path = self._path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            entry = json.loads(raw)
        except ValueError:
            entry = None
        payload = entry.get("payload") if isinstance(entry, dict) else None
        if not (
            isinstance(payload, dict)
            and entry.get("key") == key
            and entry.get("sha256") == _payload_digest(payload)
        ):
            obs_metrics.counter("engine.cache_corrupt").inc()
            return None
        if self.max_bytes is not None:
            try:
                os.utime(path)  # refresh LRU position
            except OSError:  # pragma: no cover - entry evicted mid-read
                pass
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store atomically; concurrent writers of the same key are safe.

        The temp-file + ``os.replace`` scheme means a reader racing any
        number of same-key writers observes either a complete old entry
        or a complete new one, never a torn mix — the property the
        multiprocess stress test in ``tests/test_cache_concurrency.py``
        hammers on.
        """
        target = self._path(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        body = json.dumps(
            {"key": key, "payload": payload, "sha256": _payload_digest(payload)},
            sort_keys=True,
        )
        handle, tmp_name = tempfile.mkstemp(
            dir=target.parent, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as tmp:
                tmp.write(body)
            os.replace(tmp_name, target)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if self.max_bytes is not None:
            self._puts_since_sweep += 1
            if self._puts_since_sweep >= _SWEEP_EVERY:
                self.sweep()

    # -- per-key in-flight locking -------------------------------------

    @contextmanager
    def lock(self, key: str) -> Iterator[None]:
        """Serialize cooperating processes working on one key.

        A blocking ``flock`` on a ``.lock`` sidecar next to the entry.
        Purely advisory: ``get``/``put`` never require it (atomic rename
        keeps them safe); the lock exists so concurrent *computations*
        of the same key can be collapsed — see :meth:`get_or_compute`.
        On platforms without ``fcntl`` the lock degrades to a no-op.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        lock_path = self.root / key[:2] / f"{key}.lock"
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        handle = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
            yield
        finally:
            # Releasing before closing is implicit in close(); the lock
            # file itself is left in place (tiny, reused by the next
            # contender — unlinking it would race a concurrent open).
            os.close(handle)

    def get_or_compute(
        self, key: str, compute: Callable[[], Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Serve ``key`` from the cache, computing it at most once.

        Probe, then take the per-key lock and re-probe before computing:
        of N processes racing the same cold key, one computes and puts
        while the rest block on the lock and then hit the fresh entry.
        """
        hit = self.get(key)
        if hit is not None:
            return hit
        with self.lock(key):
            hit = self.get(key)
            if hit is not None:
                return hit
            payload = compute()
            self.put(key, payload)
            return payload

    # -- size accounting and LRU eviction ------------------------------

    def _entries(self) -> List[Tuple[float, int, Path]]:
        """Every entry as ``(mtime, size, path)`` (lock files excluded)."""
        entries: List[Tuple[float, int, Path]] = []
        for path in self.root.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:  # entry evicted by a concurrent sweep
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def size_bytes(self) -> int:
        """Total bytes of stored entries."""
        return sum(size for _, size, _ in self._entries())

    def sweep(self) -> int:
        """Evict least-recently-used entries until under ``max_bytes``.

        Returns the number of entries removed.  A no-op when no budget
        is set.  Concurrent sweeps are safe: a missing file is simply
        skipped (some other process already evicted it).
        """
        self._puts_since_sweep = 0
        if self.max_bytes is None:
            return 0
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return 0
        evicted = 0
        # Oldest mtime first == least recently used first (get() touches).
        for _, size, path in sorted(entries):
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent eviction
                continue
            total -= size
            evicted += 1
        return evicted

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))
