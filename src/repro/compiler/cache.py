"""Content-addressed caches for parse and compile results.

The evaluation pushes the same sources through ``parse_unit`` and
``compile_source`` over and over: the run kernel of a version is built
for every boot, the base units are byte-identical across all fourteen
versions, ksplice-create's *pre* build recompiles unpatched units, and
the stress battery recompiles the same six user programs for every CVE.

Entries are keyed by content, not identity:

* parse cache — ``(unit path, sha256(source))`` → ``ast.Unit``
* compile cache — ``(unit path, sha256(source), CompilerOptions)`` →
  ``CompileResult``

so a patched unit *cannot* hit a stale entry: rewriting the source
changes the digest and therefore the key (this is the invalidation
story — there is nothing to invalidate explicitly, only entries that can
no longer be reached).  Options participate in the compile key because
flavor matters: a merged-section build and a function-sections build of
the same source are different objects.

Cached values are shared, never copied, which is safe because every
consumer treats them as immutable: a compile never mutates a cached AST
(the compiler deep-copies only the functions the inliner rewrites), the
linker writes relocations into its own image buffer, and extraction
copies sections (see ``core/extract.py``).

Storage sits behind :class:`CacheBackend` tiers.  Every
:class:`ContentCache` always has a bounded in-memory LRU tier
(:class:`MemoryBackend`); :func:`enable_disk_cache` attaches a second,
:class:`DiskBackend` tier that spills pickled values under a shared
directory — because the keys are already process-stable, a *cold
process* starts warm from disk.  Disk hits are promoted back into
memory; both tiers are bounded; ``clear_caches()`` wipes entries in
every tier (including the files on disk) plus the counters.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.lang import ast, parse_unit

_MISS = object()


@dataclass
class CacheStats:
    """Hit/miss/volume counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: approximate payload volume (source bytes the cache saved reparsing
    #: or recompiling on hits / paid for on misses)
    bytes_cached: int = 0
    #: subset of ``hits`` served by the disk tier (cold-process warmth)
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.bytes_cached += other.bytes_cached
        self.disk_hits += other.disk_hits


class CacheBackend:
    """One storage tier: get/put/clear with LRU-bounded capacity.

    ``get`` returns the sentinel-free pair ``(found, value)``; ``put``
    returns how many entries the insert evicted (for stats).
    """

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        raise NotImplementedError

    def put(self, key: Hashable, value: Any) -> int:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class MemoryBackend(CacheBackend):
    """In-process tier: an OrderedDict with LRU eviction."""

    def __init__(self, max_entries: int = 4096):
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        value = self._entries.get(key, _MISS)
        if value is _MISS:
            return False, None
        self._entries.move_to_end(key)
        return True, value

    def put(self, key: Hashable, value: Any) -> int:
        self._entries[key] = value
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class DiskBackend(CacheBackend):
    """On-disk tier: one pickle file per entry, LRU-bounded by mtime.

    Keys are process-stable tuples of strings and frozen dataclasses, so
    ``sha256(repr(key))`` is a faithful content address across
    processes.  Writes are atomic (temp file + rename) so concurrent
    evaluation workers can share a directory; reads treat any missing,
    corrupt, or unpicklable entry as a miss (and drop the file).
    """

    def __init__(self, directory: str, max_entries: int = 512):
        self.directory = directory
        self.max_entries = max_entries
        #: values that could not be pickled and were skipped
        self.put_failures = 0

    def _path(self, key: Hashable) -> str:
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        return os.path.join(self.directory, digest + ".pkl")

    def _files(self) -> List[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return [os.path.join(self.directory, n) for n in names
                if n.endswith(".pkl")]

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            return False, None
        except Exception:
            try:  # corrupt or unreadable: drop it, report a miss
                os.unlink(path)
            except OSError:
                pass
            return False, None
        try:  # refresh LRU position
            os.utime(path, None)
        except OSError:
            pass
        return True, value

    def put(self, key: Hashable, value: Any) -> int:
        try:
            payload = pickle.dumps(value)
        except Exception:
            self.put_failures += 1
            return 0
        path = self._path(key)
        tmp = path + ".%d.tmp" % os.getpid()
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except OSError:
            self.put_failures += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return 0
        return self._evict()

    def _evict(self) -> int:
        files = self._files()
        if len(files) <= self.max_entries:
            return 0
        def mtime(path: str) -> float:
            try:
                return os.path.getmtime(path)
            except OSError:
                return 0.0
        files.sort(key=mtime)
        evicted = 0
        for path in files[:len(files) - self.max_entries]:
            try:
                os.unlink(path)
                evicted += 1
            except OSError:
                pass
        return evicted

    def clear(self) -> None:
        for path in self._files():
            try:
                os.unlink(path)
            except OSError:
                pass

    def __len__(self) -> int:
        return len(self._files())


class ContentCache:
    """A bounded content-addressed cache over one or two tiers.

    Lookups try memory first, then the disk tier when one is attached;
    a disk hit is promoted into memory so the process pays the pickle
    cost once.  Writes go to every tier.  ``len()`` reports the memory
    tier (the bound the process actually holds).
    """

    def __init__(self, name: str, max_entries: int = 4096):
        self.name = name
        self.max_entries = max_entries
        self.stats = CacheStats()
        self.enabled = True
        self._memory = MemoryBackend(max_entries)
        self._disk: Optional[DiskBackend] = None

    @property
    def disk(self) -> Optional[DiskBackend]:
        return self._disk

    def attach_disk(self, backend: Optional[DiskBackend]) -> None:
        self._disk = backend

    def __len__(self) -> int:
        return len(self._memory)

    def get(self, key: Hashable, size: int = 0) -> Optional[Any]:
        if not self.enabled:
            self.stats.misses += 1
            return None
        found, value = self._memory.get(key)
        if found:
            self.stats.hits += 1
            self.stats.bytes_cached += size
            return value
        if self._disk is not None:
            found, value = self._disk.get(key)
            if found:
                self.stats.evictions += self._memory.put(key, value)
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self.stats.bytes_cached += size
                return value
        self.stats.misses += 1
        return None

    def put(self, key: Hashable, value: Any, size: int = 0) -> None:
        if not self.enabled:
            return
        self.stats.bytes_cached += size
        self.stats.evictions += self._memory.put(key, value)
        if self._disk is not None:
            self.stats.evictions += self._disk.put(key, value)

    def drop_memory(self) -> None:
        """Empty the memory tier only (simulates a cold process whose
        disk tier survived)."""
        self._memory.clear()

    def clear(self, reset_stats: bool = True) -> None:
        self._memory.clear()
        if self._disk is not None:
            self._disk.clear()
        if reset_stats:
            self.stats = CacheStats()

    def reset_stats(self) -> None:
        """Zero the counters without dropping entries (for measuring the
        hit rate of one specific pass over warm caches)."""
        self.stats = CacheStats()


#: every cache registered here is covered by clear_caches()/cache_stats()
_REGISTRY: List[ContentCache] = []

#: directory the disk tier spills under, when enabled
_DISK_ROOT: Optional[str] = None
_DISK_MAX_ENTRIES = 512


def register_cache(cache: ContentCache) -> ContentCache:
    _REGISTRY.append(cache)
    if _DISK_ROOT is not None:
        cache.attach_disk(DiskBackend(
            os.path.join(_DISK_ROOT, cache.name),
            max_entries=_DISK_MAX_ENTRIES))
    return cache


def enable_disk_cache(root: Optional[str] = None,
                      max_entries: int = 512) -> str:
    """Attach a disk tier to every registered cache.

    ``root`` defaults to the shared cache root (``REPRO_CACHE_DIR`` or
    ``~/.cache/repro-ksplice``).  Each cache gets its own subdirectory;
    each directory is bounded to ``max_entries`` files.  Returns the
    root actually used.
    """
    global _DISK_ROOT, _DISK_MAX_ENTRIES
    if root is None:
        from repro.pipeline.store import cache_root

        root = os.path.join(cache_root(), "objects")
    _DISK_ROOT = root
    _DISK_MAX_ENTRIES = max_entries
    for cache in _REGISTRY:
        cache.attach_disk(DiskBackend(os.path.join(root, cache.name),
                                      max_entries=max_entries))
    return root


def disable_disk_cache() -> None:
    """Detach the disk tier everywhere (files are left on disk)."""
    global _DISK_ROOT
    _DISK_ROOT = None
    for cache in _REGISTRY:
        cache.attach_disk(None)


def active_disk_root() -> Optional[str]:
    """The enabled disk-cache root, or None — forwarded to evaluation
    workers so child processes share the same tier."""
    return _DISK_ROOT


def disk_cache_config() -> Optional[Tuple[str, int]]:
    """``(root, max_entries)`` of the enabled disk tier, or None.

    This is the warm-start handshake payload: a coordinator sends it to
    remote workers so they attach the same shared tier (same root, same
    bound) before evaluating anything.
    """
    if _DISK_ROOT is None:
        return None
    return _DISK_ROOT, _DISK_MAX_ENTRIES


def apply_disk_cache_config(config: Optional[Tuple[str, int]]) -> None:
    """Worker-side half of :func:`disk_cache_config`."""
    if config is None:
        disable_disk_cache()
    else:
        root, max_entries = config
        enable_disk_cache(root, max_entries=max_entries)


def snapshot_stats() -> Dict[str, Tuple[int, ...]]:
    """Counter tuples for every registered cache, for later deltas."""
    return {cache.name: (cache.stats.hits, cache.stats.misses,
                         cache.stats.evictions, cache.stats.bytes_cached,
                         cache.stats.disk_hits)
            for cache in _REGISTRY}


def stats_delta(before: Dict[str, Tuple[int, ...]],
                ) -> Dict[str, CacheStats]:
    """What each cache's counters gained since ``before``.

    This is the unit of cache accounting that crosses process and host
    boundaries: a worker snapshots before an item, computes the delta
    after, and the coordinator merges deltas with
    :func:`merge_stats_into` — summing per cache name, so two workers
    that each missed the *same* content key contribute two misses (each
    really did the work).
    """
    delta: Dict[str, CacheStats] = {}
    for name, stats in cache_stats().items():
        h0, m0, e0, b0, d0 = before.get(name, (0, 0, 0, 0, 0))
        delta[name] = CacheStats(hits=stats.hits - h0,
                                 misses=stats.misses - m0,
                                 evictions=stats.evictions - e0,
                                 bytes_cached=stats.bytes_cached - b0,
                                 disk_hits=stats.disk_hits - d0)
    return delta


def merge_stats_into(target: Dict[str, CacheStats],
                     delta: Dict[str, CacheStats]) -> None:
    """Fold one worker's per-cache delta into an aggregate mapping."""
    for name, stats in delta.items():
        target.setdefault(name, CacheStats()).merge(stats)


PARSE_CACHE = register_cache(ContentCache("parse"))
COMPILE_CACHE = register_cache(ContentCache("compile"))


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def parse_unit_cached(source: str, unit_name: str = "<unit>") -> ast.Unit:
    """Content-addressed ``parse_unit``.

    The returned Unit is shared — callers must not mutate it
    (``compile_unit`` copies the functions its inliner rewrites).
    """
    key = (unit_name, source_digest(source))
    cached = PARSE_CACHE.get(key, size=len(source))
    if cached is None:
        cached = parse_unit(source, unit_name)
        PARSE_CACHE.put(key, cached, size=len(source))
    return cached


def clear_caches() -> None:
    """Drop every registered cache's entries (all tiers, including the
    files of the disk tier) and counters."""
    for cache in _REGISTRY:
        cache.clear()


def drop_memory_tiers() -> None:
    """Empty every cache's memory tier, keeping the disk tier and the
    counters — the "new cold process, warm disk" simulation."""
    for cache in _REGISTRY:
        cache.drop_memory()


def reset_cache_stats() -> None:
    for cache in _REGISTRY:
        cache.reset_stats()


def cache_stats() -> Dict[str, CacheStats]:
    """Current counters, keyed by cache name."""
    return {cache.name: cache.stats for cache in _REGISTRY}


def compile_cache_key(source: str, unit_name: str,
                      options: Any) -> Tuple[str, str, Any]:
    """The content-addressed key for one compile: ``CompilerOptions`` is
    a frozen dataclass, so it hashes by value, not identity."""
    return (unit_name, source_digest(source), options)
