"""On-disk result cache keyed by task content + source fingerprints.

A cache entry answers: "this exact callable, with these exact arguments,
under this exact version of the simulator's source tree, produced this
value".  The key is a sha256 over

* the task fingerprint (:func:`repro.exec.task.stable_fingerprint` —
  callable reference plus a content-stable rendering of the arguments),
* the **source fingerprint** — a digest over every ``*.py`` file under
  the configured source roots (default: the installed ``repro``
  package), so editing any simulator/runtime/collective source
  invalidates every entry at once, and
* a format version, bumped when the entry layout changes.

Entries live under ``.repro-cache/<namespace>/<generation>/<key[:2]>/
<key>.pkl`` as pickled blobs, written atomically (temp file + rename) so
a crashed or concurrent run never leaves a torn entry.  The
**generation** directory is the first 12 hex digits of the source
fingerprint: every source change starts a fresh generation, and the
entries of superseded generations — which can never hit again, their
fingerprint is baked into every key — become eviction fodder that
:meth:`ResultCache.evict` sweeps wholesale before it has to consider
evicting anything current.

Unreadable or unpicklable entries are treated as misses; *corrupt*
entries (the bytes are there but do not unpickle) are additionally
dropped, while transient I/O errors (a concurrent ``os.replace``
mid-read, a momentary EPERM) leave the entry alone — it is most likely
perfectly valid and the next reader will get it.  The cache is strictly
an accelerator, never a source of truth.

The source fingerprint is memoized per root set, guarded by a cheap
stat scan (file list + mtimes + sizes): a long-lived process — the
``repro.serve`` job server in particular — re-hashes the tree only when
some ``*.py`` file actually changed, instead of serving keys computed
from stale source forever.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

from .task import PICKLE_PROTOCOL, TaskSpec, UnstableFingerprint, stable_fingerprint

__all__ = ["ResultCache", "source_fingerprint", "DEFAULT_CACHE_DIR"]

#: default cache root, relative to the working directory
DEFAULT_CACHE_DIR = ".repro-cache"

#: bump to orphan every existing entry on a layout change (2: entries
#: moved under per-source-generation directories)
_FORMAT_VERSION = 2

#: hex digits of the source fingerprint used as the generation dir name
_GENERATION_LEN = 12

#: memoized source fingerprints: roots tuple -> (stat signature, digest)
_FP_MEMO: dict = {}


def _default_roots() -> Tuple[str, ...]:
    import repro
    return (str(Path(repro.__file__).resolve().parent),)


def _source_files(roots: Tuple[str, ...]) -> List[Path]:
    files: List[Path] = []
    for root in roots:
        base = Path(root)
        if base.is_dir():
            files.extend(sorted(base.rglob("*.py")))
        elif base.exists():
            files.append(base)
    return files


def _stat_signature(files: Sequence[Path]) -> Tuple:
    """Cheap change detector: (path, mtime_ns, size) per source file.

    ~10^2 ``stat`` calls plus the ``rglob`` that lists them.  That is
    cheaper than re-hashing every file's content, but not free: measured
    at ~1.9 ms per :func:`source_fingerprint` call on a shared 2-core
    x86-64 host, and a warm cache lookup runs it twice (``task_key`` and
    ``get``), which makes it nearly all of a warm grid pass (findings in
    ``perfbench/README.md``).  Computing it once per job, or revalidating
    it on an epoch, is part of the ROADMAP open item "Make every cached
    result a function of declared inputs only".  Any edit, addition, or
    deletion of a ``*.py`` file changes the signature; an edit that
    preserves mtime *and* size (``os.utime`` games) is invisible by
    design — that is the price of the cheap scan,
    and tests that rewrite source call :func:`invalidate_fingerprint_memo`.
    """
    sig = []
    for path in files:
        try:
            st = path.stat()
            sig.append((str(path), st.st_mtime_ns, st.st_size))
        except OSError:
            sig.append((str(path), -1, -1))
    return tuple(sig)


def source_fingerprint(roots: Optional[Sequence[os.PathLike]] = None) -> str:
    """Digest of every ``*.py`` file under ``roots`` (path + content).

    Memoized per root set, revalidated by a stat scan on every call: the
    harness hashes ~10^2 files once, then re-hashes only when the file
    set, an mtime, or a size changes — so a long-lived server picks up
    source edits without restarting, while the steady-state cost stays
    at one ``stat`` per file.
    """
    key = tuple(str(Path(r).resolve()) for r in roots) if roots else _default_roots()
    files = _source_files(key)
    sig = _stat_signature(files)
    cached = _FP_MEMO.get(key)
    if cached is not None and cached[0] == sig:
        return cached[1]
    digest = hashlib.sha256()
    for root in key:
        base = Path(root)
        if base.is_dir():
            batch = sorted(base.rglob("*.py"))
        else:
            batch = [base] if base.exists() else []
        for path in batch:
            rel = path.relative_to(base) if base.is_dir() else path.name
            digest.update(str(rel).encode())
            digest.update(path.read_bytes())
    value = digest.hexdigest()
    _FP_MEMO[key] = (sig, value)
    return value


def invalidate_fingerprint_memo() -> None:
    """Forget memoized source fingerprints.

    The stat-scan guard makes this unnecessary for ordinary edits (they
    change an mtime or a size); it remains for tests that rewrite a file
    while faking its stat back to the original.
    """
    _FP_MEMO.clear()


def _is_generation_dir(name: str) -> bool:
    return (len(name) == _GENERATION_LEN
            and all(c in "0123456789abcdef" for c in name))


class ResultCache:
    """Content-addressed store of task results under ``root``."""

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        namespace: str = "exec",
        source_roots: Optional[Sequence[os.PathLike]] = None,
    ):
        self.root = Path(root) if root is not None else Path(DEFAULT_CACHE_DIR)
        self.namespace = namespace
        self.source_roots = source_roots
        # counters for reporting ("cache: 99/110 hit")
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: tasks that could not be keyed (unstable arguments) — executed
        #: normally, never cached
        self.unkeyed = 0
        #: reads that failed on a transient I/O error (entry left alone)
        self.transient_errors = 0
        #: entries dropped because their bytes did not unpickle
        self.corrupt = 0
        #: entries removed by :meth:`evict`
        self.evicted = 0

    # ------------------------------------------------------------------
    def _dir(self) -> Path:
        return self.root / self.namespace

    def generation(self) -> str:
        """Directory name of the current source generation."""
        return source_fingerprint(self.source_roots)[:_GENERATION_LEN]

    def _path(self, key: str) -> Path:
        return self._dir() / self.generation() / key[:2] / f"{key}.pkl"

    def task_key(self, task: TaskSpec) -> Optional[str]:
        """Full cache key for ``task``; None when it cannot be keyed."""
        try:
            fp = stable_fingerprint(task)
        except UnstableFingerprint:
            self.unkeyed += 1
            return None
        material = f"v{_FORMAT_VERSION}|{fp}|{source_fingerprint(self.source_roots)}"
        return hashlib.sha256(material.encode()).hexdigest()

    # ------------------------------------------------------------------
    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``.

        A missing entry and a transient I/O failure (concurrent
        ``os.replace`` mid-read, momentary EPERM) are plain misses — the
        entry, if any, stays on disk because it is most likely valid.
        Only an entry whose bytes are present but do not unpickle is
        *corrupt*, counted as a miss, and removed.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except OSError:
            self.transient_errors += 1
            self.misses += 1
            return False, None
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            self.corrupt += 1
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> bool:
        """Store ``value``; returns False (and stores nothing) when the
        value itself cannot be pickled."""
        try:
            blob = pickle.dumps(value, protocol=PICKLE_PROTOCOL)
        except Exception:
            return False
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self.puts += 1
        return True

    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        base = self._dir()
        if not base.is_dir():
            return 0
        return sum(1 for _ in base.rglob("*.pkl"))

    def total_bytes(self) -> int:
        """Disk footprint of this namespace: entries *and* temp files."""
        base = self._dir()
        if not base.is_dir():
            return 0
        total = 0
        for path in base.rglob("*"):
            try:
                if path.is_file():
                    total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Delete this namespace's entries; returns how many went.

        Also sweeps ``*.tmp`` files orphaned by a ``put()`` that died
        between ``mkstemp`` and ``os.replace`` — they are invisible to
        ``entry_count`` but consume disk forever otherwise.
        """
        removed = 0
        base = self._dir()
        if base.is_dir():
            for path in base.rglob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in base.rglob("*.tmp"):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed

    # ------------------------------------------------------------------
    def evict(
        self,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        tmp_grace_s: float = 300.0,
    ) -> dict:
        """Bound this namespace's disk usage; returns what was removed.

        Three passes, cheapest-garbage-first:

        1. ``*.tmp`` orphans older than ``tmp_grace_s`` (a live ``put``
           holds its temp file for milliseconds; anything old is the
           debris of a crashed writer);
        2. **stale generations** — entries written under a previous
           source fingerprint can never hit again (the fingerprint is in
           every key), so their whole directory goes;
        3. oldest-mtime entries of the current generation, until
           ``max_bytes`` / ``max_entries`` hold (either may be None).

        Removal is ``unlink``-based and safe against concurrent readers:
        a reader that already opened an entry keeps its file handle
        (POSIX semantics), and one that loses the race to ``open`` sees
        an ordinary miss.
        """
        out = {"tmp_removed": 0, "stale_generations": 0,
               "entries_removed": 0, "bytes_freed": 0}
        base = self._dir()
        if not base.is_dir():
            return out
        now = time.time()
        for tmp in base.rglob("*.tmp"):
            try:
                st = tmp.stat()
                if now - st.st_mtime >= tmp_grace_s:
                    tmp.unlink()
                    out["tmp_removed"] += 1
                    out["bytes_freed"] += st.st_size
            except OSError:
                pass
        current = self.generation()
        for gen_dir in [p for p in base.rglob("*")
                        if p.is_dir() and _is_generation_dir(p.name)]:
            if gen_dir.name == current:
                continue
            for path in gen_dir.rglob("*"):
                try:
                    if path.is_file():
                        size = path.stat().st_size
                        path.unlink()
                        out["bytes_freed"] += size
                        if path.suffix == ".pkl":
                            out["entries_removed"] += 1
                except OSError:
                    pass
            self._prune_empty_dirs(gen_dir)
            out["stale_generations"] += 1
        if max_bytes is not None or max_entries is not None:
            entries = []
            total = 0
            for path in base.rglob("*.pkl"):
                try:
                    st = path.stat()
                except OSError:
                    continue
                entries.append((st.st_mtime_ns, st.st_size, path))
                total += st.st_size
            count = len(entries)
            for _, size, path in sorted(entries, key=lambda e: e[0]):
                over_bytes = max_bytes is not None and total > max_bytes
                over_count = max_entries is not None and count > max_entries
                if not over_bytes and not over_count:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                count -= 1
                out["entries_removed"] += 1
                out["bytes_freed"] += size
        self.evicted += out["entries_removed"]
        return out

    @staticmethod
    def _prune_empty_dirs(top: Path) -> None:
        for dirpath, _dirnames, _filenames in os.walk(top, topdown=False):
            try:
                os.rmdir(dirpath)  # refuses (ENOTEMPTY) unless empty
            except OSError:
                pass

    def stats(self) -> dict:
        looked = self.hits + self.misses
        return {
            "root": str(self.root),
            "namespace": self.namespace,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "unkeyed": self.unkeyed,
            "transient_errors": self.transient_errors,
            "corrupt": self.corrupt,
            "evicted": self.evicted,
            "hit_rate": self.hits / looked if looked else 0.0,
        }
