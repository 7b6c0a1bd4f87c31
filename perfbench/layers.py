"""Per-layer attribution of a deterministic profile.

A traced pass runs under ``cProfile``; :func:`self_times` then folds
the profile's self time into the repository's layers by the module that
owns each function:

* ``repro/sim/{engine,process,primitives}.py`` and
  ``repro/collectives/macro.py`` are layers of their own, split from
  their packages;
* ``repro/exec/{cache,task}.py`` form ``exec.cache`` (keys and store),
  the rest of ``repro/exec`` forms ``exec.pool``;
* every other ``repro/<package>`` is one layer; stray ``repro`` modules
  (``sim/errors.py``, ``calibration.py``, ...) go to ``repro_other``;
* NumPy's Python files and NumPy builtins form ``numpy``; the
  benchmark's own files (its programs and checks) form ``harness``.

Library code — the standard library and builtins — works for whoever
called it, so its self time is charged to the layers of its callers:
``pathlib`` walking the source tree for ``source_fingerprint`` is
``exec.cache`` time, ``heapq.heappush`` from the engine is engine time.
Library code called from several layers is split by the time each
caller spent in it, through chains of library calls.  What no layer
called (thread and event-loop plumbing, the harness's own library
calls) is ``stdlib``.  The layer self times therefore sum to the
profile's total self time, which :func:`self_times` also returns.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

LAYERS = (
    "sim.engine", "sim.process", "sim.primitives", "runtime",
    "collectives", "collectives.macro", "machine", "teams", "faults",
    "apps", "exec.cache", "exec.pool", "serve", "verify", "bench",
    "repro_other", "numpy", "harness", "stdlib",
)

_SPLIT_FILES = {
    "sim/engine.py": "sim.engine",
    "sim/process.py": "sim.process",
    "sim/primitives.py": "sim.primitives",
    "collectives/macro.py": "collectives.macro",
    "exec/cache.py": "exec.cache",
    "exec/task.py": "exec.cache",
}
_PACKAGES = {"runtime", "collectives", "machine", "teams", "faults", "apps",
             "serve", "verify", "bench"}

_HARNESS_DIR = str(Path(__file__).resolve().parent) + os.sep


def _repro_dir() -> str:
    import repro
    return str(Path(repro.__file__).resolve().parent) + os.sep


class LayerMap:
    """Memoized ``profile function key -> layer`` classifier."""

    def __init__(self):
        self._repro = _repro_dir()
        self._memo: Dict[str, str] = {}

    def of_file(self, filename: str) -> str:
        layer = self._memo.get(filename)
        if layer is None:
            layer = self._classify(filename)
            self._memo[filename] = layer
        return layer

    def _classify(self, filename: str) -> str:
        path = os.path.realpath(filename) if os.path.isabs(filename) else filename
        if path.startswith(self._repro):
            rel = path[len(self._repro):].replace(os.sep, "/")
            if rel in _SPLIT_FILES:
                return _SPLIT_FILES[rel]
            package = rel.split("/", 1)[0]
            if package in _PACKAGES:
                return package
            return "exec.pool" if package == "exec" else "repro_other"
        if f"{os.sep}numpy{os.sep}" in path:
            return "numpy"
        if path.startswith(_HARNESS_DIR):
            return "harness"
        return "stdlib"

    def of_function(self, func: Tuple[str, int, str]) -> Optional[str]:
        """Layer of a profiled function; None for library code (the
        standard library and builtins other than NumPy's)."""
        filename, _line, name = func
        if filename == "~":
            return "numpy" if "numpy" in name else None
        layer = self.of_file(filename)
        return None if layer == "stdlib" else layer


def self_times(stats: pstats.Stats) -> Tuple[Dict[str, float], float, int]:
    """``(self seconds per layer, total self seconds, total calls)``."""
    layers = LayerMap()
    entries = stats.stats
    owner = {func: layers.of_function(func) for func in entries}
    shares = _library_shares(entries, owner)
    out = {layer: 0.0 for layer in LAYERS}
    total = 0.0
    calls = 0
    for func, (_cc, nc, tt, _ct, callers) in entries.items():
        total += tt
        calls += nc
        if owner[func] is not None:
            out[owner[func]] += tt
            continue
        rest = tt
        for caller, info in callers.items():
            for layer, share in shares.get(caller, _UNOWNED).items():
                out[layer] += info[2] * share
            rest -= info[2]
        out["stdlib"] += rest
    return out, total, calls


_UNOWNED = {"stdlib": 1.0}


def _library_shares(entries, owner, rounds: int = 64):
    """Layer shares of every function's work, as its callees see it.

    A function of a layer is all that layer.  Library code (stdlib,
    builtins) works for whoever called it: its shares are its callers'
    shares, weighted by the time spent under it from each caller, found
    by iterating to a fixed point (library call chains are short; the
    round cap only guards recursion).  Library code reached only from the
    benchmark's own files or from no known caller stays ``stdlib``.
    """
    shares = {}
    for func, layer in owner.items():
        if layer == "harness":
            shares[func] = _UNOWNED
        elif layer is not None:
            shares[func] = {layer: 1.0}
    library = [func for func, layer in owner.items() if layer is None]
    for func in library:
        shares[func] = _UNOWNED
    for _ in range(rounds):
        changed = False
        for func in library:
            mix: Dict[str, float] = {}
            weight = 0.0
            for caller, info in entries[func][4].items():
                w = info[3] or 1e-12 * info[1]
                weight += w
                for layer, share in shares.get(caller, _UNOWNED).items():
                    mix[layer] = mix.get(layer, 0.0) + w * share
            new = ({layer: v / weight for layer, v in mix.items()}
                   if weight > 0 else _UNOWNED)
            if new != shares[func]:
                shares[func] = new
                changed = True
        if not changed:
            break
    return shares


class ThreadProfiles:
    """cProfile profilers for the current thread and for every thread
    started while :meth:`hook_new_threads` is active.

    ``cProfile.Profile.enable`` only profiles the calling thread, so a
    server answering on its own threads needs one profiler per thread.
    """

    def __init__(self, timer=None):
        self._timer = timer
        self._lock = threading.Lock()
        self._profiles: List[cProfile.Profile] = []
        self._skip: set = set()

    def enable_here(self) -> cProfile.Profile:
        """Start profiling the calling thread."""
        prof = cProfile.Profile(self._timer) if self._timer else cProfile.Profile()
        with self._lock:
            self._profiles.append(prof)
        prof.enable()
        return prof

    def skip_thread(self, name: str) -> None:
        """Leave threads of this name to enable their own profiler
        (a thread that forks must not hand a profiler to its children)."""
        self._skip.add(name)

    def _hook(self, _frame, _event, _arg) -> None:
        sys.setprofile(None)
        if threading.current_thread().name not in self._skip:
            self.enable_here()

    def hook_new_threads(self, on: bool) -> None:
        threading.setprofile(self._hook if on else None)

    def stats(self) -> pstats.Stats:
        """Merged statistics; call after every profiled thread stopped
        (the calling thread's own profiler is disabled here)."""
        with self._lock:
            profiles = list(self._profiles)
        for prof in profiles:
            prof.disable()
        merged = pstats.Stats(profiles[0])
        for prof in profiles[1:]:
            merged.add(prof)
        return merged
