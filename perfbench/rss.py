"""Peak resident set of the program's processes, read from ``/proc``.

``getrusage(...).ru_maxrss`` does not do here: a child started by fork
or vfork and exec keeps the peak its parent had when it forked, so
every probe or server would report the benchmark process's own heap,
host-speed loop included.  ``VmHWM`` is the peak of the process's own
address space since its exec.
"""

from __future__ import annotations

import os
from typing import Dict, List, Union


def peak_rss_mb(pid: Union[int, str] = "self") -> float:
    """``VmHWM`` of process ``pid``, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def tree_peak_rss_mb(pid: int) -> float:
    """The largest ``VmHWM`` of process ``pid`` and its descendants (a
    server and its pool workers)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # "pid (comm) state ppid ...": comm may hold spaces
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        children.setdefault(ppid, []).append(int(entry))
    peaks, todo = [], [pid]
    while todo:
        proc = todo.pop()
        todo.extend(children.get(proc, []))
        try:
            peaks.append(peak_rss_mb(proc))
        except (OSError, RuntimeError):  # a descendant may have exited
            if proc == pid:
                raise
    return max(peaks)
