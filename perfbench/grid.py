"""The served-grid workload: the quick conformance grid over HTTP.

Clients submit through ``repro.serve.client.run_job`` to a job server
with ``jobs <= nproc`` pool workers and a fresh cache directory:

* a cold pass — every cell executes on the pool;
* warm passes — the same specs again, every cell a cache hit;
* a closed loop of single-cell warm verify specs, one request after the
  previous answer, in an order drawn from the seed.

The untraced run talks to ``python -m repro.serve serve`` processes, as
users do (:class:`ServerProcess`).  The traced run needs the server's
threads in the profiled process, so it starts an in-process
:class:`repro.serve.server.JobServer` on a thread (:class:`Server`).

Besides the 155-cell conformance grid, each pass carries one small §6
reduce sweep whose payload size comes from the seed: its cell values are
simulated times, so the grid has a simulated-time output to check and
report.  Every served cell and rendered table is compared with the
sequential ``run_matrix`` / in-process execution of the same cells.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.serve.client import (ServerError, get_stats, run_job,
                                shutdown_server, wait_server)
from repro.serve.server import JobServer
from repro.serve.spec import expand
from repro.verify.conformance import build_matrix, run_matrix

from spmd import Check

SERVER_THREAD = "perfbench-server"
#: fuzz seeds per conformance case (the CLI's --quick smoke setting)
FUZZ_SEEDS = 3
TENANT = "perfbench"
#: closed-loop round trips per host-speed calibration
RTT_BLOCK = 50


def pool_jobs() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass
class GridInputs:
    verify: dict
    bench: dict
    #: the verify grid's conformance cases, in cell order
    cases: list
    #: closed-loop request order: indices into ``cases``
    loop_order: List[int]

    def single_cell(self, index: int) -> dict:
        case = self.cases[index]
        return {**self.verify, "kinds": [case.kind], "algs": [case.alg],
                "shapes": [case.shape]}


def make_inputs(seed: int, tiny: bool = False) -> GridInputs:
    rng = np.random.default_rng(seed)
    verify = {"kind": "verify", "quick": True, "seeds": FUZZ_SEEDS}
    if tiny:
        verify.update(kinds=["barrier"], shapes=["2x4"])
    bench = {"kind": "bench", "experiment": "reduce",
             "nodes": [2] if tiny else [2, 4], "ipn": 8,
             "nelems": [64 + int(rng.integers(4))]}
    cases = build_matrix(quick=True, kinds=verify.get("kinds"),
                         shapes=verify.get("shapes"))
    order = [int(i) for i in rng.integers(len(cases), size=4096)]
    return GridInputs(verify, bench, cases, order)


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
@dataclass
class Reference:
    verify_records: List[dict]
    verify_table: str
    bench_values: List[float]
    bench_table: str


def reference(inputs: GridInputs) -> Reference:
    """The sequential, in-process answer for every served cell."""
    results = run_matrix(inputs.cases, seeds=FUZZ_SEEDS, jobs=1)
    records = [{"ok": True, "value": {"ok": bool(r.ok), "seeds": int(r.seeds),
                                      "detail": str(r.detail)}}
               for r in results]
    bench = expand(inputs.bench)
    values = [float(cell.task.run_inline()) for cell in bench.cells]
    bench_records = [{"ok": True, "value": v} for v in values]
    return Reference(records, expand(inputs.verify).render(records),
                     values, bench.render(bench_records))


def check_verify(records: List[dict], ref: Reference, spec: dict) -> Check:
    tally = Check()
    for got, want in zip(records, ref.verify_records):
        tally.add(bool(got.get("ok"))
                  and (got.get("value") or {}).get("ok") == want["value"]["ok"]
                  and want["value"]["ok"])
    tally.add(len(records) == len(ref.verify_records)
              and expand(spec).render(records) == ref.verify_table)
    return tally


def check_bench(records: List[dict], ref: Reference, spec: dict) -> Check:
    tally = Check()
    for got, want in zip(records, ref.bench_values):
        tally.add(bool(got.get("ok")) and got.get("value") == want)
    tally.add(len(records) == len(ref.bench_values)
              and expand(spec).render(records) == ref.bench_table)
    return tally


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
class Server:
    """A JobServer on its own thread; ``profiles`` (a
    ``layers.ThreadProfiles``) profiles it once its pool has forked."""

    def __init__(self, cache_root: Path, jobs: int, profiles=None):
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._profiles = profiles
        self.port = 0
        self.thread = threading.Thread(
            target=self._main, args=(cache_root, jobs), name=SERVER_THREAD)
        self.thread.start()
        self._ready.wait(timeout=60)
        if not self.port:
            raise RuntimeError(f"server did not start: {self._error!r}")
        self.url = f"http://127.0.0.1:{self.port}"

    def _main(self, cache_root: Path, jobs: int) -> None:
        try:
            asyncio.run(self._serve(cache_root, jobs))
        except Exception as exc:  # reported by __init__
            self._error = exc
            self._ready.set()

    async def _serve(self, cache_root: Path, jobs: int) -> None:
        app = JobServer(jobs=jobs, cache_root=cache_root)
        if self._profiles is not None:
            self._profiles.enable_here()
        server = await app.start("127.0.0.1", 0)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await app.shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            app.close()

    def close(self) -> None:
        if self.thread.is_alive():
            try:
                shutdown_server(self.url)
            except (ServerError, OSError):
                pass
            self.thread.join(timeout=60)
        if self.thread.is_alive():
            raise RuntimeError("server thread did not stop")


def counters(url: str) -> Dict[str, float]:
    """A flat snapshot of the server's ``/stats`` counters."""
    stats = get_stats(url)
    tenants = stats["jobs"]["tenants"].values()
    pool = stats["pool"]
    return {
        "executed": sum(t["executed"] for t in tenants),
        "cache_hits": sum(t["cache_hits"] for t in tenants),
        "deduped": sum(t["deduped"] for t in tenants),
        "failed": sum(t["failed"] for t in tenants),
        "hits": stats["cache"]["hits"],
        "misses": stats["cache"]["misses"],
        "busy_s": sum(pool["per_worker_busy_s"]),
        "respawns": pool["respawns"],
    }


# ----------------------------------------------------------------------
# measured passes
# ----------------------------------------------------------------------
@dataclass
class Cycle:
    """Samples and counters accumulated over one or more servers."""

    cold_s: List[float] = field(default_factory=list)
    warm_s: List[float] = field(default_factory=list)
    rtt_s: List[float] = field(default_factory=list)
    cells: int = 0
    sim_time_s: float = 0.0
    #: ``/stats`` counter deltas over the cold passes, and over everything
    cold_stats: Dict[str, float] = field(default_factory=dict)
    stats: Dict[str, float] = field(default_factory=dict)
    check: Check = field(default_factory=Check)


def _accumulate(into: Dict[str, float], before: Dict[str, float],
                after: Dict[str, float]) -> None:
    for key, value in after.items():
        into[key] = into.get(key, 0) + value - before[key]


def _pass(url: str, inputs: GridInputs, ref: Reference, cycle: Cycle,
          speed=None) -> float:
    """One pass of both specs: its wall time, scaled by ``speed`` (a
    ``hostspeed.HostSpeed``) if given."""
    if speed is not None:
        speed.start()
    t0 = perf_counter()
    try:
        verify = run_job(url, inputs.verify, tenant=TENANT)
        bench = run_job(url, inputs.bench, tenant=TENANT)
    except ServerError:
        cycle.check.add(False)
        return perf_counter() - t0
    wall = perf_counter() - t0
    if speed is not None:
        wall *= speed.scale()
    cycle.check.merge(check_verify(verify, ref, inputs.verify))
    cycle.check.merge(check_bench(bench, ref, inputs.bench))
    cycle.cells = len(verify) + len(bench)
    cycle.sim_time_s = sum(float(r.get("value") or 0.0) for r in bench)
    return wall


@contextlib.contextmanager
def one_cpu(pid: Optional[int]):
    """Run the calling thread and the main thread of process ``pid`` (the
    server's event loop) on one CPU; a no-op for ``pid=None``.

    A single-cell round trip is a few short hand-offs between client and
    server.  Spread over two CPUs, every hand-off wakes the other CPU, and
    on a shared host that wake-up latency swings from run to run: the
    loop's p90 ranged 6.8-22.5 ms over ten runs on a 2-core host.  On one
    CPU a hand-off is a plain context switch.
    """
    if pid is None:
        yield
        return
    mine, theirs = os.sched_getaffinity(0), os.sched_getaffinity(pid)
    cpu = {max(mine & theirs or mine)}
    os.sched_setaffinity(0, cpu)
    os.sched_setaffinity(pid, cpu)
    try:
        yield
    finally:
        os.sched_setaffinity(0, mine)
        try:
            os.sched_setaffinity(pid, theirs)
        except ProcessLookupError:
            pass


def run_cycle(url: str, inputs: GridInputs, ref: Reference, cycle: Cycle,
              order: Iterator[int], until: float, warm_passes: int,
              min_requests: int, server_pid: Optional[int] = None,
              speed=None) -> None:
    """On a server with an empty cache: a cold pass, then warm passes
    for half of the time left until ``until`` (``perf_counter`` time), and
    closed-loop single-cell requests for the next indices of ``order``
    for the other half — at least ``warm_passes`` and ``min_requests``.
    The warm passes and the closed loop run on one CPU with
    ``server_pid`` (:func:`one_cpu`).
    Timings are scaled by ``speed`` (a ``hostspeed.HostSpeed``) if given."""
    first = counters(url)
    cycle.cold_s.append(_pass(url, inputs, ref, cycle, speed))
    _accumulate(cycle.cold_stats, first, counters(url))
    warm_until = (perf_counter() + until) / 2
    done = 0
    # warm cells never reach the pool: client and server take turns, on
    # the CPU where the host-speed loop runs too
    with one_cpu(server_pid):
        while done < warm_passes or perf_counter() < warm_until:
            cycle.warm_s.append(_pass(url, inputs, ref, cycle, speed))
            done += 1
        _closed_loop(url, inputs, ref, cycle, order, until, min_requests,
                     speed)
    _accumulate(cycle.stats, first, counters(url))


def _closed_loop(url: str, inputs: GridInputs, ref: Reference, cycle: Cycle,
                 order: Iterator[int], until: float, min_requests: int,
                 speed) -> None:
    block: List[float] = []

    def flush():
        # one host-speed factor per block of round trips
        factor = 1.0 if speed is None else speed.scale()
        cycle.rtt_s.extend(rtt * factor for rtt in block)
        block.clear()

    if speed is not None:
        speed.start()
    done = 0
    while done < min_requests or perf_counter() < until:
        index = next(order)
        done += 1
        t0 = perf_counter()
        try:
            records = run_job(url, inputs.single_cell(index), tenant=TENANT)
        except ServerError:
            cycle.check.add(False)
            continue
        block.append(perf_counter() - t0)
        want = ref.verify_records[index]["value"]["ok"]
        cycle.check.add(len(records) == 1 and bool(records[0].get("ok"))
                        and records[0]["value"]["ok"] == want and want)
        if len(block) == RTT_BLOCK:
            flush()
    if block:
        flush()


# ----------------------------------------------------------------------
# a server process, as users run it
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro.serve serve`` on a free port.  ``setup_s`` is
    the time from launching it to its first answered request."""

    def __init__(self, root: Path, cache_root: Path, jobs: int, env: dict):
        self.url: Optional[str] = None
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "serve", "--port", "0",
             "-j", str(jobs), "--cache-dir", str(cache_root)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.url = line.split()[-1]
            if not wait_server(self.url, timeout=30.0, interval=0.005):
                raise RuntimeError("server never answered /healthz")
        except BaseException:
            self.close()
            raise
        self.setup_s = perf_counter() - t0

    def close(self) -> None:
        if self.proc.poll() is None:
            if self.url is not None:
                try:
                    shutdown_server(self.url)
                except (ServerError, OSError):
                    pass
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
