"""Persistent worker-pool fan-out with deterministic result ordering.

The simulation grids this repo runs (conformance matrix cells, fuzz
seeds, benchmark sweep cells, calibration probes) are embarrassingly
parallel: every task is an independent, deterministic, CPU-bound
function call.  :class:`WorkerPool` fans them across one stdlib
:class:`~concurrent.futures.ProcessPoolExecutor` and guarantees:

* **Determinism** — :meth:`WorkerPool.map` returns results indexed by
  submission order and fires ``on_result`` in that order, so the
  caller-visible output of a parallel run is identical to the
  sequential run, regardless of completion order.
* **Warm reuse** — workers are forked once, when the pool is built
  (``fork`` where available, so the parent's imported modules come for
  free), and serve every later task.  :meth:`WorkerPool.submit` is
  thread-safe and returns a :class:`~concurrent.futures.Future`, so
  concurrent callers (the job server's tenants) share one warm pool.
* **Robustness** — at most ``jobs + 1`` tasks are in flight, so every
  in-flight task is running or next in line; with a ``task_timeout``
  at most ``jobs``, so each is dispatched onto an idle worker and its
  deadline, counted from dispatch, measures run time.  A worker crash
  (hard exit, OOM kill) breaks the executor: it is rebuilt and the
  in-flight tasks re-run *one at a time*, so a second crash is
  attributable to a single task, which then fails; each task is
  retried once.  A task that passes its ``task_timeout`` gets the
  workers killed and the executor rebuilt; its innocent siblings are
  resubmitted without being charged an attempt.  A task that times out
  on every pooled attempt gets one final **untimed inline attempt** in
  the parent — a hang specific to the worker environment completes
  there instead of failing the cell, while a genuinely divergent task
  still hangs visibly rather than being silently dropped.  A task that
  raises an ordinary exception is *not* retried (it is deterministic);
  the error text lands in its :class:`~repro.exec.task.TaskResult`.
* **Graceful degradation** — with ``jobs<=1``, with unpicklable tasks,
  or when process spawning is unavailable (restricted sandboxes), work
  runs inline in the parent with identical semantics.
* **Cold-path economics** — on an *auto* jobs request (``-j auto``,
  ``REPRO_JOBS=auto``, ``jobs<=0``), :func:`run_tasks` refuses to spawn
  a pool that cannot win: one available core (workers would time-slice
  it — ``python -m repro.perf --harness -j 2`` on a 1-CPU x86-64 host
  measured pooled 0.927x sequential) or fewer pending cells than the
  spawn-amortization threshold both run inline instead.  An explicit
  ``-j N`` is honored as stated — the caller measured their machine;
  ordering and results are identical either way.

:func:`run_tasks` is the one-call façade used by the verify/bench/
calibration harnesses; it layers the content-keyed
:class:`~repro.exec.cache.ResultCache` in front of the pool so
unchanged grid cells are skipped entirely on re-runs.
"""

from __future__ import annotations

import math
import os
import pickle
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence

from .cache import ResultCache
from .task import TaskResult, TaskSpec

__all__ = ["WorkerPool", "run_tasks", "resolve_jobs", "auto_jobs",
           "effective_cpu_count", "SPAWN_AMORTIZATION_MIN"]

#: environment variable consulted when a harness passes ``jobs=None``
JOBS_ENV = "REPRO_JOBS"

#: upper bound on worker count (grids rarely have >10^2 cells in flight)
MAX_JOBS = 64

#: pooled re-runs a task gets after a worker crash or a timeout
_RETRIES = 1

#: minimum pending cells for :func:`run_tasks` to spawn a pool at all on
#: an auto request: building a 2-worker pool, running one task and
#: closing it takes ~10 ms (9.4 ms, the median of five 21-run medians
#: on a shared 2-core x86-64 Linux host, Python 3.11), which a couple
#: of sub-10 ms cells never pay back but a grid does
SPAWN_AMORTIZATION_MIN = 4


def effective_cpu_count() -> int:
    """CPUs actually available to this process.

    ``os.cpu_count()`` reports the machine, not the allowance: under a
    CPU affinity mask or a container cgroup quota the process may own
    far fewer cores.  Prefer ``os.sched_getaffinity`` (Linux) and fall
    back to ``os.cpu_count()`` elsewhere.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:
            pass
    return max(1, os.cpu_count() or 1)


def auto_jobs() -> int:
    """Worker count for ``-j auto``: one per *available* core, at least 1.

    On a single-CPU host this returns 1, which makes ``-j auto`` run
    inline: ``python -m repro.perf --harness -j 2`` on a 1-CPU x86-64
    host measured pooled speedup 0.927 — worker spawn + IPC overhead
    with no parallelism to pay for it — so the pool must only engage
    when a second core exists.
    """
    return max(1, min(effective_cpu_count(), MAX_JOBS))


def _parse_jobs(jobs) -> Optional[int]:
    """A jobs request as an explicit worker count, or None for *auto*.

    ``None`` defers to the ``REPRO_JOBS`` environment variable and
    defaults to 1; ``"auto"``, 0, and negative values mean auto.
    """
    if jobs is None:
        jobs = os.environ.get(JOBS_ENV, "").strip() or 1
    if isinstance(jobs, str) and jobs.lower() == "auto":
        return None
    try:
        jobs = int(jobs)
    except ValueError:
        raise ValueError(
            f"jobs must be an integer or 'auto', got {jobs!r}") from None
    return None if jobs <= 0 else min(jobs, MAX_JOBS)


def resolve_jobs(jobs) -> int:
    """Normalize a jobs request (int, numeric string, ``"auto"``, None).

    ``None`` defers to the ``REPRO_JOBS`` environment variable (so
    long-standing drivers opt into parallelism without an API change)
    and defaults to 1 — sequential — when that is unset.  ``"auto"``,
    0, and negative values mean one worker per core.
    """
    count = _parse_jobs(jobs)
    return auto_jobs() if count is None else count


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _init_worker() -> None:
    # Harnesses inside a worker (e.g. fuzz_schedules within run_case)
    # must not spawn nested pools off an inherited REPRO_JOBS.
    os.environ[JOBS_ENV] = "1"


def _timed(fn, args, kwargs):
    """``(value, error, wall_s)`` of one call; never raises."""
    start = time.perf_counter()
    try:
        value, error = fn(*args, **kwargs), None
    except BaseException as exc:  # noqa: BLE001 — reported, not hidden
        value, error = None, f"{type(exc).__name__}: {exc}"
    return value, error, time.perf_counter() - start


def _call(blob: bytes):
    """Run one pickled task in a worker; the pid keys per-worker stats."""
    return (os.getpid(),) + _timed(*pickle.loads(blob))


def _run_here(task: TaskSpec, attempts: int) -> TaskResult:
    value, error, wall = _timed(task.fn, task.args, task.kwargs)
    return TaskResult(index=0, value=value, error=error, inline=True,
                      attempts=attempts, wall_s=wall)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _pool_stats(jobs: int, inline: bool = True, respawns: int = 0,
                submitted: int = 0, usage: Sequence[list] = ()) -> dict:
    """The ``stats()`` schema; ``usage`` rows are [slot, busy s, tasks]."""
    return {"jobs": jobs, "inline": inline, "respawns": respawns,
            "submitted": submitted,
            "per_worker_busy_s": [round(u[1], 6) for u in usage],
            "per_worker_tasks": [u[2] for u in usage]}


@dataclass(eq=False)
class _Job:
    task: TaskSpec
    #: the pickled ``(fn, args, kwargs)``; None runs the task inline
    blob: Optional[bytes]
    future: Future = field(default_factory=Future)
    #: pooled dispatches that count against the task
    attempts: int = 0
    #: crashes and timeouts charged to the task
    strikes: int = 0
    #: in flight at a crash: re-runs alone, so a second crash is its own
    solo: bool = False
    deadline: float = math.inf


class WorkerPool:
    """A persistent pool; ``submit``/``map`` may be called many times.

    Use as a context manager (or call :meth:`close`) so workers are
    reaped.  With ``jobs<=1`` or when worker processes cannot be
    created, the pool is *inline*: tasks run in the parent and every
    guarantee except parallelism still holds.
    """

    def __init__(self, jobs=None, *, task_timeout: Optional[float] = None):
        self.jobs = resolve_jobs(jobs)
        self.task_timeout = task_timeout
        self.respawns = 0
        self.submitted = 0
        #: worker pid -> [slot, busy seconds, tasks done]
        self._usage: Dict[int, list] = {}
        #: guards the counters, ``_closed`` and appends to ``_queue``;
        #: never held while calling into the executor
        self._lock = threading.Lock()
        self._closed = False
        #: jobs waiting for a worker; only the supervisor takes from it
        self._queue: Deque[_Job] = deque()
        #: wakes the supervisor: finished executor futures, or None.
        #: Done-callbacks only ``put`` here, so the executor's threads
        #: never wait on a lock the supervisor holds.
        self._inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        #: dispatched executor futures; supervisor-owned
        self._inflight: Dict[Future, _Job] = {}
        #: runs inline work handed over by submit() and the supervisor
        self._inline_runner = ThreadPoolExecutor(
            1, thread_name_prefix="repro-exec-inline")
        self._executor = self._build() if self.jobs > 1 else None
        self._thread = None
        if self._executor is not None:
            self._thread = threading.Thread(target=self._supervise,
                                            name="repro-exec-pool",
                                            daemon=True)
            self._thread.start()

    # -- lifecycle -----------------------------------------------------
    def _build(self) -> Optional[ProcessPoolExecutor]:
        try:
            import multiprocessing as mp
            method = "fork" if "fork" in mp.get_all_start_methods() else None
            executor = ProcessPoolExecutor(
                self.jobs, mp_context=mp.get_context(method),
                initializer=_init_worker)
            # Fork every worker now rather than at the first task, so
            # nothing the caller installs afterwards (a profiler) leaks
            # into them.  Under ``fork`` the executor's first submit
            # forks all of them (Python 3.10.8+); under ``spawn`` workers
            # start on demand and this is best-effort.
            for _ in range(self.jobs):
                executor.submit(int)
            return executor
        except Exception:
            # restricted environments (no /dev/shm, no fork): run inline
            return None

    @property
    def inline(self) -> bool:
        return self._executor is None

    def close(self) -> None:
        """Reap the workers; tasks not yet finished fail with RuntimeError."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._inbox.put(None)
        if self._thread is not None:
            self._thread.join()
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
        self._inline_runner.shutdown(wait=False)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        with self._lock:
            return _pool_stats(self.jobs, self.inline, self.respawns,
                               self.submitted, list(self._usage.values()))

    # -- execution -----------------------------------------------------
    def submit(self, task: TaskSpec) -> "Future[TaskResult]":
        """Queue ``task``; the future resolves with its TaskResult.

        Execution errors are data (``TaskResult.error``), not
        exceptions: the future only raises if the pool is closed before
        the task finishes.
        """
        blob = None
        if not self.inline:
            try:
                blob = task.payload()
            except Exception:
                pass  # not picklable: runs inline
        job = _Job(task, blob)
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            self.submitted += 1
            if blob is not None and self._executor is not None:
                self._queue.append(job)
                self._inbox.put(None)
                return job.future
        self._run_inline(job)
        return job.future

    def map(self, tasks: Sequence[TaskSpec],
            on_result: Optional[Callable[[TaskResult], None]] = None,
            ) -> List[TaskResult]:
        """Run every task; results indexed by submission order.

        ``on_result`` is invoked **in submission order** (completions
        are buffered), so progress output of a parallel run is
        byte-identical to the sequential one.
        """
        results: List[TaskResult] = []

        def report(result: TaskResult) -> None:
            result.index = len(results)
            results.append(result)
            if on_result is not None:
                on_result(result)

        if self.inline:
            # An inline pool runs in the caller's thread, task by task.
            with self._lock:
                self.submitted += len(tasks)
            for task in tasks:
                report(_run_here(task, 1))
            return results
        futures = []
        for task in tasks:
            futures.append(self.submit(task))
            while (len(results) < len(futures)
                   and futures[len(results)].done()):
                report(futures[len(results)].result())
        for future in futures[len(results):]:
            report(future.result())
        return results

    def _run_inline(self, job: _Job) -> None:
        def run() -> None:
            future = job.future
            if future.running() or future.set_running_or_notify_cancel():
                future.set_result(_run_here(job.task, job.attempts + 1))

        self._inline_runner.submit(run)

    # -- supervisor thread ---------------------------------------------
    def _supervise(self) -> None:
        while not self._closed:
            self._fill()
            if self._executor is None:
                break  # the executor could not be rebuilt
            soonest = min((j.deadline for j in self._inflight.values()),
                          default=math.inf)
            try:
                landed = self._inbox.get(
                    timeout=None if soonest == math.inf
                    else max(0.0, soonest - time.monotonic()))
            except queue.Empty:
                landed = None
            job = self._inflight.pop(landed, None)
            if job is not None and not self._harvest(landed, job):
                self._restart([job] + self._abandon())
            now = time.monotonic()
            if any(j.deadline <= now for j in self._inflight.values()):
                self._restart(self._abandon(), timed_out_at=now)
        with self._lock:
            # From here on submit() sees the pool closed or inline.
            leftover = [*self._queue]
            self._queue.clear()
        unfinished = self._abandon()
        if unfinished:
            _kill_workers(self._executor)  # closed under running tasks
        for job in leftover + unfinished:
            if not self._closed:
                self._run_inline(job)  # the executor could not be rebuilt
            elif not job.future.done():
                job.future.set_exception(
                    RuntimeError("pool closed before the task finished"))

    def _fill(self) -> None:
        # With a deadline, dispatch only onto an idle worker, so the
        # deadline (counted from dispatch) measures run time alone.
        window = self.jobs + (self.task_timeout is None)
        while self._queue and self._executor is not None:
            solo = any(j.solo for j in (self._queue[0],
                                        *self._inflight.values()))
            if len(self._inflight) >= (1 if solo else window):
                return
            job = self._queue.popleft()
            # A future cancelled while queued (a tenant dropped its job)
            # must not burn a worker slot.
            if not (job.future.running()
                    or job.future.set_running_or_notify_cancel()):
                continue
            try:
                future = self._executor.submit(_call, job.blob)
            except BrokenProcessPool:
                # A worker died while idle: nothing landed to say so.
                self._restart([job] + self._abandon())
                continue
            job.attempts += 1
            if self.task_timeout is not None:
                job.deadline = time.monotonic() + self.task_timeout
            self._inflight[future] = job
            future.add_done_callback(self._inbox.put)

    def _harvest(self, future: Future, job: _Job) -> bool:
        """Settle ``job`` from its finished future; False if the pool
        broke under it."""
        try:
            pid, value, error, wall = future.result()
        except BrokenProcessPool:
            return False
        except BaseException as exc:  # noqa: BLE001 — e.g. unpicklable value
            job.future.set_result(TaskResult(
                index=0, error=f"{type(exc).__name__}: {exc}",
                attempts=job.attempts))
            return True
        with self._lock:
            usage = self._usage.setdefault(pid, [len(self._usage), 0.0, 0])
            usage[1] += wall
            usage[2] += 1
        job.future.set_result(TaskResult(
            index=0, value=value, error=error, attempts=job.attempts,
            wall_s=wall, worker=usage[0]))
        return True

    def _abandon(self) -> List[_Job]:
        """Take back every in-flight job that has not finished cleanly."""
        jobs = [job for future, job in self._inflight.items()
                if not (future.done() and self._harvest(future, job))]
        self._inflight.clear()
        return jobs

    def _restart(self, jobs: List[_Job],
                 timed_out_at: Optional[float] = None) -> None:
        """Replace the executor and requeue ``jobs`` at the front.

        After a crash every job is charged a strike and re-runs alone.
        After a timeout the workers are killed first, and only the jobs
        past their deadline are charged; their siblings are innocent.
        """
        timeout = timed_out_at is not None
        if timeout:
            _kill_workers(self._executor)
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = self._build()
        if self._executor is not None:
            self.respawns += self.jobs
        for job in reversed(jobs):
            if timeout and job.deadline > timed_out_at:
                job.attempts -= 1  # an innocent sibling: not charged
            else:
                job.strikes += 1
                job.solo = not timeout
                if job.strikes > _RETRIES:
                    if timeout:
                        # Every pooled attempt timed out: one last
                        # untimed attempt in the parent.  A hang that was
                        # an artifact of the worker environment
                        # completes; a real one stays visible instead of
                        # becoming a silently-failed cell.
                        self._run_inline(job)
                    else:
                        job.future.set_result(TaskResult(
                            index=0, attempts=job.attempts,
                            error=f"worker crashed {job.strikes} times "
                                  f"(the process pool broke under it)"))
                    continue
            job.deadline = math.inf
            self._queue.appendleft(job)


def _kill_workers(executor: ProcessPoolExecutor) -> None:
    if hasattr(executor, "kill_workers"):  # Python 3.14+
        return executor.kill_workers()
    for proc in list((executor._processes or {}).values()):
        proc.kill()


# ----------------------------------------------------------------------
# Façade
# ----------------------------------------------------------------------
def run_tasks(
    tasks: Sequence[TaskSpec],
    jobs=None,
    *,
    cache: Optional[ResultCache] = None,
    task_timeout: Optional[float] = None,
    progress: Optional[Callable[[TaskResult], None]] = None,
    pool: Optional[WorkerPool] = None,
    stats_out: Optional[dict] = None,
) -> List[TaskResult]:
    """Run independent tasks through cache + pool; results in order.

    The cache, when given, is consulted first: hits are returned without
    executing anything, misses are executed (pooled or inline) and
    stored on success.  ``progress`` fires once per task in submission
    order.  ``stats_out`` (a dict) receives pool utilization and cache
    counters for harness reporting.  Pass ``pool`` to reuse a warm
    :class:`WorkerPool` across several calls.
    """
    t0 = time.perf_counter()
    results: List[Optional[TaskResult]] = [None] * len(tasks)
    reported = 0

    def flush(index: int, result: TaskResult) -> None:
        nonlocal reported
        results[index] = result
        if progress is not None:
            while reported < len(results) and results[reported] is not None:
                progress(results[reported])
                reported += 1

    keys: Dict[int, str] = {}
    misses: List[int] = []
    for index, task in enumerate(tasks):
        key = cache.task_key(task) if cache is not None else None
        if key is not None:
            keys[index] = key
            hit, value = cache.get(key)
            if hit:
                flush(index, TaskResult(index=index, value=value, cached=True))
                continue
        misses.append(index)

    # A fully-warm cache never pays pool startup: only spawn workers
    # when there is something to execute — and, on an auto request, only
    # when the fan-out can win.  One available core means workers
    # time-slice it; fewer misses than the amortization threshold never
    # pay back worker spawn.  An explicit -j N is honored as stated.
    # Either way the tasks run inline with identical ordering/results.
    own_pool: Optional[WorkerPool] = None
    if misses and pool is None:
        requested = _parse_jobs(jobs)
        if requested is None:
            requested = (1 if len(misses) < SPAWN_AMORTIZATION_MIN
                         else min(auto_jobs(), len(misses)))
        pool = own_pool = WorkerPool(requested, task_timeout=task_timeout)
    try:
        def landed(sub: TaskResult) -> None:
            sub.index = index = misses[sub.index]
            if cache is not None and sub.ok and index in keys:
                cache.put(keys[index], sub.value)
            flush(index, sub)

        if misses:
            pool.map([tasks[i] for i in misses], on_result=landed)
        if stats_out is not None:
            stats_out.update(pool.stats() if pool is not None
                             else _pool_stats(resolve_jobs(jobs)),
                             wall_s=round(time.perf_counter() - t0, 6),
                             tasks=len(tasks), executed=len(misses))
            if cache is not None:
                stats_out["cache"] = cache.stats()
    finally:
        if own_pool is not None:
            own_pool.close()
    return results  # type: ignore[return-value]
