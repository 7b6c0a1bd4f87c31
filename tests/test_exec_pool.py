"""The exec worker pool: ordering, fallback layers, crash recovery.

The pool's contract (see ``docs/parallel.md``) is that a parallel run is
indistinguishable from a sequential one except in wall-clock time, and
that misbehaving tasks — raising, hanging, hard-crashing the worker —
cost only their own result.  These tests exercise each clause with real
worker processes where the sandbox allows them; the pool transparently
degrades to inline execution where it does not, and every assertion
below holds either way.
"""

import os
import threading
import time

import pytest

from repro.exec import TaskSpec, WorkerPool, resolve_jobs, run_tasks
from repro.exec.pool import JOBS_ENV, MAX_JOBS


# ----------------------------------------------------------------------
# Module-level task bodies (workers import them by reference)
# ----------------------------------------------------------------------
def square(x):
    return x * x


def boom(x):
    raise ValueError(f"bad cell {x}")


def crash_once(sentinel):
    """Hard-exit the worker on the first attempt, succeed on the retry."""
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(17)
    return "recovered"


def crash_always(_):
    os._exit(17)


def napper(seconds):
    time.sleep(seconds)
    return "slept"


def late_env_and_pid():
    time.sleep(0.05)  # long enough that both workers take a share
    return os.environ.get("REPRO_TEST_LATE"), os.getpid()


def hang_in_worker(seconds):
    """Hang only inside a pool worker; complete instantly when run
    inline in the parent — models environment-induced hangs."""
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        time.sleep(seconds)
    return "inline-ok"


# ----------------------------------------------------------------------
class TestResolveJobs:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_env_opt_in(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "8")
        assert resolve_jobs(2) == 2

    def test_auto_is_effective_cpu_count(self):
        from repro.exec.pool import effective_cpu_count
        assert resolve_jobs("auto") == min(effective_cpu_count(), MAX_JOBS)

    def test_auto_falls_back_to_inline_on_single_cpu(self, monkeypatch):
        # `python -m repro.perf --harness -j 2` on a 1-CPU host measured
        # pooled speedup 0.927 — with one core available, -j auto must
        # mean "run inline".
        import repro.exec.pool as pool_mod
        monkeypatch.setattr(pool_mod.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        assert pool_mod.auto_jobs() == 1
        assert resolve_jobs("auto") == 1

    def test_auto_respects_affinity_mask_not_machine_size(self, monkeypatch):
        # A 64-core machine with the process pinned to 2 cores gets 2
        # workers, not 64.
        import repro.exec.pool as pool_mod
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(pool_mod.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        assert pool_mod.auto_jobs() == 2

    def test_effective_cpu_count_survives_missing_affinity(self, monkeypatch):
        # Platforms without sched_getaffinity (macOS/Windows) fall back
        # to cpu_count.
        import repro.exec.pool as pool_mod
        monkeypatch.setattr(pool_mod.os, "sched_getaffinity", None,
                            raising=False)
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 5)
        from repro.exec.pool import effective_cpu_count
        assert effective_cpu_count() == 5

    def test_zero_and_negative_mean_auto(self):
        assert resolve_jobs(0) == resolve_jobs("auto")
        assert resolve_jobs(-4) == resolve_jobs("auto")

    def test_capped(self):
        assert resolve_jobs(10_000) == MAX_JOBS

    def test_numeric_string(self):
        assert resolve_jobs("2") == 2

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs("fast")


# ----------------------------------------------------------------------
class TestOrderingAndFallback:
    def test_inline_map_preserves_order(self):
        tasks = [TaskSpec(square, (i,)) for i in range(7)]
        with WorkerPool(jobs=1) as pool:
            results = pool.map(tasks)
        assert [r.value for r in results] == [i * i for i in range(7)]
        assert all(r.inline for r in results)

    def test_pooled_matches_inline(self):
        tasks = [TaskSpec(square, (i,)) for i in range(20)]
        with WorkerPool(jobs=1) as seq, WorkerPool(jobs=2) as par:
            a = seq.map([TaskSpec(square, (i,)) for i in range(20)])
            b = par.map(tasks)
        assert [r.value for r in a] == [r.value for r in b]
        assert [r.index for r in b] == list(range(20))

    def test_on_result_fires_in_submission_order(self):
        seen = []
        tasks = [TaskSpec(square, (i,)) for i in range(16)]
        with WorkerPool(jobs=2) as pool:
            pool.map(tasks, on_result=lambda r: seen.append(r.index))
        assert seen == list(range(16))

    def test_closures_fall_back_inline(self):
        captured = 3
        tasks = [TaskSpec(square, (2,)),
                 TaskSpec(lambda: captured * 2)]
        with WorkerPool(jobs=2) as pool:
            results = pool.map(tasks)
        assert results[0].value == 4
        assert results[1].value == 6
        assert results[1].inline  # the lambda never left the parent

    def test_raising_task_reports_error_and_siblings_survive(self):
        tasks = [TaskSpec(square, (1,)), TaskSpec(boom, (7,)),
                 TaskSpec(square, (3,))]
        with WorkerPool(jobs=2) as pool:
            results = pool.map(tasks)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert "ValueError" in results[1].error
        assert "bad cell 7" in results[1].error

    def test_pool_reuse_across_maps(self):
        with WorkerPool(jobs=2) as pool:
            first = pool.map([TaskSpec(square, (i,)) for i in range(6)])
            second = pool.map([TaskSpec(square, (i,)) for i in range(6, 12)])
        assert [r.value for r in first] == [i * i for i in range(6)]
        assert [r.value for r in second] == [i * i for i in range(6, 12)]

    def test_explicit_chunk_size(self):
        tasks = [TaskSpec(square, (i,)) for i in range(9)]
        with WorkerPool(jobs=2) as pool:
            results = pool.map(tasks)
        assert [r.value for r in results] == [i * i for i in range(9)]


# ----------------------------------------------------------------------
def _pool_is_real(pool) -> bool:
    """Crash/timeout semantics need actual worker processes."""
    return not pool.inline


class TestRobustness:
    def test_worker_crash_retried_once(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        tasks = [TaskSpec(square, (5,)), TaskSpec(crash_once, (sentinel,))]
        with WorkerPool(jobs=2) as pool:
            if not _pool_is_real(pool):
                pytest.skip("no worker processes in this environment")
            results = pool.map(tasks)
        assert results[0].value == 25
        assert results[1].value == "recovered"
        assert pool.respawns >= 1

    def test_poison_task_errors_out_but_siblings_finish(self, tmp_path):
        tasks = [TaskSpec(crash_always, (0,)), TaskSpec(square, (6,))]
        with WorkerPool(jobs=2) as pool:
            if not _pool_is_real(pool):
                pytest.skip("no worker processes in this environment")
            results = pool.map(tasks)
        assert not results[0].ok
        assert "crash" in results[0].error
        assert results[1].value == 36

    def test_task_timeout_kills_only_the_stuck_task(self):
        tasks = [TaskSpec(hang_in_worker, (30.0,)), TaskSpec(square, (4,))]
        with WorkerPool(jobs=2, task_timeout=0.5) as pool:
            if not _pool_is_real(pool):
                pytest.skip("no worker processes in this environment")
            t0 = time.perf_counter()
            results = pool.map(tasks)
            wall = time.perf_counter() - t0
        # the hung worker is killed; the sibling is unaffected; the
        # stuck task completes on its final inline attempt
        assert results[0].value == "inline-ok"
        assert results[0].inline
        assert results[1].value == 16
        assert not results[1].inline
        assert wall < 20  # nowhere near the 30s nap

    def test_timeout_retry_then_inline_fallback(self):
        """The full escalation ladder: pooled attempt times out, the
        retry times out too, then the task gets one untimed inline
        attempt in the parent and succeeds."""
        tasks = [TaskSpec(hang_in_worker, (30.0,)), TaskSpec(square, (9,))]
        with WorkerPool(jobs=2, task_timeout=0.4) as pool:
            if not _pool_is_real(pool):
                pytest.skip("no worker processes in this environment")
            results = pool.map(tasks)
        assert results[0].value == "inline-ok"
        assert results[0].inline
        # two pooled starts + the inline attempt
        assert results[0].attempts == 3
        assert results[1].value == 81
        assert pool.respawns >= 2  # one kill per timed-out pooled attempt


# ----------------------------------------------------------------------
class TestRunTasksFacade:
    def test_results_and_stats(self):
        stats = {}
        results = run_tasks([TaskSpec(square, (i,)) for i in range(5)],
                            jobs=2, stats_out=stats)
        assert [r.value for r in results] == [0, 1, 4, 9, 16]
        assert stats["tasks"] == 5
        assert stats["executed"] == 5
        assert stats["jobs"] == 2

    def test_progress_in_submission_order(self):
        seen = []
        run_tasks([TaskSpec(square, (i,)) for i in range(10)], jobs=2,
                  progress=lambda r: seen.append(r.index))
        assert seen == list(range(10))

    def test_sequential_default(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        stats = {}
        results = run_tasks([TaskSpec(square, (3,))], stats_out=stats)
        assert results[0].value == 9
        assert stats["jobs"] == 1

    def test_external_pool_reused(self):
        with WorkerPool(jobs=2) as pool:
            a = run_tasks([TaskSpec(square, (i,)) for i in range(4)],
                          pool=pool)
            b = run_tasks([TaskSpec(square, (i,)) for i in range(4, 8)],
                          pool=pool)
        assert [r.value for r in a + b] == [i * i for i in range(8)]


class TestBatchEncoding:
    """Tasks are pickled once, in the parent, before they are queued."""

    def test_unpicklable_detected_in_batch_and_run_inline(self):
        tasks = [TaskSpec(square, (i,)) for i in range(6)]
        tasks[2] = TaskSpec(lambda: "closure")  # not picklable
        with WorkerPool(jobs=2) as pool:
            real = _pool_is_real(pool)
            results = pool.map(tasks)
        expected = [0, 1, "closure", 9, 16, 25]
        assert [r.value for r in results] == expected
        if real:
            assert results[2].inline
            # its picklable siblings still went to the workers
            assert not results[0].inline and not results[5].inline

    def test_retry_reencodes_from_specs(self, tmp_path):
        """A crash retry re-runs the task from its spec."""
        sentinel = tmp_path / "crashed-once"
        with WorkerPool(jobs=2) as pool:
            if not _pool_is_real(pool):
                pytest.skip("no worker processes in this environment")
            results = pool.map([TaskSpec(crash_once, (str(sentinel),))]
                               + [TaskSpec(square, (i,)) for i in range(5)])
        assert results[0].value == "recovered"
        assert [r.value for r in results[1:]] == [i * i for i in range(5)]
        assert results[0].attempts >= 1


class TestRebuilds:
    """Crashes and timeouts rebuild the executor; the pool keeps going."""

    def test_pool_serves_after_crash_and_timeout_rebuilds(self, tmp_path):
        squares = [TaskSpec(square, (i,)) for i in range(8)]
        with WorkerPool(jobs=2, task_timeout=0.5) as pool:
            if not _pool_is_real(pool):
                pytest.skip("no worker processes in this environment")
            crashed = pool.map([TaskSpec(crash_once,
                                         (str(tmp_path / "once"),))]
                               + squares)
            after_crash = pool.map(squares)
            respawns = pool.respawns
            timed_out = pool.map([TaskSpec(hang_in_worker, (30.0,))]
                                 + squares)
            after_timeout = pool.map(squares)
        expected = [i * i for i in range(8)]
        assert crashed[0].value == "recovered"
        assert respawns >= 1
        assert timed_out[0].value == "inline-ok"
        assert pool.respawns > respawns
        for results in (crashed[1:], after_crash, timed_out[1:],
                        after_timeout):
            assert [r.value for r in results] == expected
        assert not any(r.inline for r in after_crash + after_timeout)

    def test_repeated_crash_and_timeout_rebuilds_never_hang(self):
        """Crashes and kills land while the supervisor is dispatching or
        replacing the executor; no interleaving may wedge the pool."""
        def rounds(pool, out):
            for _ in range(4):
                for bad in (TaskSpec(crash_always, (0,)),
                            TaskSpec(hang_in_worker, (30.0,))):
                    out.append(pool.map(
                        [TaskSpec(square, (i,)) for i in range(3)] + [bad]
                        + [TaskSpec(square, (i,)) for i in range(3, 6)]))

        pool = WorkerPool(jobs=2, task_timeout=0.3)
        if not _pool_is_real(pool):
            pool.close()
            pytest.skip("no worker processes in this environment")
        out = []
        runner = threading.Thread(target=rounds, args=(pool, out),
                                  daemon=True)
        runner.start()
        runner.join(timeout=60)
        # a wedged pool is left unclosed: close() would hang as well
        assert not runner.is_alive(), "pool wedged during a rebuild"
        pool.close()
        assert len(out) == 8
        squares = [i * i for i in range(6)]
        for crashed, timed_out in zip(out[::2], out[1::2]):
            assert "crash" in crashed[3].error
            assert timed_out[3].value == "inline-ok"
            for results in (crashed, timed_out):
                assert [r.value for r in results[:3] + results[4:]] == squares

    def test_failed_rebuild_finishes_queued_work_inline(self):
        """A worker that dies while idle breaks the executor; if it
        cannot be rebuilt, pending and later tasks run inline."""
        import signal

        with WorkerPool(jobs=2) as pool:
            if not _pool_is_real(pool):
                pytest.skip("no worker processes in this environment")
            pids = {r.value for r in pool.map([TaskSpec(os.getpid)] * 4)}
            pool._build = lambda: None  # the sandbox stops allowing forks
            os.kill(pids.pop(), signal.SIGKILL)
            time.sleep(0.5)
            done = []
            runner = threading.Thread(
                target=lambda: done.append(
                    pool.map([TaskSpec(square, (i,)) for i in range(5)])),
                daemon=True)
            runner.start()
            runner.join(timeout=30)
            assert not runner.is_alive(), "queued work stranded"
            assert pool.inline
            assert pool.map([TaskSpec(square, (7,))])[0].value == 49
        assert [r.value for r in done[0]] == [i * i for i in range(5)]

    def test_crash_isolated_to_the_poison_task(self):
        """Siblings in flight when the poison task kills its worker are
        re-run on workers, not charged with its crash."""
        tasks = ([TaskSpec(square, (i,)) for i in range(3)]
                 + [TaskSpec(crash_always, (0,)), TaskSpec(napper, (0.3,))]
                 + [TaskSpec(square, (i,)) for i in range(3, 7)])
        with WorkerPool(jobs=2) as pool:
            if not _pool_is_real(pool):
                pytest.skip("no worker processes in this environment")
            results = pool.map(tasks)
        poison = results[3]
        assert not poison.ok
        assert "crash" in poison.error
        siblings = results[:3] + results[4:]
        assert [r.value for r in siblings] == (
            [0, 1, 4, "slept", 9, 16, 25, 36])
        assert all(r.ok and not r.inline and r.worker is not None
                   for r in siblings)


class TestSubmit:
    def test_workers_forked_when_the_pool_is_built(self, monkeypatch):
        """What the parent changes after building the pool (an installed
        profiler, an environment variable) never reaches its workers."""
        with WorkerPool(jobs=2) as pool:
            if not _pool_is_real(pool):
                pytest.skip("no worker processes in this environment")
            monkeypatch.setenv("REPRO_TEST_LATE", "set after the fork")
            results = pool.map([TaskSpec(late_env_and_pid)] * 6)
        assert {r.value[0] for r in results} == {None}
        assert len({r.value[1] for r in results}) == 2

    def test_deadline_counts_run_time_not_queueing(self):
        """With a deadline, a task is dispatched only onto an idle
        worker: three tasks of 0.6x the timeout on two workers all
        finish pooled, none is mistaken for a hang."""
        with WorkerPool(jobs=2, task_timeout=1.0) as pool:
            if not _pool_is_real(pool):
                pytest.skip("no worker processes in this environment")
            results = pool.map([TaskSpec(napper, (0.6,))] * 3)
        assert [r.value for r in results] == ["slept"] * 3
        assert pool.respawns == 0
        assert not any(r.inline for r in results)

    def test_concurrent_submit_with_task_timeout(self):
        """Two threads share one pool with a deadline, as the job
        server's tenants do: the hung task ends on its inline attempt,
        every other task stays pooled."""
        barrier = threading.Barrier(2)
        futures = {}

        def tenant(name, tasks):
            barrier.wait()
            futures[name] = [pool.submit(task) for task in tasks]

        with WorkerPool(jobs=2, task_timeout=0.4) as pool:
            if not _pool_is_real(pool):
                pytest.skip("no worker processes in this environment")
            threads = [
                threading.Thread(target=tenant, args=(
                    "a", [TaskSpec(hang_in_worker, (30.0,))]
                    + [TaskSpec(square, (i,)) for i in range(4)])),
                threading.Thread(target=tenant, args=(
                    "b", [TaskSpec(square, (i,)) for i in range(4, 10)])),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            a = [f.result(timeout=30) for f in futures["a"]]
            b = [f.result(timeout=30) for f in futures["b"]]
        assert a[0].value == "inline-ok"
        assert a[0].inline
        assert [r.value for r in a[1:]] == [0, 1, 4, 9]
        assert [r.value for r in b] == [i * i for i in range(4, 10)]
        assert not any(r.inline for r in a[1:] + b)
