"""The per-operation fast paths schedule exactly what the general paths do.

The runtime binds everything that does not change per call ahead of
time (cached conduit routes and fabric plans, the inline uncontended
``Hold``, frame-free ``stat``/fault guards, plain ``WaitFor`` waits) and
falls back to the general path whenever something observes the run: a
``stat=`` argument, a fault manager, or a monitor.  These tests run one
fine-grained collective program down each path and require the same
simulated times, results, traffic and trace records, then drive the
failure paths of the inline ``Hold``.
"""

import pickle
import re

import numpy as np
import pytest

from repro.faults import STAT_OK, FaultSchedule, ImageFailure, Stat
from repro.machine import MachineSpec, NetworkSpec, NodeSpec, paper_cluster
from repro.runtime.program import run_spmd
from repro.sim import (
    Acquire,
    Cell,
    DeadlockError,
    Engine,
    Hold,
    Process,
    Resource,
    Timeout,
    WaitFor,
)
from repro.verify import HBMonitor

#: (name, num_images, images_per_node, spec)
SHAPES = [
    ("4x8", 32, 8, paper_cluster(4)),
    ("numa", 16, 8, MachineSpec(2, NodeSpec(cores=8, sockets=4), NetworkSpec())),
    ("flat", 8, 1, paper_cluster(8)),
]
ITERS = 3
BASE = np.arange(1.0, 6.0)


def fine_program(ctx, iters, root, use_stat):
    """Two interleaved teams, each looping TDLB ``sync_all``, two-level
    ``co_sum`` and ``co_broadcast`` (the shape of perfbench's
    ``coll_fine``).  With ``use_stat`` every call carries ``stat=``."""
    stat = Stat() if use_stat else None
    team = yield from ctx.form_team(1 + (ctx.this_image() - 1) % 2)
    yield from ctx.change_team(team)
    me = ctx.this_image()
    out = []
    for k in range(iters):
        yield from ctx.sync_all(stat=stat)
        total = yield from ctx.co_sum(BASE * me + k, stat=stat)
        got = yield from ctx.co_broadcast(BASE * me + k, root, stat=stat)
        assert stat is None or stat.code == STAT_OK
        out.append((total, got))
    yield from ctx.end_team()
    return out, ctx.now


def _run(shape, use_stat=False, **kwargs):
    _, images, ipn, spec = shape
    return run_spmd(fine_program, num_images=images, images_per_node=ipn,
                    spec=spec, args=(ITERS, 2, use_stat), macro_events=False,
                    **kwargs)


def _traffic(res):
    return dict(res.world.conduit.counts), res.traffic


def _trace(res):
    """Trace rows with team uids normalized (the uid counter is
    process-global, so two runs in one process differ in that only)."""
    return [(t, img, op, re.sub(r"team\d+", "teamN", detail))
            for (t, img, op, detail) in res.trace]


def _results(res):
    return pickle.dumps(res.results)


@pytest.mark.parametrize("shape", SHAPES, ids=[s[0] for s in SHAPES])
class TestFastPathEquivalence:
    def test_stat_on_every_call_matches_fast_path(self, shape):
        fast = _run(shape)
        general = _run(shape, use_stat=True)
        assert fast.time == general.time
        assert _results(fast) == _results(general)
        assert _traffic(fast) == _traffic(general)
        assert (fast.world.engine.events_processed
                == general.world.engine.events_processed)
        # the reference values hold on the fast path
        team_size = shape[1] // 2
        for out, _ in fast.results:
            for k, (total, got) in enumerate(out):
                assert np.array_equal(
                    total, BASE * (team_size * (team_size + 1) // 2)
                    + team_size * k)
                assert np.array_equal(got, BASE * 2 + k)

    def test_trace_records_match_byte_for_byte(self, shape):
        fast = _run(shape, trace=True)
        general = _run(shape, use_stat=True, trace=True)
        assert fast.trace and _trace(fast) == _trace(general)
        assert repr(_trace(fast)) == repr(_trace(general))
        # tracing records; it does not move the schedule
        assert fast.time == _run(shape).time

    def test_fault_schedule_firing_after_the_run_matches(self, shape):
        fast = _run(shape)
        end = max(t for _, t in fast.results)
        late = FaultSchedule(failures=(ImageFailure(1, 10 * end),))
        faulted = _run(shape, faults=late)
        # a non-null schedule installs a manager: the general path ran
        assert faulted.world.faults is not None
        assert not faulted.world.faults.failed_procs
        assert _results(faulted) == _results(fast)
        assert max(t for _, t in faulted.results) == end
        assert _traffic(faulted) == _traffic(fast)
        # the engine clock ends at the (no-op) kill, after the program
        assert faulted.time == 10 * end

    def test_monitored_run_matches(self, shape):
        # a monitor turns off the inline Hold and the plain waits: every
        # hold goes through Resource.occupy, every wait is observed
        fast = _run(shape)
        monitor = HBMonitor()
        observed = _run(shape, monitor=monitor)
        assert observed.time == fast.time
        assert _results(observed) == _results(fast)
        assert _traffic(observed) == _traffic(fast)
        assert (observed.world.engine.events_processed
                == fast.world.engine.events_processed)
        assert not monitor.races


# ----------------------------------------------------------------------
# The inline uncontended Hold: failure paths and statistics
# ----------------------------------------------------------------------
class TestInlineHold:
    def test_contended_hold_still_blocks_and_reports_deadlock(self):
        engine = Engine()
        res = Resource(engine, capacity=1, name="bus")
        never = Cell(engine, 0, name="never")

        def owner():
            yield Acquire(res)
            yield WaitFor(never, lambda v: v > 0)  # holds res forever

        def holder():
            yield Timeout(1.0)
            yield Hold(res, 2.0)  # contended: queued behind owner

        Process(engine, owner(), name="owner", actor=0)
        Process(engine, holder(), name="holder", actor=1)
        with pytest.raises(DeadlockError) as err:
            engine.run()
        kinds = {(info.process, info.kind) for info in err.value.details}
        assert ("holder", "resource") in kinds
        target = next(info.target for info in err.value.details
                      if info.process == "holder")
        assert target is res
        assert res.queue_length == 1

    def test_uncontended_hold_is_never_blocked(self):
        engine = Engine()
        res = Resource(engine, capacity=1, name="bus")
        seen = []

        def holder():
            yield Hold(res, 2.0)
            seen.append(engine.now)

        def probe():
            yield Timeout(1.0)
            # mid-hold: granted, nothing queued, nobody recorded blocked
            seen.append((res.in_use, res.queue_length,
                         engine.blocked_descriptions))

        Process(engine, holder(), name="holder")
        Process(engine, probe(), name="probe")
        engine.run()
        assert seen == [(1, 0, []), 2.0]

    def test_release_precedes_resume(self):
        # as with occupy: at the holder's resume the resource is already
        # released and handed to the next queued waiter
        engine = Engine()
        res = Resource(engine, capacity=1, name="bus")
        seen = []

        def first():
            yield Hold(res, 1.0)
            seen.append(("first", engine.now, res.in_use, res.total_grants))

        def second():
            yield Hold(res, 1.0)
            seen.append(("second", engine.now, res.in_use, res.total_grants))

        Process(engine, first(), name="first")
        Process(engine, second(), name="second")
        engine.run()
        assert seen == [("first", 1.0, 1, 2), ("second", 2.0, 0, 2)]

    def test_kill_during_hold_releases_and_never_resumes(self):
        engine = Engine()
        res = Resource(engine, capacity=1, name="nic")
        resumed = []

        def holder():
            yield Hold(res, 5.0)
            resumed.append(engine.now)  # must never run

        proc = Process(engine, holder(), name="victim")
        engine.schedule(1.0, lambda: proc.kill(result="dead"))
        engine.run()
        assert resumed == []
        assert proc.finished and proc.result == "dead"
        assert res.idle and res.in_use == 0
        assert engine.blocked_descriptions == []
        assert engine.blocked_details == []

    def test_kill_during_hold_hands_off_to_the_queued_waiter(self):
        engine = Engine()
        res = Resource(engine, capacity=1, name="nic")
        order = []

        def first():
            yield Hold(res, 5.0)
            order.append("first")

        def second():
            yield Hold(res, 1.0)  # queued behind the killed holder
            order.append(("second", engine.now))

        victim = Process(engine, first(), name="first")
        Process(engine, second(), name="second")
        engine.schedule(2.0, victim.kill)
        engine.run()
        # the killed hold still occupies its full span, then hands off
        assert order == [("second", 6.0)]
        assert res.idle

    @staticmethod
    def _stats(res):
        return res.total_grants, res.peak_queue, res.idle, res.in_use

    def test_statistics_match_occupy(self):
        holds = [(0.0, 2.0), (0.0, 1.0), (0.5, 1.0), (3.0, 0.5), (3.0, 0.5)]

        def via_process(capacity):
            engine = Engine()
            res = Resource(engine, capacity=capacity, name="r")
            ends = []

            def user(start, dur):
                yield Timeout(start)
                yield Hold(res, dur)
                ends.append(engine.now)

            for i, (start, dur) in enumerate(holds):
                Process(engine, user(start, dur), name=f"p{i}")
            engine.run()
            return self._stats(res), sorted(ends)

        def via_occupy(capacity):
            engine = Engine()
            res = Resource(engine, capacity=capacity, name="r")
            ends = []
            for start, dur in holds:
                engine.schedule(
                    start,
                    lambda d=dur: res.occupy(d).on_trigger(
                        lambda _: ends.append(engine.now)),
                )
            engine.run()
            return self._stats(res), sorted(ends)

        for capacity in (1, 2):
            assert via_process(capacity) == via_occupy(capacity)
        (grants, peak, idle, in_use), _ = via_process(1)
        assert (grants, idle, in_use) == (len(holds), True, 0)
        assert peak >= 1  # the capacity-1 run did queue
