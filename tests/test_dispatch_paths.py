"""The engine's two dispatch paths are interchangeable.

``Engine.run`` drains the queue through the lean ``_run_fast`` loop when
nothing observes or bounds the run, and through the per-event ``step()``
loop when a ``trace`` callback, a monitor, a ``tiebreak_seed`` or an
``until`` horizon is attached.  The golden digests pin the ``step()``
loop (they attach an engine trace); these tests pin the lean loop to it:

* runtime programs run once on a plain engine and once on an engine with
  a no-op trace, and must agree on final time, per-image results, event
  count, traffic counters and the runtime-level operation trace;
* the failure edges of the lean loop — the ``max_events`` ceiling and a
  callback raising partway through a same-instant batch — must leave the
  same counters and the same pending queue as the ``step()`` loop, and a
  second ``run()`` must finish the remainder in the same order.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.machine import build_machine, paper_cluster
from repro.runtime.program import run_spmd
from repro.sim import Engine, Process, SimulationLimitExceeded, Timeout
from repro.verify import HBMonitor


# ----------------------------------------------------------------------
# lean loop vs step() loop on runtime programs
# ----------------------------------------------------------------------
def _barrier_main(ctx, iters):
    for _ in range(iters):
        yield from ctx.sync_all()
    return ctx.this_image()


def _co_sum_main(ctx):
    total = yield from ctx.co_sum(ctx.this_image())
    return total


def _mix_main(ctx, iters, root):
    """Two interleaved teams looping ``sync_all``, ``co_sum`` and
    ``co_broadcast`` — the fine-grained collective mix."""
    base = np.arange(1.0, 5.0)
    team = yield from ctx.form_team(1 + (ctx.this_image() - 1) % 2)
    yield from ctx.change_team(team)
    me = ctx.this_image()
    out = []
    for k in range(iters):
        yield from ctx.sync_all()
        total = yield from ctx.co_sum(base * me + k)
        got = yield from ctx.co_broadcast(base * me + k, root)
        out.append((total.tolist(), got.tolist()))
    yield from ctx.end_team()
    return out


#: (name, main, args, nodes, images per node)
PROGRAMS = [
    ("golden_barrier_2x4", _barrier_main, (3,), 2, 4),
    ("golden_co_sum_2x4", _co_sum_main, (), 2, 4),
    ("mix_64x8", _mix_main, (2, 5), 64, 8),
]


def _run(main, args, nodes, ipn, traced):
    engine = Engine(trace=(lambda t, label: None) if traced else None)
    machine = build_machine(engine, paper_cluster(nodes), nodes * ipn,
                            images_per_node=ipn)
    res = run_spmd(main, machine=machine, args=args, trace=True,
                   macro_events=False)
    trace = [(t, img, op, re.sub(r"team\d+", "teamN", detail))
             for (t, img, op, detail) in res.trace]
    return {
        "time": res.time,
        "results": res.results,
        "events": engine.events_processed,
        "traffic": (res.traffic, dict(res.world.conduit.counts)),
        "trace": trace,
    }


@pytest.mark.parametrize("name,main,args,nodes,ipn", PROGRAMS,
                         ids=[p[0] for p in PROGRAMS])
def test_lean_loop_matches_step_loop(name, main, args, nodes, ipn):
    lean = _run(main, args, nodes, ipn, traced=False)
    stepped = _run(main, args, nodes, ipn, traced=True)
    assert lean["events"] > 0
    for field in ("time", "results", "events", "traffic", "trace"):
        assert lean[field] == stepped[field], field


# ----------------------------------------------------------------------
# failure edges, on a plain, a traced and a monitored engine
# ----------------------------------------------------------------------
ENGINES = ["plain", "traced", "monitored"]


def _engine(kind, **kwargs):
    if kind == "traced":
        engine = Engine(trace=lambda t, label: None, **kwargs)
    else:
        engine = Engine(**kwargs)
    if kind == "monitored":
        engine.monitor = HBMonitor()
    return engine


def _ticker(log, name, period, count=None):
    """A process yielding ``Timeout(period)`` ``count`` times (forever
    when ``None``), logging every resume."""
    k = 0
    while count is None or k < count:
        yield Timeout(period)
        log.append((name, k))
        k += 1


def _ceiling_run(kind):
    engine = _engine(kind, max_events=40)
    log = []
    # three processes sharing every instant: batches of three, with the
    # inlined resume; a callback chain on its own period: singletons
    for i in range(3):
        Process(engine, _ticker(log, f"p{i}", 1.0), name=f"p{i}")

    def chain(k=0):
        log.append(("chain", k))
        engine.schedule(0.7, lambda: chain(k + 1), label="chain")

    engine.schedule(0.7, chain, label="chain")
    with pytest.raises(SimulationLimitExceeded):
        engine.run()
    return engine, log


@pytest.mark.parametrize("kind", ENGINES)
def test_ceiling_is_the_same_on_every_path(kind):
    engine, log = _ceiling_run(kind)
    ref, ref_log = _ceiling_run("plain")
    assert engine.events_processed == ref.events_processed == 41
    assert engine.pending_events == ref.pending_events
    assert engine.now == ref.now
    assert log == ref_log


def _raising_run(kind):
    engine = _engine(kind)
    log = []
    Process(engine, _ticker(log, "p", 1.0, count=3), name="p")

    def note(name):
        return lambda: log.append(name)

    def boom():
        log.append("boom")
        engine.call_now(note("after-boom"), label="after-boom")
        raise RuntimeError("boom")

    # one same-instant batch at t=1.0 with the failure in its middle
    for name in ("a", "b"):
        engine.schedule(1.0, note(name), label=name)
    engine.schedule(1.0, boom, label="boom")
    for name in ("c", "d"):
        engine.schedule(1.0, note(name), label=name)
    engine.schedule(2.5, note("late"), label="late")
    with pytest.raises(RuntimeError, match="boom"):
        engine.run()
    first = (engine.events_processed, engine.pending_events, engine.now,
             list(log))
    engine.run()
    return first, (engine.events_processed, engine.now, log)


@pytest.mark.parametrize("kind", ENGINES)
def test_raise_mid_batch_is_the_same_on_every_path(kind):
    first, final = _raising_run(kind)
    ref_first, ref_final = _raising_run("plain")
    assert first == ref_first
    assert final == ref_final
    # the failing callback is counted and dropped; everything else runs
    assert "after-boom" in final[2] and "late" in final[2]
    assert final[2].count("boom") == 1
    assert ("p", 2) in final[2]


def test_monitor_brackets_every_resume_even_on_failure():
    """The merged resume body calls ``end_step`` in a ``finally``: a
    generator that raises leaves the monitor's actor stack balanced."""
    engine = _engine("monitored")

    def crash():
        yield Timeout(1.0)
        raise ValueError("model bug")

    Process(engine, crash(), name="crash", actor=0)
    with pytest.raises(Exception, match="model bug"):
        engine.run()
    assert engine.monitor._actor_stack == []
