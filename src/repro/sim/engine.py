"""Deterministic discrete-event simulation engine.

The engine is the clock and scheduler underneath everything in
:mod:`repro`: the machine model charges communication costs by scheduling
callbacks, and the CAF runtime's images are generator-based processes
(:mod:`repro.sim.process`) resumed by this engine.

Determinism is a hard requirement — a reproduction is useless if two runs
of the same benchmark disagree — so events are ordered by
``(time, priority, sequence)`` where ``sequence`` is a monotonically
increasing insertion counter. Two events at the same instant always fire
in the order they were scheduled.

Schedule fuzzing (``repro.verify``) relaxes exactly that last rule: with
a ``tiebreak_seed`` the engine permutes events that share a
``(time, priority)`` slot — still fully deterministically per seed.
Events at the same instant are causally concurrent (anything that *must*
happen later is scheduled later, or at a later time), so every such
permutation is a legal interleaving of the simulated program; a program
whose *semantic* result changes under a different seed has a real
ordering bug.  With no seed (the default) the insertion-order policy is
byte-identical to the historical behaviour.

Event storage (batched execution)
---------------------------------
Events live in per-instant *buckets*: ``_buckets`` maps a timestamp to
the records due at that instant, and ``_times`` is a min-heap over the
timestamps only.  Simulated workloads are bursty — a barrier round puts
whole waves of images at the same instant — so the run loop pays one
``heappop`` per *instant* instead of one per *event* and drains each
bucket with O(1) list pops.  Scheduling into an instant that already has
a bucket is a list append (amortized O(1): sequence numbers only grow,
so new records usually belong at the tail) instead of an O(log n)
``heappush``.  The heap may hold a stale timestamp after its bucket
drains through ``step()``; ``_peek_time`` discards those lazily.

A bucket holding a *single* record is stored as the bare record tuple
rather than a one-element list (default path only; the jittered path
always uses lists).  Timer-trampoline workloads — self-rescheduling
callback chains with per-chain periods — hit a distinct instant per
event, and the bare-tuple form spares them a list allocation on every
insert plus an indirection on every drain, which is what keeps the
bucket design no slower than the flat tuple-heap kernel it replaced on
that shape.  Every consumer distinguishes the two forms with one
``__class__ is list`` check; the record itself is a tuple, so the forms
cannot be confused.

Dispatch paths
--------------
``run()`` drains the queue one of two ways, chosen only by what is
attached to the engine:

* the **lean loop** (``_run_fast``) when there is no ``until`` horizon,
  no ``tiebreak_seed``, no ``trace`` callback and no ``monitor``: one
  ``heappop`` per instant, batch-sized bookkeeping, and the
  :class:`~repro.sim.process.Process` resume inlined;
* the **step() loop** otherwise: :meth:`Engine.step` per event, with
  the trace callback, exact per-event counters and the ``until`` test.
  Monitored runs also resume through here — ``Process._step`` brackets
  each resume with the monitor's hooks.

One deliberately documented lean-loop refinement: while ``run()`` drains
the bucket at instant ``t``, an event scheduled *at* ``t`` lands in a
fresh bucket and fires after every event already pending at ``t`` —
which is exactly where its (maximal) sequence number would have placed
it, **unless** it carries a non-default priority.  Nothing in the tree
schedules with a priority from inside a same-instant callback; the
``step()`` loop keeps exact key order for such events.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from bisect import insort
from typing import Any, Callable, Optional

from .errors import DeadlockError, ProcessFailure, SimulationLimitExceeded

__all__ = ["Engine"]

#: Upper bound used by ``schedule``'s combined delay check: a chained
#: ``0.0 <= delay < _INF`` rejects negatives, ``inf`` and (because any
#: comparison with NaN is false) ``nan`` in one expression.
_INF = math.inf

#: Default-path event records merge ``(priority, seq)`` into one integer
#: key — ``priority * _PRIORITY_STRIDE + seq`` — so a record is a lean
#: 3-tuple ``(key, fn, label)``.  The stride exceeds any reachable
#: sequence number (the event ceiling tops out around 5e8 ≪ 2**48), so
#: priority strictly dominates and insertion order breaks ties, for
#: negative priorities too.
_PRIORITY_STRIDE = 2 ** 48

#: Default ceiling on processed events; generous enough for the largest
#: benchmark in the suite (HPL at 256 images) while still catching livelock.
DEFAULT_MAX_EVENTS = 500_000_000

#: Filled in by :mod:`repro.sim.process` at import time so the fast run
#: loop can recognize a scheduled :class:`Process` record and inline its
#: no-value resume (the single hottest edge in the simulator) without a
#: circular import.  ``None`` until registration: the identity test in
#: ``_run_fast`` then never matches and every record takes the generic
#: ``fn()`` path, so a bare engine works without the process layer.
_PROCESS_CLASS: Any = None
_TIMEOUT_CLASS: Any = None


def _register_process_types(process_cls: type, timeout_cls: type) -> None:
    """Hook for :mod:`repro.sim.process`: enable the inlined resume lane."""
    global _PROCESS_CLASS, _TIMEOUT_CLASS
    _PROCESS_CLASS = process_cls
    _TIMEOUT_CLASS = timeout_cls


class Engine:
    """Bucketed event-queue simulation kernel with a float-seconds clock.

    Parameters
    ----------
    max_events:
        Safety ceiling on the number of processed events.  Exceeding it
        raises :class:`~repro.sim.errors.SimulationLimitExceeded`.
    trace:
        Optional callable invoked as ``trace(time, label)`` for every
        event that carries a label; useful in tests that assert ordering.
        A traced run dispatches through the ``step()`` loop.
    tiebreak_seed:
        When given, events sharing a ``(time, priority)`` slot fire in a
        seed-determined pseudo-random order instead of insertion order.
        Used by :mod:`repro.verify` to fuzz legal interleavings; leave
        ``None`` (the default) for the historical insertion-order policy.

    .. note::
       ``schedule``, ``call_now`` and ``schedule_at`` are per-instance
       closures bound in ``__init__`` (one flavour per tiebreak mode)
       with the bucket dict, times heap and the sequence counter
       pre-captured: the hot loop calls them millions of times per
       simulated second, and the specialization drops the attribute
       lookups and bound-method re-creation from every call.  Their
       contract is documented on :meth:`_bind_schedule`.
    """

    __slots__ = (
        "_times", "_buckets", "_seq_counter", "_now", "_max_events",
        "_events_processed", "_trace", "_tiebreak_seed", "_tiebreak_rng",
        "monitor", "_blocked", "_blocked_seq", "_running",
        "_drain_hooks", "_deferred", "schedule", "call_now", "schedule_at",
    )

    def __init__(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        trace: Optional[Callable[[float, str], None]] = None,
        tiebreak_seed: Optional[int] = None,
    ):
        # Event records are lean 3-tuples ``(key, fn, label)`` on the
        # default path, with ``key = priority * _PRIORITY_STRIDE + seq``;
        # with a ``tiebreak_seed`` they are 5-tuples
        # ``(priority, jitter, seq, fn, label)``.  The two shapes never
        # mix within one engine (the seed is fixed at construction), and
        # with jitter pinned at 0.0 the 5-tuple orders exactly as the
        # 3-tuple's merged key — so the lean record cannot reorder
        # anything (tests/test_sim_engine_equivalence.py proves it).
        self._times: list[float] = []
        # timestamp -> list of records, or a bare record when only one
        # is pending at that instant (see the module doc)
        self._buckets: dict[float, Any] = {}
        # Deferred heap push (lean path only): when a *fresh* instant is
        # scheduled and this slot is free, its timestamp parks here
        # instead of being pushed; the fast loop consumes it with one
        # ``heappushpop`` — a self-rescheduling chain (the timer
        # trampoline) then pays a single combined sift per event, and
        # when the deferred time is the queue minimum the heap is not
        # touched at all.  ``-1.0`` means empty; every consumer outside
        # the fast loop flushes it first (see ``_peek_time``).
        self._deferred = -1.0
        # One shared C-level counter so the schedule closures *and* the
        # inlined resume lane in ``_run_fast`` mint sequence numbers from
        # the same stream.
        self._seq_counter = itertools.count(1)
        self._now = 0.0
        self._max_events = int(max_events)
        self._events_processed = 0
        self._trace = trace
        self._tiebreak_seed = tiebreak_seed
        self._tiebreak_rng = (
            random.Random(tiebreak_seed) if tiebreak_seed is not None else None
        )
        #: optional concurrency monitor (duck-typed; see
        #: :class:`repro.verify.HBMonitor`).  The sim primitives consult it
        #: on every write/wait when set; ``None`` costs one attribute read.
        self.monitor: Optional[Any] = None
        # Registry of blocked waiters for deadlock reporting (see
        # note_blocked).  Keyed by an opaque token so waiters can
        # deregister in O(1).
        self._blocked: dict[int, Any] = {}
        self._blocked_seq = itertools.count()
        self._running = False
        # Last-chance hooks consulted when the queue drains with blocked
        # processes, before a DeadlockError is raised; see add_drain_hook.
        self._drain_hooks: list[Callable[[], bool]] = []
        self._bind_schedule()

    def _bind_schedule(self) -> None:
        """Bind the per-instance scheduling closures.

        ``schedule(delay, fn, priority=0, label="")`` runs ``fn`` after
        ``delay`` simulated seconds.  ``delay`` must be finite and
        non-negative: simulated causality only flows forward.
        ``priority`` breaks ties at equal timestamps (lower fires first),
        and insertion order breaks remaining ties — unless a
        ``tiebreak_seed`` permutes same-slot events (see the module doc).

        ``call_now(fn, label="")`` schedules ``fn`` at the current
        instant, after pending same-time events.

        ``schedule_at(time, fn, priority=0, label="")`` schedules ``fn``
        at the *absolute* timestamp ``time`` (``now <= time < inf``).
        Macro-events (:mod:`repro.collectives.macro`) replay analytic
        timelines through this: an absolute target avoids the float
        round-trip of ``now + (time - now)``, which is not exact.
        """
        times = self._times
        buckets = self._buckets
        bucket_get = buckets.get
        setdef = buckets.setdefault
        push = heapq.heappush
        rng = self._tiebreak_rng
        nextseq = self._seq_counter.__next__
        ins = insort
        stride = _PRIORITY_STRIDE

        if rng is None:
            # The insert sequence is spelled out in each closure rather
            # than shared through a helper: scheduling is the per-event
            # hot path, and the extra frame a shared ``_insert`` costs is
            # measurable on timer-trampoline workloads (self-rescheduling
            # chains where every event schedules exactly one more).
            # ``setdefault`` probes and stores in one hash traversal —
            # on the dominant miss path (a fresh instant) that is one
            # dict operation, not a ``get`` followed by a ``__setitem__``.

            def schedule(
                delay: float,
                fn: Callable[[], None],
                priority: int = 0,
                label: str = "",
            ) -> None:
                # One chained comparison validates every legal delay (0.0
                # included: adding it is free) and rejects negatives, inf
                # and NaN — the historical `< 0 or not isfinite` pair cost
                # two checks and a C call on every event.
                if 0.0 <= delay < _INF:
                    time = self._now + delay
                else:
                    raise ValueError(
                        f"delay must be finite and >= 0, got {delay!r}"
                    )
                key = nextseq()
                if priority:
                    key += priority * stride
                rec = (key, fn, label)
                b = setdef(time, rec)
                if b is rec:
                    # lone record: stored bare, promoted on second insert;
                    # the heap push parks in the deferred slot when free
                    if self._deferred < 0.0:
                        self._deferred = time
                    else:
                        push(times, time)
                elif b.__class__ is not list:
                    buckets[time] = [b, rec] if b[0] < key else [rec, b]
                elif key > b[-1][0]:
                    b.append(rec)
                else:
                    ins(b, rec)

            def call_now(fn: Callable[[], None], label: str = "") -> None:
                key = nextseq()
                rec = (key, fn, label)
                time = self._now
                b = setdef(time, rec)
                if b is rec:
                    if self._deferred < 0.0:
                        self._deferred = time
                    else:
                        push(times, time)
                elif b.__class__ is not list:
                    buckets[time] = [b, rec] if b[0] < key else [rec, b]
                elif key > b[-1][0]:
                    b.append(rec)
                else:
                    ins(b, rec)

            def schedule_at(
                time: float,
                fn: Callable[[], None],
                priority: int = 0,
                label: str = "",
            ) -> None:
                if not self._now <= time < _INF:
                    raise ValueError(
                        f"schedule_at time must be >= now and finite, "
                        f"got {time!r} (now={self._now!r})"
                    )
                key = nextseq()
                if priority:
                    key += priority * stride
                rec = (key, fn, label)
                b = setdef(time, rec)
                if b is rec:
                    if self._deferred < 0.0:
                        self._deferred = time
                    else:
                        push(times, time)
                elif b.__class__ is not list:
                    buckets[time] = [b, rec] if b[0] < key else [rec, b]
                elif key > b[-1][0]:
                    b.append(rec)
                else:
                    ins(b, rec)

        else:

            def _insert_jittered(time: float, rec: tuple) -> None:
                # Tuple comparison stops at ``seq`` (position 2, unique),
                # so ``fn`` is never compared.
                b = bucket_get(time)
                if b is None:
                    buckets[time] = [rec]
                    push(times, time)
                elif rec > b[-1]:
                    b.append(rec)
                else:
                    insort(b, rec)

            def schedule(
                delay: float,
                fn: Callable[[], None],
                priority: int = 0,
                label: str = "",
            ) -> None:
                if 0.0 <= delay < _INF:
                    time = self._now + delay
                else:
                    raise ValueError(
                        f"delay must be finite and >= 0, got {delay!r}"
                    )
                seq = nextseq()
                _insert_jittered(time, (priority, rng.random(), seq, fn, label))

            def call_now(fn: Callable[[], None], label: str = "") -> None:
                seq = nextseq()
                _insert_jittered(self._now, (0, rng.random(), seq, fn, label))

            def schedule_at(
                time: float,
                fn: Callable[[], None],
                priority: int = 0,
                label: str = "",
            ) -> None:
                if not self._now <= time < _INF:
                    raise ValueError(
                        f"schedule_at time must be >= now and finite, "
                        f"got {time!r} (now={self._now!r})"
                    )
                seq = nextseq()
                _insert_jittered(time, (priority, rng.random(), seq, fn, label))

        self.schedule = schedule
        self.call_now = call_now
        self.schedule_at = schedule_at

    # ------------------------------------------------------------------
    # Clock & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events the run loop has dispatched so far."""
        return self._events_processed

    @property
    def tiebreak_seed(self) -> Optional[int]:
        """The schedule-fuzzing seed, or ``None`` for insertion order."""
        return self._tiebreak_seed

    @property
    def pending_events(self) -> int:
        """Number of scheduled-but-undispatched events.  Exact whenever
        the engine is between events (``step()``-driven runs, inside
        event callbacks of such runs, after ``run()`` returns); a
        callback running inside a fast-path drain does not see the
        undispatched remainder of the batch it is part of."""
        return sum(
            len(b) if b.__class__ is list else 1
            for b in self._buckets.values()
        )

    def _peek_time(self) -> Optional[float]:
        """Earliest pending timestamp, discarding stale heap entries
        (timestamps whose bucket has already drained).  Flushes the
        deferred-push slot first so the heap view is complete — every
        path that reads the heap outside ``_run_fast`` goes through
        here (``step``, ``peek``, the ``run(until=...)`` loop)."""
        times = self._times
        buckets = self._buckets
        d = self._deferred
        if d >= 0.0:
            self._deferred = -1.0
            heapq.heappush(times, d)
        while times:
            t = times[0]
            if t in buckets:
                return t
            heapq.heappop(times)
        return None

    def peek(self) -> Optional[tuple[float, str]]:
        """``(time, label)`` of the next event to fire, or ``None``.
        Instrumentation helper (``repro.perf``); not a hot-path API."""
        t = self._peek_time()
        if t is None:
            return None
        b = self._buckets[t]
        rec = b[0] if b.__class__ is list else b
        return t, rec[-1]

    # ------------------------------------------------------------------
    # Blocked-process bookkeeping (for deadlock diagnostics)
    # ------------------------------------------------------------------
    def note_blocked(self, waiter: Any) -> int:
        """Record that a process is blocked; returns a token for :meth:`note_unblocked`.

        ``waiter`` is either a plain description string or an object
        whose ``blocked_description()`` and ``blocked_info()`` build the
        human-readable text and the structured record (see
        :class:`repro.sim.process.BlockedInfo`) that deadlock reports use
        to reconstruct the wait-for graph.  Waiters on the hot path (every
        :class:`~repro.sim.process.Process`) pass themselves, so nothing
        is formatted unless a deadlock report reads it.
        """
        token = next(self._blocked_seq)
        self._blocked[token] = waiter
        return token

    def note_unblocked(self, token: int) -> None:
        """Forget a blocked-process record created by :meth:`note_blocked`."""
        self._blocked.pop(token, None)

    def _blocked_waiters(self) -> list[Any]:
        return [self._blocked[k] for k in sorted(self._blocked)]

    @property
    def blocked_descriptions(self) -> list[str]:
        """Descriptions of currently blocked processes (ordered by block time)."""
        return [w if w.__class__ is str else w.blocked_description()
                for w in self._blocked_waiters()]

    @property
    def blocked_details(self) -> list[Any]:
        """Structured records of currently blocked processes, for the
        waiters that are not plain strings (ordered by block time) —
        built here, on the cold path of deadlock reporting."""
        return [w.blocked_info() for w in self._blocked_waiters()
                if w.__class__ is not str]

    # ------------------------------------------------------------------
    # Drain hooks (macro-event fallback)
    # ------------------------------------------------------------------
    def add_drain_hook(self, hook: Callable[[], bool]) -> None:
        """Register a last-chance hook run when the queue drains while
        processes are still blocked, *before* a DeadlockError is raised.

        A hook returns ``True`` if it made progress (woke a process,
        scheduled an event) — the run loop then resumes draining — and
        ``False`` when it has nothing left to do.  Hooks must converge:
        a hook that keeps returning ``True`` without changing state
        livelocks the run.  Macro-events use this to demote incomplete
        macro gathers to the fine-grained path so that a *genuine*
        deadlock (an image that never arrives) reproduces the exact
        fine-grained diagnostics.
        """
        self._drain_hooks.append(hook)

    def remove_drain_hook(self, hook: Callable[[], bool]) -> None:
        """Deregister a hook added by :meth:`add_drain_hook` (no-op if absent)."""
        try:
            self._drain_hooks.remove(hook)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the single earliest event. Returns False if no event is pending.

        This is the instrumentation-friendly path: :meth:`run` drives it
        for traced, monitored, tiebreak and ``until`` runs, and tools that
        need per-event control (``repro.perf`` stats, tests) call it
        directly.  The lean ``_run_fast`` loop inlines the same logic with
        locals hoisted for every other run.  Unlike the lean loop,
        ``step()`` keeps exact ``(time, key)`` order even for prioritized
        events scheduled at the instant being drained.
        """
        t = self._peek_time()
        if t is None:
            return False
        self._fire(t)
        return True

    def _fire(self, t: float) -> None:
        """Dispatch the earliest event, whose time ``t`` a
        :meth:`_peek_time` call has just returned (so the heap top is
        ``t``); the body of :meth:`step`."""
        buckets = self._buckets
        bucket = buckets[t]
        if bucket.__class__ is not list:  # bare singleton record
            record = bucket
            del buckets[t]
            heapq.heappop(self._times)  # _peek_time verified the top is t
        else:
            record = bucket[0]
            if len(bucket) == 1:
                del buckets[t]
                heapq.heappop(self._times)
            else:
                del bucket[0]
        # The clock never moves backwards; equal times are fine.
        self._now = t
        self._events_processed += 1
        if self._events_processed > self._max_events:
            raise SimulationLimitExceeded(
                f"exceeded max_events={self._max_events} at t={self._now:.9f}s"
            )
        label = record[-1]
        if self._trace is not None and label:
            self._trace(t, label)
        record[-2]()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event queue drains (or simulated time passes ``until``).

        Returns the final simulated time.  If the queue drains while
        processes are still registered as blocked, drain hooks get one
        last chance to make progress (see :meth:`add_drain_hook`); if
        none does, raises :class:`~repro.sim.errors.DeadlockError` —
        silence is never mistaken for success.
        """
        if self._running:
            raise RuntimeError("Engine.run() is not reentrant")
        self._running = True
        try:
            fast = (until is None and self._tiebreak_rng is None
                    and self._trace is None and self.monitor is None)
            while True:
                if fast:
                    self._run_fast()
                else:
                    # step() with the peek it would repeat hoisted out
                    peek, fire = self._peek_time, self._fire
                    while True:
                        t = peek()
                        if t is None:
                            break
                        if until is not None and t > until:
                            self._now = until
                            return until
                        fire(t)
                if self._blocked and self._drain_hooks:
                    progressed = False
                    for hook in list(self._drain_hooks):
                        if hook():
                            progressed = True
                    if progressed:
                        continue
                break
            if self._blocked:
                raise DeadlockError(self.blocked_descriptions,
                                    details=self.blocked_details)
            return self._now
        finally:
            self._running = False

    def _run_fast(self) -> None:
        """Drain the queue on the lean path (no ``until`` horizon, no
        tiebreak jitter, no ``trace`` callback, no monitor): one
        ``heappop`` per *instant*, then a plain index walk over the
        instant's bucket, with everything hot hoisted into locals.  Event
        order, clock updates and the ``max_events`` ceiling match
        :meth:`step` (modulo the documented same-instant-priority
        refinement in the module doc).

        When the record's callable is a :class:`~repro.sim.process.Process`
        the no-value resume is inlined here — finished guard,
        generator send, and the dominant ``Timeout`` reschedule as a
        direct bucket append — eliminating two Python frames per event on
        the hottest edge in the simulator.  ``Timeout`` objects validate
        their delay at construction, so the inline reschedule adds the
        delay without re-checking it.

        A bucket under drain is never mutated: events scheduled at the
        instant being drained land in a *fresh* dict bucket (the current
        one was popped), which the outer loop picks up next — so the
        index walk needs no bounds re-checks, and per-event bookkeeping
        (``processed``, the ceiling test) amortizes to one batch-sized
        update.  The ceiling only gets per-event checks in the cold
        branch where it falls inside the current batch.
        """
        times = self._times
        buckets = self._buckets
        bucket_pop = buckets.pop
        setdef = buckets.setdefault
        heappop = heapq.heappop
        heappush = heapq.heappush
        heappushpop = heapq.heappushpop
        max_events = self._max_events
        nextseq = self._seq_counter.__next__
        proc_cls = _PROCESS_CLASS
        timeout_cls = _TIMEOUT_CLASS
        processed = self._events_processed
        # ``_events_processed`` is kept in a local and written back when
        # the loop exits (or an event raises): one store per event saved,
        # at the cost of the attribute being stale *while a callback
        # runs* — nothing in the tree reads it mid-event, and the
        # ``step()`` loop keeps exact per-event updates.
        t = 0.0
        batch: Any = None
        record: Any = None
        try:
            while True:
                d = self._deferred
                if d >= 0.0:
                    # one combined sift; when ``d`` is the minimum
                    # the heap is not touched at all
                    self._deferred = -1.0
                    t = heappushpop(times, d)
                elif times:
                    t = heappop(times)
                else:
                    break
                cur = bucket_pop(t, None)
                if cur is None:
                    continue  # stale heap entry: bucket already drained
                self._now = t
                if cur.__class__ is not list:
                    # Bare singleton record — the timer-trampoline
                    # shape (a chain rescheduling itself to a fresh
                    # instant every event).  Dispatched with no batch
                    # bookkeeping; on an exception the event is
                    # already counted and its bucket gone, so the
                    # generic restore below has nothing to do.
                    if processed < max_events:
                        processed += 1
                        fn = cur[1]
                        if fn.__class__ is not proc_cls:
                            fn()
                            continue
                        # -- inlined Process._step (see below) --
                        if fn._finished:
                            continue
                        try:
                            command = fn._send(None)
                        except StopIteration as stop:
                            fn._finished = True
                            fn.done.trigger(stop.value)
                            continue
                        except Exception as exc:  # noqa: BLE001 - wrap model bugs
                            fn._finished = True
                            raise ProcessFailure(fn.name, exc) from exc
                        if command.__class__ is not timeout_cls:
                            fn._dispatch(command)
                            continue
                        t2 = t + command.delay
                        seq = nextseq()
                        rec = (seq, fn, fn._timeout_label)
                        b = setdef(t2, rec)
                        if b is rec:
                            if self._deferred < 0.0:
                                self._deferred = t2
                            else:
                                heappush(times, t2)
                        elif b.__class__ is not list:
                            buckets[t2] = (
                                [b, rec] if b[0] < seq else [rec, b]
                            )
                        elif seq > b[-1][0]:
                            b.append(rec)
                        else:
                            insort(b, rec)
                        continue
                    cur = [cur]  # cold: ceiling — generic path
                n = len(cur)
                if processed + n > max_events:
                    # Cold branch: the event ceiling falls inside
                    # this batch — per-event checks, generic
                    # dispatch.
                    batch = cur
                    k = 0
                    for record in batch:
                        if processed + k >= max_events:
                            raise SimulationLimitExceeded(
                                f"exceeded max_events={max_events} "
                                f"at t={t:.9f}s"
                            )
                        k += 1
                        record[-2]()
                    processed += n
                    batch = None
                    continue
                batch = cur
                # Same-target bucket cache: consecutive reschedules
                # into one future instant (a wave re-arming the same
                # delay) skip the dict probe.  Reset per batch — the
                # cached list can only leave the dict via the outer
                # loop's bucket_pop.
                last_t2 = -1.0
                last_b: Any = None
                for record in batch:
                    fn = record[1]
                    if fn.__class__ is not proc_cls:
                        fn()
                        continue
                    # -- inlined Process._step (no-value resume) --
                    if fn._finished:
                        continue  # fail-stopped/completed: stale wake
                    try:
                        command = fn._send(None)
                    except StopIteration as stop:
                        fn._finished = True
                        fn.done.trigger(stop.value)
                        continue
                    except Exception as exc:  # noqa: BLE001 - wrap model bugs
                        fn._finished = True
                        raise ProcessFailure(fn.name, exc) from exc
                    if command.__class__ is not timeout_cls:
                        fn._dispatch(command)
                        continue
                    t2 = t + command.delay
                    seq = nextseq()
                    rec = (seq, fn, fn._timeout_label)
                    if t2 == last_t2:
                        if seq > last_b[-1][0]:
                            last_b.append(rec)
                        else:
                            insort(last_b, rec)
                        continue
                    b = setdef(t2, rec)
                    if b is rec:
                        # stored bare; the cache only tracks lists, so
                        # leave it pointing at its (still valid) list
                        if self._deferred < 0.0:
                            self._deferred = t2
                        else:
                            heappush(times, t2)
                        continue
                    if b.__class__ is not list:
                        b = [b, rec] if b[0] < seq else [rec, b]
                        buckets[t2] = b
                    elif seq > b[-1][0]:
                        b.append(rec)
                    else:
                        insort(b, rec)
                    last_t2 = t2
                    last_b = b
                processed += n
                batch = None
        except BaseException:
            # Flush the deferred push first: the failing event may have
            # parked a fresh instant there, and post-mortem inspection
            # reads the heap directly.  (A duplicate heap entry for ``t``
            # is harmless — stale entries are discarded lazily.)
            d = self._deferred
            if d >= 0.0:
                self._deferred = -1.0
                heappush(times, d)
            # Restore the undispatched remainder (plus anything the
            # failing event scheduled back at ``t``) so the queue stays
            # coherent for post-mortem inspection or a resumed run.  The
            # failing record is counted but dropped — exactly the
            # historical heappop-then-raise accounting.  (Looking the
            # record up by value is safe: tuple equality resolves on the
            # unique leading key before ever comparing ``fn``.)
            if batch is not None:
                consumed = batch.index(record) + 1
                processed += consumed
                remainder = batch[consumed:]
                if remainder:
                    newer = bucket_pop(t, None)
                    if newer is not None:
                        if newer.__class__ is not list:
                            newer = [newer]
                        remainder = sorted(remainder + newer)
                    buckets[t] = remainder
                    heappush(times, t)
            raise
        finally:
            self._events_processed = processed
