"""Generator-based simulated processes.

A simulated process is a Python generator that ``yield``\\ s *command*
objects; the :class:`Process` driver executes each command against the
engine and resumes the generator with the command's result.  This gives
the CAF runtime straight-line SPMD code::

    def image_main(ctx):
        yield Timeout(1e-6)            # local work
        yield Wait(some_event)         # block on an RMA completion
        value = yield WaitFor(cell, lambda v: v >= 3)

Commands
--------
``Timeout(delay)``
    Advance this process by ``delay`` simulated seconds.
``Wait(event)``
    Block until a :class:`~repro.sim.primitives.SimEvent` fires; resumes
    with the event's value.
``WaitFor(cell, pred)``
    Block until ``pred(cell.value)``; resumes with the satisfying value.
    Models a shared-memory spin-wait at zero simulated cost.
``Acquire(resource)``
    Block until the resource is granted; the process must later call
    ``resource.release()`` itself.
``Hold(resource, duration)``
    Acquire, hold for ``duration``, release; resumes at release time.

Sub-generators compose with plain ``yield from``, so runtime layers nest
without any driver support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from .engine import Engine
from .errors import ProcessFailure
from .primitives import Cell, Resource, SimEvent

__all__ = [
    "Timeout", "Wait", "WaitFor", "Acquire", "Hold", "Process", "ProcGen",
    "BlockedInfo",
]

#: Type alias for the generator signature simulated processes must have.
ProcGen = Generator[Any, Any, Any]


@dataclass(frozen=True, slots=True)
class Timeout:
    """Advance the issuing process by ``delay`` simulated seconds.

    ``delay`` is validated here, at construction (finite and
    non-negative), so a Timeout *instance* is always schedulable — the
    engine's inlined resume lane relies on that to skip re-validating the
    dominant command on every event.  ``slots=True`` on all command
    dataclasses removes the per-instance ``__dict__``: commands are
    created once per yielded cost on the hot path, and their attribute
    reads sit inside the engine's inner loop.
    """

    delay: float

    def __post_init__(self) -> None:
        # Chained comparison rejects negatives, inf and (any comparison
        # with NaN being false) nan in one expression.
        if not 0.0 <= self.delay < math.inf:
            raise ValueError(
                f"Timeout delay must be finite and >= 0, got {self.delay}"
            )


@dataclass(frozen=True, slots=True)
class Wait:
    """Block until ``event`` triggers; the process resumes with its value."""

    event: SimEvent


@dataclass(frozen=True, slots=True)
class WaitFor:
    """Block until ``pred(cell.value)`` is true (wake-on-write, zero cost)."""

    cell: Cell
    pred: Callable[[Any], bool]


@dataclass(frozen=True, slots=True)
class Acquire:
    """Block until ``resource`` is granted; caller must release it."""

    resource: Resource


@dataclass(frozen=True, slots=True)
class Hold:
    """Acquire ``resource``, hold it ``duration`` seconds, then release."""

    resource: Resource
    duration: float


@dataclass(frozen=True)
class BlockedInfo:
    """Structured record of one blocked process, attached to
    :class:`~repro.sim.errors.DeadlockError` for wait-for analysis.

    ``actor`` is the identity the spawner gave the process (0-based global
    proc id for SPMD images, ``None`` for anonymous processes); ``kind``
    is one of ``cell``/``event``/``resource``; ``target`` is the primitive
    being waited on (a :class:`Cell`, :class:`SimEvent`, or
    :class:`Resource`).
    """

    process: str
    actor: Optional[Any]
    kind: str
    target: Any


class Process:
    """Drives one generator to completion against an engine.

    The ``done`` event triggers with the generator's return value when the
    process finishes.  Exceptions raised inside the generator are wrapped
    in :class:`~repro.sim.errors.ProcessFailure` and re-raised out of the
    engine's run loop — a crashed image never fails silently.

    ``actor`` names the simulated agent this process embodies (the SPMD
    launcher passes the image's global proc id); the concurrency monitor
    uses it to attribute writes and waits to a vector clock, and deadlock
    reports use it to name images.  Anonymous processes pass ``None``.
    """

    __slots__ = ("_engine", "_gen", "_send", "name", "actor", "done",
                 "_blocked_token", "_finished", "_timeout_label", "_held")

    def __init__(self, engine: Engine, gen: ProcGen, name: str = "proc",
                 actor: Optional[Any] = None):
        self._engine = engine
        self._gen = gen
        self._send = gen.send  # bound once; resumed on every step
        self.name = name
        self.actor = actor
        self.done = SimEvent(engine, name=f"{name}.done")
        self._blocked_token: Optional[int] = None
        self._finished = False
        # A process has at most one outstanding no-value resume (it drives
        # a single generator), so the process object itself is the
        # callback for its spawn step and every Timeout it ever yields
        # (``__call__`` below), and one preformatted label serves them
        # all.  Scheduling ``self`` instead of a closure is what lets the
        # engine's fast loop recognize the record by class and inline the
        # resume without any per-event indirection.
        self._timeout_label = f"{name}.timeout"
        #: resource of the uncontended hold in flight (see ``_do_hold``)
        self._held: Optional[Resource] = None
        # Start at the current instant so spawn order = first-step order.
        engine.call_now(self, label=f"{name}.start")

    def __call__(self) -> None:
        """Resume the generator with no value (spawn step or Timeout
        expiry).  ``Engine._run_fast`` inlines this exact body when it
        recognizes a scheduled :class:`Process`; this method is the same
        logic for every other dispatch path (``step()``, trace lane,
        tiebreak/until runs) — the two must stay behaviourally identical.
        """
        if self._finished:
            return  # fail-stopped (or completed): stale wake-up
        monitor = self._engine.monitor
        if monitor is not None:
            self._step_monitored(None, monitor)
            return
        try:
            command = self._send(None)
        except StopIteration as stop:
            self._finished = True
            self.done.trigger(stop.value)
            return
        except Exception as exc:  # noqa: BLE001 - wrap any model bug
            self._finished = True
            raise ProcessFailure(self.name, exc) from exc
        if type(command) is Timeout:
            self._engine.schedule(command.delay, self, label=self._timeout_label)
            return
        handler = _DISPATCH.get(type(command))
        if handler is None:
            self._dispatch_other(command)
        else:
            handler(self, command)

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def result(self) -> Any:
        return self.done.value

    def kill(self, result: Any = None) -> None:
        """Fail-stop this process at the current instant (idempotent).

        The generator is closed mid-flight (its ``finally`` blocks run),
        any deadlock-bookkeeping entry is retired, and ``done`` triggers
        with ``result`` so joiners are not left waiting.  Wake-ups already
        in flight (a pending Timeout, an event the process subscribed to)
        become no-ops via the ``_finished`` guards — a dead image never
        executes another step.  Used by fault injection
        (:mod:`repro.faults`); safe to call on a completed process.
        """
        if self._finished:
            return
        self._finished = True
        if self._blocked_token is not None:
            self._engine.note_unblocked(self._blocked_token)
            self._blocked_token = None
        self._gen.close()
        if not self.done.triggered:
            self.done.trigger(result)

    # ------------------------------------------------------------------
    def _mark_blocked(self, verb: str, noun: str, kind: str, target: Any) -> None:
        """Register this process as blocked.  Both the human-readable
        description (``"imageN: waiting on cell 'x'"``) and the structured
        :class:`BlockedInfo` record are deferred behind closures — they are
        only materialized if the run actually deadlocks."""
        self._blocked_token = self._engine.note_blocked(
            lambda: f"{self.name}: {verb} {noun} {target.name!r}",
            info=lambda: BlockedInfo(self.name, self.actor, kind, target),
        )

    def _resume(self, value: Any) -> None:
        if self._blocked_token is not None:
            self._engine.note_unblocked(self._blocked_token)
            self._blocked_token = None
        self._step(value)

    def _step(self, send_value: Any) -> None:
        if self._finished:
            return  # fail-stopped (or completed): stale wake-up
        monitor = self._engine.monitor
        if monitor is not None:
            self._step_monitored(send_value, monitor)
            return
        try:
            command = self._send(send_value)
        except StopIteration as stop:
            self._finished = True
            self.done.trigger(stop.value)
            return
        except Exception as exc:  # noqa: BLE001 - wrap and surface any model bug
            self._finished = True
            raise ProcessFailure(self.name, exc) from exc
        # Timeout is the dominant command (every charged cost is one), so
        # it is tested inline before the dispatch-table lookup.
        if type(command) is Timeout:
            self._engine.schedule(
                command.delay, self, label=self._timeout_label
            )
            return
        handler = _DISPATCH.get(type(command))
        if handler is None:
            self._dispatch_other(command)
        else:
            handler(self, command)

    def _step_monitored(self, send_value: Any, monitor: Any) -> None:
        """Slow-path step: bracket the generator resume with the
        concurrency monitor's begin/end hooks (see ``repro.verify``)."""
        if self._finished:
            return  # fail-stopped (or completed): stale wake-up
        monitor.begin_step(self.actor)
        try:
            command = self._send(send_value)
        except StopIteration as stop:
            self._finished = True
            self.done.trigger(stop.value)
            return
        except Exception as exc:  # noqa: BLE001 - wrap and surface any model bug
            self._finished = True
            raise ProcessFailure(self.name, exc) from exc
        finally:
            monitor.end_step()
        handler = _DISPATCH.get(type(command))
        if handler is None:
            self._dispatch_other(command)
        else:
            handler(self, command)

    def _dispatch(self, command: Any) -> None:
        """Execute one yielded command (type-keyed; kept as the single
        entry point for tests and subclasses)."""
        handler = _DISPATCH.get(type(command))
        if handler is None:
            self._dispatch_other(command)
        else:
            handler(self, command)

    # -- per-command handlers (type-keyed via _DISPATCH) ----------------
    def _do_timeout(self, command: Timeout) -> None:
        self._engine.schedule(
            command.delay, self, label=self._timeout_label
        )

    def _do_wait(self, command: Wait) -> None:
        ev = command.event
        if not ev.triggered:
            self._mark_blocked("waiting on", "event", "event", ev)
        if self._engine.monitor is None:
            ev.on_trigger(self._resume)
        else:
            ev.on_trigger(self._observing_resume("event", ev))

    def _do_wait_for(self, command: WaitFor) -> None:
        cell, pred = command.cell, command.pred
        if self._engine.monitor is None:
            # ``wait_until`` tests the predicate itself and returns None
            # when it already held (the resume has run): only a pending
            # wait is recorded as blocked
            if cell.wait_until(pred, self._resume) is not None:
                self._mark_blocked("waiting on", "cell", "cell", cell)
            return
        if not pred(cell.value):
            self._mark_blocked("waiting on", "cell", "cell", cell)
        cell.wait_until(pred, self._observing_resume("cell", cell))

    def _do_acquire(self, command: Acquire) -> None:
        res = command.resource
        grant = res.acquire()
        if not grant.triggered:
            self._mark_blocked("acquiring", "resource", "resource", res)
        grant.on_trigger(self._resume)

    def _do_hold(self, command: Hold) -> None:
        res, dur = command.resource, command.duration
        if res._in_use < res.capacity and self._engine.monitor is None:
            # Uncontended and unobserved: grant inline (the bookkeeping
            # ``acquire`` does) and schedule one release-and-resume at
            # the same instant, with the same label, that ``occupy``
            # would.  No grant/done events and no blocked record: a
            # pending hold always has its release queued, so it can
            # never be part of a deadlock.
            res._in_use += 1
            res._granted += 1
            self._held = res
            self._engine.schedule(dur, self._finish_hold,
                                  label=res._hold_label)
            return
        done = res.occupy(dur)
        if not done.triggered:
            self._mark_blocked("holding", "resource", "resource", res)
        done.on_trigger(self._resume)

    def _finish_hold(self) -> None:
        """End of an inline hold: release (handing the resource to the
        next queued waiter first, as ``occupy`` does), then resume —
        unless the process was killed meanwhile (``_step`` guards)."""
        self._held.release()
        self._held = None
        self._step(None)

    def _dispatch_other(self, command: Any) -> None:
        """Fallback for command *subclasses* (exact-type dispatch missed)
        and the non-command error path."""
        for cls, handler in _DISPATCH.items():
            if isinstance(command, cls):
                handler(self, command)
                return
        raise ProcessFailure(
            self.name,
            TypeError(f"process yielded non-command object {command!r}"),
        )

    def _observing_resume(self, kind: str, target: Any) -> Callable[[Any], None]:
        """A resume callback that first tells the monitor (if any) that this
        actor observed the wait target — the waiter's clock absorbs the
        writes that satisfied the wait, which is exactly the
        synchronizes-with edge a spin-wait provides."""
        monitor = self._engine.monitor
        if monitor is None:
            return self._resume

        def _resume_observed(value: Any) -> None:
            if kind == "cell":
                monitor.on_cell_observed(target, self.actor)
            else:
                monitor.on_event_observed(target, self.actor)
            self._resume(value)

        return _resume_observed


#: Exact-type command dispatch: one dict hit replaces the historical
#: five-branch ``isinstance`` ladder on the per-event hot path.  Command
#: subclasses still work via :meth:`Process._dispatch_other`.
_DISPATCH: dict = {
    Timeout: Process._do_timeout,
    Wait: Process._do_wait,
    WaitFor: Process._do_wait_for,
    Acquire: Process._do_acquire,
    Hold: Process._do_hold,
}

# Let the engine's fast run loop recognize scheduled Process records and
# inline the no-value resume (see Engine._run_fast).
from . import engine as _engine_module  # noqa: E402 - registration hook

_engine_module._register_process_types(Process, Timeout)
