"""Synchronization primitives for simulated processes.

Three primitives cover everything the PGAS runtime needs:

* :class:`SimEvent` — a one-shot triggerable event (completion of an RMA
  operation, release of a resource grant).
* :class:`Cell` — a watched mutable value with wake-on-write semantics.
  This is the simulation analogue of a *spin-wait on a flag in shared
  memory*: waiting costs nothing until the producing write happens, which
  is exactly how a cache-coherent spin loop behaves from the outside.
  ``sync_flags`` words, barrier counters and event counts are all Cells.
* :class:`Resource` — a FIFO counting semaphore used for serialization
  points in the machine model (a node's NIC injection port, a memory bus).
  FIFO ordering keeps the simulation deterministic under contention.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Optional, Union

from .engine import Engine

__all__ = ["SimEvent", "Cell", "Resource"]


class SimEvent:
    """One-shot event: callbacks registered before the trigger fire on trigger;
    callbacks registered after fire immediately (at the current instant)."""

    __slots__ = ("_engine", "_triggered", "_value", "_callbacks", "name")

    def __init__(self, engine: Engine, name: str = ""):
        self._engine = engine
        self._triggered = False
        self._value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []
        self.name = name

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise RuntimeError(f"event {self.name!r} read before trigger")
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking all waiters. Triggering twice is an error:
        one-shot semantics are what the runtime's completion logic relies on."""
        if self._triggered:
            raise RuntimeError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        monitor = self._engine.monitor
        if monitor is not None:
            monitor.on_event_trigger(self)
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(value)

    def on_trigger(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` when the event fires (immediately if it has)."""
        if self._triggered:
            callback(self._value)
        else:
            self._callbacks.append(callback)


class Cell:
    """A watched scalar with wake-on-write.

    ``wait_until(pred, cb)`` registers a predicate over the cell's value;
    the callback runs as soon as a write makes the predicate true (or
    immediately if it already is).  Watchers are checked in registration
    order, and a watcher that fires is removed before its callback runs so
    the callback may freely re-register.

    The runtime uses Cells for everything an image would spin on:
    dissemination ``sync_flags`` counters, linear-barrier arrival counts,
    event-post counts.  Reads and writes are instantaneous — the *cost* of
    producing the write (the remote put, the memory-bus transaction) is
    charged by the machine model before ``set`` is called.

    Three write flavours matter to the concurrency checker
    (:mod:`repro.verify`): ``set`` is a plain *store* (last writer wins —
    two unordered stores are a write-after-write race); ``add`` and
    ``update`` are atomic read-modify-writes, which commute or are
    order-tolerant by contract and are never flagged.  ``meta`` is an
    optional dict the owner attaches (team, index, round, …) so deadlock
    and race reports can say *what* a cell is, not just its name.

    ``name`` may be a string or a zero-argument callable returning one:
    cells created per operation (collective mailboxes) pass a callable,
    so the name — read only by deadlock and race reports — is formatted
    on first read instead of on every creation.
    """

    __slots__ = ("_engine", "_value", "_watchers", "_name", "_seq", "meta")

    def __init__(self, engine: Engine, value: Any = 0,
                 name: Union[str, Callable[[], str]] = "",
                 meta: Optional[dict] = None):
        self._engine = engine
        self._value = value
        self._watchers: dict[int, tuple[Callable[[Any], bool], Callable[[Any], None]]] = {}
        self._seq = itertools.count()
        self._name = name
        self.meta = meta

    @property
    def name(self) -> str:
        name = self._name
        if name.__class__ is not str:
            name = self._name = name()
        return name

    @name.setter
    def name(self, name: Union[str, Callable[[], str]]) -> None:
        self._name = name

    @property
    def value(self) -> Any:
        return self._value

    def set(self, value: Any) -> None:
        """Plain store (checked for write-after-write races when monitored)."""
        monitor = self._engine.monitor
        if monitor is not None:
            monitor.on_cell_write(self, "set")
        self._value = value
        self._check_watchers()

    def add(self, delta: Any) -> Any:
        """Atomic read-modify-write (the simulation is single-threaded, so
        plain += is atomic); returns the new value."""
        monitor = self._engine.monitor
        if monitor is not None:
            monitor.on_cell_write(self, "add")
        self._value = self._value + delta
        self._check_watchers()
        return self._value

    def update(self, fn: Callable[[Any], Any]) -> Any:
        """General atomic read-modify-write: ``value = fn(value)``.

        Used by the runtime's atomics (``atomic_add``/``and``/``or``/
        ``xor``, fetch-and-op, CAS), whose target-side application is
        atomic by construction; returns the new value.
        """
        monitor = self._engine.monitor
        if monitor is not None:
            monitor.on_cell_write(self, "update")
        self._value = fn(self._value)
        self._check_watchers()
        return self._value

    def _check_watchers(self) -> None:
        # Watcher keys come from a monotonic counter and dicts preserve
        # insertion order, so plain iteration visits watchers in exactly
        # the registration order the old ``sorted()`` produced — without
        # sorting on every write.  Sync cells almost always have 0 or 1
        # watchers, so those cases take dedicated early-outs.
        watchers = self._watchers
        if not watchers:
            return
        if len(watchers) == 1:
            key, (pred, cb) = next(iter(watchers.items()))
            if pred(self._value):
                del watchers[key]
                cb(self._value)
            return
        # Snapshot: callbacks may register new watchers or write the cell.
        for key, entry in list(watchers.items()):
            if key not in watchers:
                continue  # removed by an earlier callback this pass
            pred, cb = entry
            if pred(self._value):
                del watchers[key]
                cb(self._value)

    def wait_until(
        self, pred: Callable[[Any], bool], callback: Callable[[Any], None]
    ) -> Optional[int]:
        """Run ``callback(value)`` once ``pred(value)`` holds.

        Returns a watcher key if the wait is pending (cancelable via
        :meth:`cancel_wait`), or ``None`` if the predicate already held and
        the callback ran synchronously.
        """
        if pred(self._value):
            callback(self._value)
            return None
        key = next(self._seq)
        self._watchers[key] = (pred, callback)
        return key

    def cancel_wait(self, key: int) -> None:
        self._watchers.pop(key, None)


class Resource:
    """FIFO counting semaphore: the serialization points of the machine model.

    A NIC that can inject one message every ``gap`` seconds is modeled as a
    capacity-1 Resource held for ``gap``; eight images flushing barrier
    notifications through it queue up in deterministic FIFO order — this is
    precisely the serialization effect the paper's Section IV-A argues
    makes flat dissemination slow on multicore nodes.
    """

    __slots__ = ("_engine", "capacity", "_in_use", "_queue", "name", "_granted",
                 "_peak", "_hold_label")

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._engine = engine
        self.capacity = capacity
        self._in_use = 0
        # deque: grants pop from the left in O(1); a list's pop(0) is O(n)
        # and showed up under contention (every NIC gap on a busy node).
        self._queue: deque[SimEvent] = deque()
        self.name = name
        self._granted = 0
        self._peak = 0
        #: label of every hold's release event, formatted once
        self._hold_label = f"{name}.hold"

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def idle(self) -> bool:
        """True when nothing holds the resource and nothing is queued.

        Macro-events (:mod:`repro.collectives.macro`) sweep every machine
        resource through this before collapsing a barrier window: a busy
        bus or NIC means in-flight foreign traffic could contend with the
        barrier's own transfers, so the window must run fine-grained.
        """
        return self._in_use == 0 and not self._queue

    @property
    def total_grants(self) -> int:
        """Lifetime number of acquisitions granted (contention statistics)."""
        return self._granted

    @property
    def peak_queue(self) -> int:
        """Longest queue observed (contention statistics)."""
        return self._peak

    def acquire(self) -> SimEvent:
        """Request the resource; the returned event triggers when granted."""
        grant = SimEvent(self._engine, name=f"{self.name}.grant")
        if self._in_use < self.capacity:
            self._in_use += 1
            self._granted += 1
            grant.trigger()
        else:
            self._queue.append(grant)
            self._peak = max(self._peak, len(self._queue))
        return grant

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._queue:
            nxt = self._queue.popleft()
            self._granted += 1
            nxt.trigger()
        else:
            self._in_use -= 1

    def occupy(self, duration: float, then: Optional[Callable[[], None]] = None) -> SimEvent:
        """Acquire, hold for ``duration`` simulated seconds, release.

        Returns an event that triggers at release time; ``then`` (if given)
        runs at that moment.  This is the one-liner the network model uses
        for NIC injection gaps.
        """
        done = SimEvent(self._engine, name=f"{self.name}.occupy")

        def _granted(_: Any) -> None:
            def _finish() -> None:
                self.release()
                if then is not None:
                    then()
                done.trigger()

            self._engine.schedule(duration, _finish, label=self._hold_label)

        self.acquire().on_trigger(_granted)
        return done
