"""Intra-node shared-memory fabric.

Within a node, a "message" is a cache-coherent store observed by another
core: cheap, but not free.  The model has one FIFO
:class:`~repro.sim.primitives.Resource` per *socket* — the socket's
memory controller — and a transaction occupies the controller of the
**destination** core's socket (the home of the written line).  A burst of
notifications aimed at one leader therefore serializes, which is the
shared-memory analogue of the NIC gap and the reason a *linear* barrier
beats dissemination inside a node (§IV-A of the paper), while traffic
homed on different sockets proceeds in parallel.

Stores that cross the socket interconnect occupy the home controller
longer (``cross_socket_bus_factor``) and take the higher
``smp_latency`` to become visible — the NUMA structure the paper lists
as future work and experiment E8 exploits.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ..sim import Engine, Hold, Resource, SimEvent
from .spec import MachineSpec

__all__ = ["SharedMemory"]


class SharedMemory:
    """Per-socket memory-controller model."""

    def __init__(self, engine: Engine, spec: MachineSpec):
        self._engine = engine
        self._spec = spec
        self._buses = [
            [
                Resource(engine, capacity=spec.node.bus_capacity,
                         name=f"bus{n}.{s}")
                for s in range(spec.node.sockets)
            ]
            for n in range(spec.num_nodes)
        ]
        self.messages = 0
        self.bytes = 0
        self._plans: dict = {}

    def bus(self, node: int, socket: int = 0) -> Resource:
        return self._buses[node][socket]

    def reset_counters(self) -> None:
        self.messages = 0
        self.bytes = 0

    def plan(self, node: int, src_core: int, dst_core: int, nbytes: int,
             bandwidth_factor: float = 1.0) -> tuple:
        """``(Hold on the home socket's controller, visibility latency)``
        of one store.

        Both depend only on the endpoints and the payload size, so they
        are built (and validated) once per route and size and reused.
        """
        key = (node, src_core, dst_core, nbytes, bandwidth_factor)
        plan = self._plans.get(key)
        if plan is None:
            if nbytes < 0:
                raise ValueError(f"nbytes must be >= 0, got {nbytes}")
            if not 0 < bandwidth_factor <= 1.0:
                raise ValueError(
                    f"bandwidth_factor must be in (0, 1], got {bandwidth_factor}"
                )
            spec = self._spec.node
            home = spec.socket_of(dst_core)
            occupancy = spec.bus_hold + nbytes / (spec.smp_bandwidth * bandwidth_factor)
            if spec.socket_of(src_core) != home:
                occupancy *= spec.cross_socket_bus_factor
                latency = spec.smp_latency
            else:
                latency = spec.intra_socket_latency
            plan = self._plans[key] = (
                Hold(self._buses[node][home], occupancy), latency
            )
        return plan

    def post(self, node: int, src_core: int, dst_core: int, nbytes: int,
             bandwidth_factor: float = 1.0) -> tuple:
        """Count one store; return its :meth:`plan` plus the delivery
        label: ``(Hold, latency, label)``."""
        hold, latency = self.plan(node, src_core, dst_core, nbytes,
                                  bandwidth_factor)
        self.messages += 1
        self.bytes += nbytes
        return hold, latency, f"smp{node}:{src_core}->{dst_core}"

    def transfer(
        self,
        node: int,
        src_core: int,
        dst_core: int,
        nbytes: int,
        on_visible: Optional[Callable[[], None]] = None,
        bandwidth_factor: float = 1.0,
    ) -> Iterator:
        """Transport generator for an intra-node store of ``nbytes``.

        The producing process holds the destination socket's memory
        controller for the occupancy window (``bus_hold`` plus payload
        streaming time, inflated for cross-socket stores), after which
        the data becomes visible to ``dst_core`` one coherence latency
        later.  ``bandwidth_factor`` < 1 degrades the streaming rate —
        conduit loopback paths that bounce payloads through chunked
        Active-Message buffers move data slower than a direct memcpy.
        ``src_core == dst_core`` is legal: a self-put degenerates to a
        memcpy.
        """
        hold, latency, label = self.post(
            node, src_core, dst_core, nbytes, bandwidth_factor
        )
        yield hold
        if on_visible is not None:
            self._engine.schedule(latency, on_visible, label=label)

    def transfer_async(
        self,
        node: int,
        src_core: int,
        dst_core: int,
        nbytes: int,
        on_visible: Optional[Callable[[], None]] = None,
        bandwidth_factor: float = 1.0,
    ) -> SimEvent:
        """Callback-style variant; the returned event fires when the bus
        transaction retires (source-side completion)."""
        hold, latency, label = self.post(
            node, src_core, dst_core, nbytes, bandwidth_factor
        )

        def _after_bus() -> None:
            if on_visible is not None:
                self._engine.schedule(latency, on_visible, label=label)

        return hold.resource.occupy(hold.duration, then=_after_bus)
