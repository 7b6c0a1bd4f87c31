"""Inter-node interconnect fabric (LogGP with per-NIC serialization).

The fabric charges two distinct costs for a message:

* **Injection** — the sender's NIC is a FIFO :class:`~repro.sim.primitives.Resource`;
  each message occupies it for ``gap + nbytes * inject_cost_per_byte``.
  Back-to-back sends from the eight images of a node therefore serialize,
  which is the physical effect behind the paper's observation that flat
  dissemination collapses when many images share a node.
* **Wire** — after injection the payload takes ``latency + nbytes/bandwidth``
  to land at the target, where a delivery callback fires (RDMA-style: no
  receiver CPU involvement).

Software per-message overhead (GASNet vs raw verbs vs MPI) is charged by
the conduit layer on the *sender's core*, not here.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ..sim import Engine, Hold, Resource, SimEvent
from .spec import MachineSpec

__all__ = ["Interconnect"]


class Interconnect:
    """The cluster's network: one NIC resource per node plus LogGP timing."""

    def __init__(self, engine: Engine, spec: MachineSpec):
        self._engine = engine
        self._spec = spec
        self._nics = [
            Resource(engine, capacity=spec.network.nic_capacity, name=f"nic{n}")
            for n in range(spec.num_nodes)
        ]
        #: lifetime statistics, reset via :meth:`reset_counters`
        self.messages = 0
        self.bytes = 0
        self._plans: dict = {}

    def nic(self, node: int) -> Resource:
        return self._nics[node]

    def reset_counters(self) -> None:
        self.messages = 0
        self.bytes = 0

    def plan(self, src_node: int, dst_node: int, nbytes: int) -> tuple:
        """``(Hold on the sender's NIC for the injection time, wire
        time)`` of one message.

        Both depend only on the sending node and the payload size, so
        they are built (and validated) once per ``(src_node, nbytes)``
        and reused.  Sending to the local node is a modeling error: the
        caller should have used the shared-memory fabric, and catching
        that here keeps hierarchy-aware code honest.
        """
        if src_node == dst_node:
            raise ValueError(
                f"Interconnect.send within node {src_node}; "
                "use SharedMemory for local transfers"
            )
        key = (src_node, nbytes)
        plan = self._plans.get(key)
        if plan is None:
            if nbytes < 0:
                raise ValueError(f"nbytes must be >= 0, got {nbytes}")
            net = self._spec.network
            plan = self._plans[key] = (
                Hold(self._nics[src_node], net.inject_time(nbytes)),
                net.wire_time(nbytes),
            )
        return plan

    def post(self, src_node: int, dst_node: int, nbytes: int) -> tuple:
        """Count one message; return its :meth:`plan` plus the delivery
        label: ``(Hold, wire time, label)``."""
        hold, wire = self.plan(src_node, dst_node, nbytes)
        self.messages += 1
        self.bytes += nbytes
        return hold, wire, f"wire{src_node}->{dst_node}"

    def send(
        self,
        src_node: int,
        dst_node: int,
        nbytes: int,
        on_delivered: Optional[Callable[[], None]] = None,
    ) -> Iterator:
        """Transport generator: ``yield from`` by the sending process.

        The sender blocks through NIC injection (local completion — the
        source buffer is reusable when this generator returns); delivery
        at ``dst_node`` happens ``wire_time`` later via ``on_delivered``.
        """
        hold, wire, label = self.post(src_node, dst_node, nbytes)
        yield hold
        if on_delivered is not None:
            self._engine.schedule(wire, on_delivered, label=label)

    def send_async(
        self,
        src_node: int,
        dst_node: int,
        nbytes: int,
        on_delivered: Optional[Callable[[], None]] = None,
    ) -> SimEvent:
        """Fire-and-forget variant for callback-style callers.

        Returns an event that triggers at *local* completion (injection
        finished).  Used by the runtime's non-blocking put path.
        """
        hold, wire, label = self.post(src_node, dst_node, nbytes)

        def _after_injection() -> None:
            if on_delivered is not None:
                self._engine.schedule(wire, on_delivered, label=label)

        return hold.resource.occupy(hold.duration, then=_after_injection)
