"""The conduit: per-message software costs on top of the machine fabrics.

A :class:`Conduit` pairs a :class:`~repro.calibration.ConduitProfile`
with a :class:`~repro.machine.Machine` and exposes the one primitive the
PGAS runtime is built from — a *costed one-sided transfer* between two
images.  Three paths exist:

``remote``
    Inter-node: software overhead at the sender, then NIC injection and
    the wire (see :mod:`repro.machine.network`).
``loopback``
    Same-node, but through the conduit anyway — the hierarchy-unaware
    path (GASNet ibv loopback).  Pays the full software overhead, the
    node's memory system, and an extra target-side polling penalty.
``direct``
    Same-node via plain stores — the hierarchy-aware path; near-zero
    software cost.

Profiles with ``serialize_overhead=True`` funnel their software overhead
through a per-node FIFO *progress engine* resource, so concurrent
operations issued by co-located images serialize.  This single mechanism
produces the paper's observed collapse of flat dissemination at 8 images
per node.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ..calibration import DIRECT_SMP, ConduitProfile
from ..machine import Machine
from ..sim import Hold, Resource, Timeout

__all__ = ["Conduit"]


class Conduit:
    """Costed one-sided transfers between images over a machine."""

    def __init__(
        self,
        machine: Machine,
        profile: ConduitProfile,
        hierarchy_aware: bool = False,
        faults=None,
    ):
        self.machine = machine
        self.profile = profile
        #: when True, same-node transfers default to the ``direct`` path
        self.hierarchy_aware = hierarchy_aware
        #: optional :class:`repro.faults.FaultManager` — decides message
        #: fates (delivery to dead images, drop/delay jitter) when a fault
        #: schedule is installed; None on the default path
        self.faults = faults
        self._engine = machine.engine
        self._shm = machine.shared_memory
        self._net = machine.interconnect
        self._engines = [
            Resource(machine.engine, capacity=1, name=f"conduit{n}")
            for n in range(machine.spec.num_nodes)
        ]
        # Placement is fixed at launch: snapshot the image→Placement map
        # once instead of resolving it through the topology per message.
        self._placements = [
            machine.topology.placement(i) for i in range(machine.num_images)
        ]
        #: resolved path → per-node sender-overhead command (None: free)
        self._overheads = {
            resolved: [self._overhead(resolved, n)
                       for n in range(machine.spec.num_nodes)]
            for resolved in ("remote", "loopback", "direct")
        }
        #: lifetime message counters by path, for the accounting experiments
        self.counts = {"remote": 0, "loopback": 0, "direct": 0}
        #: back-reference to :class:`repro.collectives.macro.MacroCollectives`
        #: (set by the World that owns this conduit); None when the run has
        #: no macro-event coordinator
        self.macro = None

    def note_async(self) -> None:
        """Record that asynchronous traffic exists in this run.

        Non-blocking transfers complete through callback chains the
        macro-event eligibility sweep cannot see (a ``get_nb`` response
        leg, an event-relay hop), so the first one permanently pins every
        subsequent barrier window to the fine-grained path.
        """
        macro = self.macro
        if macro is not None:
            macro.note_async()

    def progress_engine(self, node: int) -> Resource:
        return self._engines[node]

    def reset_counters(self) -> None:
        for key in self.counts:
            self.counts[key] = 0

    def _monitored_delivery(
        self,
        src_image: int,
        dst_image: int,
        on_delivered: Optional[Callable[[], None]],
    ) -> Optional[Callable[[], None]]:
        """Tell the concurrency monitor (when installed) about this message
        and wrap the delivery callback so target-side effects are
        attributed to the sender's causal past."""
        monitor = self._engine.monitor
        if monitor is None:
            return on_delivered
        return monitor.on_transfer(src_image, dst_image, on_delivered)

    # ------------------------------------------------------------------
    def _overhead(self, resolved: str, node: int):
        """The command charging sender software time for a ``resolved``
        transfer issued on ``node``, or None when it is free.  The direct
        path is a store plus a fence on the image's own core; conduit
        paths serialize through the node's progress engine if the
        profile says so."""
        profile = self.profile
        if resolved == "direct":
            cost, serialize = DIRECT_SMP.local_overhead, False
        else:
            cost = (profile.remote_overhead if resolved == "remote"
                    else profile.local_overhead)
            serialize = profile.serialize_overhead
        if cost <= 0.0:
            return None
        return Hold(self._engines[node], cost) if serialize else Timeout(cost)

    def resolve_path(self, src_image: int, dst_image: int, path: str = "auto") -> str:
        """Decide which of remote/loopback/direct a transfer takes.

        ``auto`` consults placement and :attr:`hierarchy_aware` — the
        runtime-level decision the paper's two-level methodology adds.
        Forcing ``direct`` for a cross-node pair is rejected: stores do not
        cross the network.
        """
        placements = self._placements
        same = placements[src_image].node == placements[dst_image].node
        if path == "auto":
            if not same:
                return "remote"
            return "direct" if self.hierarchy_aware else "loopback"
        if path == "direct" and not same:
            raise ValueError(
                f"direct path requested between images {src_image} and "
                f"{dst_image} on different nodes"
            )
        if path == "loopback" and not same:
            # Symmetric to the direct case: loopback is the *same-node*
            # conduit path; letting it through would route cross-node
            # traffic through the source node's shared-memory model.
            raise ValueError(
                f"loopback path requested between images {src_image} and "
                f"{dst_image} on different nodes"
            )
        if path == "remote" and same:
            # Same-node through the conduit is by definition the loopback path.
            return "loopback"
        if path not in ("remote", "loopback", "direct"):
            raise ValueError(f"unknown path {path!r}")
        return path

    def _post(self, resolved: str, ps, pd, nbytes: int) -> tuple:
        """Count the message on its fabric and return its plan ``(Hold,
        delivery delay, label)`` for placements ``ps`` → ``pd`` (the
        loopback penalty is not included; see
        :meth:`_loopback_delivery`)."""
        if resolved == "remote":
            return self._net.post(ps.node, pd.node, nbytes)
        if resolved == "direct":
            return self._shm.post(ps.node, ps.core, pd.core, nbytes)
        return self._shm.post(ps.node, ps.core, pd.core, nbytes,
                              self.profile.loopback_bw_factor)

    def _loopback_delivery(
        self, on_delivered: Optional[Callable[[], None]]
    ) -> Optional[Callable[[], None]]:
        """Loopback delivery waits for the target's poll."""
        penalty = self.profile.loopback_penalty
        if penalty <= 0.0 or on_delivered is None:
            return on_delivered
        engine = self._engine

        def wrapped() -> None:
            engine.schedule(penalty, on_delivered, label="loopback-poll")

        return wrapped

    def transfer(
        self,
        src_image: int,
        dst_image: int,
        nbytes: int,
        on_delivered: Optional[Callable[[], None]] = None,
        path: str = "auto",
    ) -> Iterator:
        """Generator performing one costed one-sided transfer.

        The sending process blocks through source-side completion;
        ``on_delivered`` fires when the payload is visible at the target.

        Every command it yields is prebuilt (the sender's overhead command
        per path and node, the fabric's bus or NIC ``Hold`` and delivery
        delay per route and size), so a message costs this one generator
        frame.
        """
        resolved = self.resolve_path(src_image, dst_image, path)
        self.counts[resolved] += 1
        faults = self.faults
        if faults is not None:
            # A message to a dead image still pays wire costs (the sender
            # cannot tell), but its target-side effects are suppressed.
            on_delivered = faults.filter_delivery(dst_image, on_delivered)
            jitter = faults.link_delay(resolved)
            if jitter > 0.0:
                yield Timeout(jitter)
        on_delivered = self._monitored_delivery(src_image, dst_image,
                                                on_delivered)
        if resolved == "loopback":
            on_delivered = self._loopback_delivery(on_delivered)
        ps = self._placements[src_image]
        cost = self._overheads[resolved][ps.node]
        if cost is not None:
            yield cost
        hold, delay, label = self._post(resolved, ps,
                                        self._placements[dst_image], nbytes)
        yield hold
        if on_delivered is not None:
            self._engine.schedule(delay, on_delivered, label=label)

    def transfer_nb(
        self,
        src_image: int,
        dst_image: int,
        nbytes: int,
        on_delivered: Optional[Callable[[], None]] = None,
        path: str = "auto",
    ) -> Iterator:
        """Non-blocking variant: the sending process blocks only through
        its software overhead (posting the work request); injection and
        the wire proceed asynchronously.

        Generator whose return value (via ``yield from``) is a
        :class:`~repro.sim.SimEvent` that fires at *source-side*
        completion (the source buffer is reusable); ``on_delivered``
        fires when the payload lands at the target.
        """
        self.note_async()
        resolved = self.resolve_path(src_image, dst_image, path)
        self.counts[resolved] += 1
        faults = self.faults
        if faults is not None:
            on_delivered = faults.filter_delivery(dst_image, on_delivered)
            jitter = faults.link_delay(resolved)
            if jitter > 0.0:
                yield Timeout(jitter)
        on_delivered = self._monitored_delivery(src_image, dst_image,
                                                on_delivered)
        if resolved == "loopback":
            on_delivered = self._loopback_delivery(on_delivered)
        ps = self._placements[src_image]
        cost = self._overheads[resolved][ps.node]
        if cost is not None:
            yield cost
        hold, delay, label = self._post(resolved, ps,
                                        self._placements[dst_image], nbytes)

        def _after_source_done() -> None:
            if on_delivered is not None:
                self._engine.schedule(delay, on_delivered, label=label)

        return hold.resource.occupy(hold.duration, then=_after_source_done)

    def recv_cost(self) -> float:
        """Receiver-side CPU time per message (two-sided conduits)."""
        return self.profile.recv_overhead
