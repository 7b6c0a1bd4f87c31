"""Shared machinery for team collectives.

Every collective here is a *generator function* executed inside each
member image's simulated process.  They receive the image's
:class:`~repro.teams.team.TeamView` plus a ``ctx`` object exposing the
conduit, machine, and runtime config (duck-typed; the real one is
:class:`repro.runtime.program.CafContext`).

The module also holds the one-sided **dissemination core** used both by
the flat barrier and by the leader phase of TDLB — the paper's
"``sync_flags`` carry" with a single wait per round (§V-A): each image
keeps one monotonically increasing counter per round; the partner's
notification is an increment, and arrival at invocation ``seq`` is the
predicate ``counter >= seq``.  Nothing is ever reset, so there is no
second wait and no parity bookkeeping.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence

from ..faults.manager import wait_or_fail
from ..sim import Timeout, WaitFor
from ..teams.team import TeamView

__all__ = [
    "NOTIFY_NBYTES",
    "payload_nbytes",
    "combine_flops",
    "dissemination_rounds",
    "notify",
    "binomial_peers",
]

#: size of a pure synchronization notification (one flag word)
NOTIFY_NBYTES = 8


def payload_nbytes(value) -> int:
    """Bytes on the wire for a collective payload.

    Arrays report their true size; containers (the gather family moves
    lists/dicts of contributions) are summed recursively; anything else
    is one word.
    """
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(value, (list, tuple)):
        return max(8, sum(payload_nbytes(v) for v in value))
    if isinstance(value, dict):
        return max(8, sum(payload_nbytes(v) for v in value.values()))
    return 8  # python scalar → one word


def combine_flops(value) -> float:
    """Element count of one combine step (charged as flops)."""
    size = getattr(value, "size", None)
    if size is not None:
        return float(size)
    return 1.0


def notify(ctx, view: TeamView, target_index: int, cell, path: str = "auto") -> Iterator:
    """Send one flag-word notification to team member ``target_index``,
    incrementing ``cell`` on delivery.

    Returns the conduit's transfer generator itself (``yield from
    notify(...)``), so a notification adds no frame of its own to the
    sender's resume chain.
    """
    return ctx.conduit.transfer(
        view.proc, view.shared.proc_of(target_index), NOTIFY_NBYTES,
        on_delivered=lambda: cell.add(1), path=path,
    )


def dissemination_rounds(
    ctx,
    view: TeamView,
    participants: Sequence[int],
    variant: str,
    seq: int,
    path: str = "auto",
    extra_round_cost: float = 0.0,
) -> Iterator:
    """One-wait dissemination barrier among ``participants`` (team indices).

    ``participants`` must be identical (same order) at every participant;
    ``variant`` namespaces the sync_flags so different algorithms on the
    same team never alias counters; ``seq`` is this call's invocation
    number for the carry predicate.  ``extra_round_cost`` models the
    additional local bookkeeping of the two-array [7] / two-wait [3]
    historical variants (experiment E6 compares them).
    """
    n = len(participants)
    if n <= 1:
        return
    shared = view.shared
    rank = participants.index(view.index)
    rounds = math.ceil(math.log2(n))
    faults = getattr(ctx, "faults", None)
    arrived = lambda v, s=seq: v >= s  # noqa: E731 - one predicate, every round
    for r in range(rounds):
        dist = 1 << r
        send_to = participants[(rank + dist) % n]
        flag = shared.diss_flag(send_to, r, variant)
        yield from notify(ctx, view, send_to, flag, path=path)
        my_flag = shared.diss_flag(view.index, r, variant)
        if faults is None:
            yield WaitFor(my_flag, arrived)
        else:
            yield from wait_or_fail(ctx, view, my_flag, arrived)
        if extra_round_cost > 0.0:
            yield Timeout(extra_round_cost)


def binomial_peers(rank: int, n: int) -> tuple[int | None, List[int]]:
    """Binomial-tree shape over virtual ranks 0..n-1 rooted at 0.

    Returns ``(parent, children)``: ``parent`` is ``rank`` with its lowest
    set bit cleared (None for the root); ``children`` are ``rank + 2^k``
    for every ``2^k`` by which ``rank`` is divisible twice over, listed
    largest stride first — the order a root-down broadcast sends in, so
    the deepest subtree starts earliest.
    """
    if not 0 <= rank < n:
        raise ValueError(f"rank {rank} out of range [0, {n})")
    parent = None if rank == 0 else rank - (rank & -rank)
    children: List[int] = []
    stride = 1
    while stride < n:
        if rank % (stride << 1) != 0:
            break
        child = rank + stride
        if child < n:
            children.append(child)
        stride <<= 1
    children.reverse()
    return parent, children
