"""Team runtime structures: the paper's ``team_type`` (§III).

The paper's runtime stores, per team, "image-specific information, such
as the mapping from a new index to the process identifier in the lower
communication layer", plus the synchronization state collectives need
(its Algorithm 1 reads ``team.cocounter``).  We split that into:

* :class:`TeamShared` — one object per formed team, shared by all its
  members: the index→proc mapping, the precomputed
  :class:`~repro.teams.hierarchy.HierarchyInfo`, and the synchronization
  cells (dissemination ``sync_flags``, linear-barrier cocounters and
  release flags, tagged mailboxes for data-carrying collectives).
* :class:`TeamView` — one per member image: its 1-based index, its
  barrier/collective sequence counters, and a link to the view of the
  parent team it was formed from.

All cross-image *data* lives in shared Python structures at zero model
cost; every *notification or payload movement* that touches them is
charged through the conduit before the shared structure is updated.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, Hashable, List, Optional, Sequence

from ..machine import Topology
from ..sim import Cell, Engine
from .hierarchy import HierarchyInfo

__all__ = ["TeamShared", "TeamView", "INITIAL_TEAM_NUMBER"]

#: the Fortran initial team has no user team_number; we use -1 like OpenUH
INITIAL_TEAM_NUMBER = -1

_uid_counter = itertools.count(1)


class TeamShared:
    """Shared state of one formed team."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        members: Sequence[int],
        team_number: int,
        parent: Optional["TeamShared"],
        leader_strategy: str = "lowest",
        formation_seq: int = 0,
    ):
        if not members:
            raise ValueError("a team needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError("duplicate member procs in team")
        self.uid = next(_uid_counter)
        self.engine = engine
        self.team_number = team_number
        self.parent = parent
        #: teams formed from this one (filled as children are created) —
        #: lets diagnostics walk the whole team tree from the initial team
        self.children: List["TeamShared"] = []
        if parent is not None:
            parent.children.append(self)
        #: global proc ids ordered by team index (position p ↔ index p+1)
        self.members: List[int] = list(members)
        self.proc_to_index: Dict[int, int] = {
            proc: pos + 1 for pos, proc in enumerate(self.members)
        }
        self.hierarchy = HierarchyInfo.build(
            topology, self.members, strategy=leader_strategy,
            formation_seq=formation_seq,
        )
        n = len(self.members)
        self.num_rounds = max(1, math.ceil(math.log2(n))) if n > 1 else 0
        # --- synchronization cells, indexed by 1-based team index -------
        self._diss_flags: Dict[tuple, Cell] = {}
        self._cocounter: Dict[int, Cell] = {}
        self._release: Dict[int, Cell] = {}
        # --- tagged mailboxes for data-carrying collectives --------------
        self._mail_cells: Dict[tuple, Cell] = {}
        self._mail_values: Dict[tuple, List[Any]] = {}
        # --- node-shared window slots (shmwin collectives) ---------------
        #: key → [value, remaining_readers]; entries free themselves when
        #: the last expected reader takes the value, so a long run of
        #: window collectives never accumulates dead slots
        self._win_values: Dict[tuple, list] = {}
        # --- tuned-dispatch selections (resolved once per team) ----------
        #: (kind, payload band) → algorithm name, filled lazily by
        #: :mod:`repro.collectives.tuned` the first time a tuned
        #: collective of that regime runs on this team
        self.tuned_selections: Dict[tuple, str] = {}
        # --- form_team rendezvous state ----------------------------------
        self.formation_counter = 0
        self._formations: Dict[int, dict] = {}

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.members)

    def proc_of(self, index: int) -> int:
        """Global proc id of team index ``index`` (1-based) — the paper's
        image-index mapping array lookup."""
        members = self.members
        if not 1 <= index <= len(members):
            raise ValueError(f"image index {index} out of range [1, {self.size}]")
        return members[index - 1]

    def index_of(self, proc: int) -> int:
        """Team index of global proc ``proc``; raises if not a member."""
        try:
            return self.proc_to_index[proc]
        except KeyError:
            raise ValueError(f"proc {proc} is not a member of team {self!r}") from None

    def ancestors(self) -> List["TeamShared"]:
        """Chain parent, grandparent, ... up to the initial team."""
        out = []
        cur = self.parent
        while cur is not None:
            out.append(cur)
            cur = cur.parent
        return out

    # ------------------------------------------------------------------
    # Dissemination sync_flags (one monotonically increasing counter per
    # member per round — the "carry" that makes the one-wait barrier work)
    # ------------------------------------------------------------------
    def diss_flag(self, index: int, round_: int, variant: str = "tdlb") -> Cell:
        key = (variant, index, round_)
        cell = self._diss_flags.get(key)
        if cell is None:
            cell = Cell(
                self.engine, 0,
                name=f"t{self.uid}.{variant}[{index}][{round_}]",
                meta={"kind": "diss", "team": self, "index": index,
                      "round": round_, "variant": variant},
            )
            self._diss_flags[key] = cell
        return cell

    def cocounter(self, index: int) -> Cell:
        """Arrival counter at a node leader (Algorithm 1's ``cocounter``)."""
        cell = self._cocounter.get(index)
        if cell is None:
            cell = Cell(
                self.engine, 0, name=f"t{self.uid}.cocounter[{index}]",
                meta={"kind": "cocounter", "team": self, "index": index},
            )
            self._cocounter[index] = cell
        return cell

    def release_flag(self, index: int) -> Cell:
        """Per-slave release counter for the linear barrier's second phase."""
        cell = self._release.get(index)
        if cell is None:
            cell = Cell(
                self.engine, 0, name=f"t{self.uid}.release[{index}]",
                meta={"kind": "release", "team": self, "index": index},
            )
            self._release[index] = cell
        return cell

    # ------------------------------------------------------------------
    # Tagged mailboxes (data plane of reductions, broadcasts, formation)
    # ------------------------------------------------------------------
    def mail_cell(self, index: int, tag: Hashable) -> Cell:
        """Arrival counter of mailbox ``tag`` at member ``index``."""
        key = (index, tag)
        cell = self._mail_cells.get(key)
        if cell is None:
            # a fresh tag per operation: the name (a tuple repr) is only
            # formatted if a deadlock or race report reads it
            cell = self._mail_cells[key] = Cell(
                self.engine, 0,
                name=lambda: f"t{self.uid}.mail[{index}]{tag}",
                meta={"kind": "mail", "team": self, "index": index, "tag": tag},
            )
        return cell

    def deposit(self, index: int, tag: Hashable, value: Any) -> None:
        """Land ``value`` in member ``index``'s mailbox ``tag`` and bump its
        counter — called from transfer delivery callbacks only."""
        self._mail_values.setdefault((index, tag), []).append(value)
        self.mail_cell(index, tag).add(1)

    def collect(self, index: int, tag: Hashable) -> List[Any]:
        """Drain mailbox ``tag`` at member ``index`` and free its storage."""
        key = (index, tag)
        values = self._mail_values.pop(key, [])
        self._mail_cells.pop(key, None)
        return values

    # ------------------------------------------------------------------
    # Node-shared window slots (data plane of the shmwin collectives)
    # ------------------------------------------------------------------
    def win_put(self, key: tuple, value: Any, readers: int) -> None:
        """Publish ``value`` in window slot ``key`` for exactly ``readers``
        consumers — called from store-delivery callbacks only.  With no
        expected readers the slot is never materialized."""
        if readers > 0:
            self._win_values[key] = [value, readers]

    def win_take(self, key: tuple) -> Any:
        """Read window slot ``key``; the slot frees itself when its last
        expected reader has taken the value."""
        entry = self._win_values[key]
        entry[1] -= 1
        if entry[1] <= 0:
            del self._win_values[key]
        return entry[0]

    def win_peek_nbytes(self, key: tuple) -> int:
        """Payload size of slot ``key`` without consuming it — readers
        charge the load transfer before taking the value."""
        from ..collectives.base import payload_nbytes

        return payload_nbytes(self._win_values[key][0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TeamShared(uid={self.uid}, number={self.team_number}, "
            f"size={self.size})"
        )


class TeamView:
    """One image's handle on a team — what a ``team_type`` variable holds."""

    def __init__(self, shared: TeamShared, proc: int, parent_view: Optional["TeamView"]):
        self.shared = shared
        self.proc = proc
        self.index = shared.index_of(proc)  # 1-based, this_image() in the team
        self.parent_view = parent_view
        #: per-variant invocation counters driving the sync_flags carry;
        #: identical across members because SPMD images call team
        #: collectives in the same order
        self._seqs: Dict[str, int] = {}
        #: per-collective-call counter for mailbox tags (same SPMD argument)
        self.op_seq = 0

    @property
    def size(self) -> int:
        return self.shared.size

    @property
    def team_number(self) -> int:
        return self.shared.team_number

    def next_seq(self, variant: str) -> int:
        """Invocation number of the next ``variant`` barrier on this team
        (1 on first call).  The carry predicate waits for flag >= seq."""
        seq = self._seqs.get(variant, 0) + 1
        self._seqs[variant] = seq
        return seq

    def next_op_tag(self, kind: str) -> tuple:
        """A tag unique to this collective call, agreed on by all members
        because SPMD images issue team collectives in the same order."""
        self.op_seq += 1
        return (kind, self.op_seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TeamView(team={self.shared.uid}, index={self.index}/{self.size})"
