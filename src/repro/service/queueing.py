"""Priority + weighted-fair-share request queue (pure data structure).

The broker's scheduling core, kept free of asyncio so its invariants
are unit-testable with plain pushes and pops:

* **strict priority classes** — a pending priority-5 ticket always
  dequeues before any priority-0 ticket;
* **weighted round-robin within a class** — tenants take turns in
  first-appearance order; a tenant with weight *w* dequeues up to *w*
  tickets per turn, so one tenant flooding the queue cannot starve the
  others (it just waits for its next turn like everyone else);
* **FIFO within (tenant, class)** — a tenant's own requests at equal
  priority complete in submission order;
* **lazy cancellation** — mirroring the keyed heap of
  :class:`repro.simulator.events.EventQueue` (a cancelled or superseded
  entry stays in the heap until it surfaces, and ``pop`` drops it in
  the same pass), a cancelled ticket in a lane's *interior* stays put
  as a payload-free stub (deque interior removal is O(n)) and is
  silently dropped when it reaches the front;
  tickets at either lane edge are removed immediately on cancel, and
  live counts never include cancelled tickets either way.

``pop`` takes an optional eligibility predicate (the broker passes
"tenant below its concurrency quota"); an ineligible tenant is passed
over — forfeiting the rest of its current turn — and its tickets stay
queued for a later pop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["FairQueue", "QueuedTicket"]


@dataclass(eq=False)
class QueuedTicket:
    """One queued request.  The broker attaches its asyncio future via
    ``context``; the queue itself only reads ``tenant`` and
    ``cancelled``."""

    id: int
    tenant: str
    priority: int
    payload: Any
    #: Broker-owned extras (future, deadline, enqueue stamp, ...).
    context: Any = None
    cancelled: bool = False
    #: Set once the queue hands the ticket out; guards double-accounting
    #: when a cancel races a pop.
    popped: bool = False


@dataclass
class _PriorityClass:
    """WRR state of one priority level."""

    lanes: dict[str, deque] = field(default_factory=dict)
    #: Tenant rotation, first-appearance order (stable and
    #: deterministic — no hashing order anywhere).
    order: list[str] = field(default_factory=list)
    #: Index of the tenant whose turn it is.
    idx: int = 0
    #: Dequeues left in the current tenant's turn.
    budget: int = 0

    def push(self, ticket: QueuedTicket, weight_of) -> None:
        lane = self.lanes.get(ticket.tenant)
        if lane is None:
            lane = self.lanes[ticket.tenant] = deque()
            self.order.append(ticket.tenant)
            if len(self.order) == 1:
                self.idx = 0
                self.budget = weight_of(ticket.tenant)
        lane.append(ticket)

    def _advance(self, weight_of) -> None:
        self.idx = (self.idx + 1) % len(self.order)
        self.budget = weight_of(self.order[self.idx])

    def _drop_current(self, weight_of) -> None:
        """Remove the current (drained) tenant from the rotation —
        client-controlled tenant names must not accumulate forever.  A
        tenant that submits again simply rejoins as a newcomer."""
        tenant = self.order.pop(self.idx)
        del self.lanes[tenant]
        if self.order:
            self.idx %= len(self.order)
            self.budget = weight_of(self.order[self.idx])

    def pop(
        self,
        weight_of: Callable[[str], int],
        eligible: "Callable[[str], bool] | None",
    ) -> QueuedTicket | None:
        # up to one full rotation plus the current (possibly mid-turn)
        # tenant; drained-lane removals shrink the rotation, so they
        # do not count as attempts
        attempts = 0
        while self.order and attempts <= len(self.order):
            tenant = self.order[self.idx]
            lane = self.lanes[tenant]
            while lane and lane[0].cancelled:
                lane.popleft()  # lazy-cancel drop
            if not lane:
                self._drop_current(weight_of)
                continue
            if self.budget <= 0 or (
                eligible is not None and not eligible(tenant)
            ):
                self._advance(weight_of)
                attempts += 1
                continue
            self.budget -= 1
            ticket = lane.popleft()
            if not lane:
                self._drop_current(weight_of)
            return ticket
        return None

    @property
    def empty(self) -> bool:
        return not self.lanes

    def live(self) -> Iterator[QueuedTicket]:
        for tenant in self.order:
            for ticket in self.lanes[tenant]:
                if not ticket.cancelled:
                    yield ticket


class FairQueue:
    """Strict-priority, weighted-fair, lazily-cancelling ticket queue.

    ``weight_of`` maps a tenant name to its (current) fair-share
    weight; it is consulted at turn boundaries, so re-registering a
    tenant with a new weight takes effect on its next turn.
    """

    def __init__(self, weight_of: Callable[[str], int]) -> None:
        self._weight_of = weight_of
        self._classes: dict[int, _PriorityClass] = {}
        #: Priorities, kept sorted descending (highest served first).
        self._priorities: list[int] = []
        self._n_live = 0

    def push(self, ticket: QueuedTicket) -> None:
        cls = self._classes.get(ticket.priority)
        if cls is None:
            cls = self._classes[ticket.priority] = _PriorityClass()
            self._priorities.append(ticket.priority)
            self._priorities.sort(reverse=True)
        cls.push(ticket, self._weight_of)
        self._n_live += 1

    def pop(
        self, eligible: "Callable[[str], bool] | None" = None
    ) -> QueuedTicket | None:
        """Next ticket by (priority desc, WRR across tenants, FIFO),
        or ``None`` when nothing eligible is queued.  Fully drained
        priority classes are pruned on the way — client-chosen
        priority ints must not accumulate forever."""
        for priority in list(self._priorities):
            cls = self._classes[priority]
            ticket = cls.pop(self._weight_of, eligible)
            if cls.empty:
                del self._classes[priority]
                self._priorities.remove(priority)
            if ticket is not None:
                self._n_live -= 1
                ticket.popped = True
                return ticket
        return None

    def cancel(self, ticket: QueuedTicket) -> bool:
        """Lazily cancel a queued ticket (no-op on one already
        cancelled or already popped).

        The tombstone sheds its payload immediately (a request can
        hold a ~100 KB problem instance) and both lane *edges* are
        pruned eagerly — a submit+cancel loop while every worker slot
        is busy (no pops running) must not retain its requests.
        Interior tombstones (live tickets on both sides) remain until
        a pop reaches them, but they are payload-free stubs.
        """
        if ticket.cancelled or ticket.popped:
            return False
        ticket.cancelled = True
        ticket.payload = None
        ticket.context = None
        self._n_live -= 1
        cls = self._classes.get(ticket.priority)
        lane = cls.lanes.get(ticket.tenant) if cls is not None else None
        if lane:
            while lane and lane[-1].cancelled:
                lane.pop()
            while lane and lane[0].cancelled:
                lane.popleft()
        return True

    def live_tickets(self) -> list[QueuedTicket]:
        """Live tickets in class order (diagnostics/draining)."""
        out: list[QueuedTicket] = []
        for priority in self._priorities:
            out.extend(self._classes[priority].live())
        return out

    def __len__(self) -> int:
        return self._n_live

    def __bool__(self) -> bool:
        return self._n_live > 0
