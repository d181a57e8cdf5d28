"""The simulation clock and future-event list.

A tiny, dependency-free event kernel: a heap of
``(when, seq, key, handler, args)`` entries with a monotone sequence
number for deterministic FIFO tie-breaking.  An entry carries the
callable that handles it and that callable's arguments, so scheduling
builds no event object and dispatch is ``handler(*args)``.  The engine
(:mod:`repro.simulator.engine`) is a *fluid-flow* DES: the only events
are discrete state changes (a compute step or network transfer
finishing, a periodic source/download release); between events,
transfer progress is linear at the current max-min rates.

Lazy cancellation: entries pushed with a ``key`` are *cancellable* —
pushing another entry under the same key supersedes the old one, and
:meth:`EventQueue.cancel` kills the live one.  Dead entries stay in the
heap (removing from a heap interior is O(n)) and are silently dropped
when they surface at the top, so a superseded transfer completion is
never popped, dispatched, and discarded by the caller: it simply never
comes out.  ``len``/``bool``/``peek_time``/``pop`` all see only live
entries, and :meth:`EventQueue.pop` prunes and pops in one pass.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Hashable

__all__ = ["EventQueue"]

_heappop = heapq.heappop
_heappush = heapq.heappush


class EventQueue:
    """Heap-ordered future event list with deterministic tie-breaking
    and lazy (tombstone-free) cancellation of keyed entries."""

    __slots__ = ("_heap", "_seq", "now", "_live", "_n_dead")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self.now = 0.0
        #: key → seq of the one live entry scheduled under that key.
        self._live: dict[Hashable, int] = {}
        self._n_dead = 0

    def push(
        self,
        when: float,
        handler: Callable[..., Any],
        *args: Any,
        key: Hashable | None = None,
    ) -> None:
        """Schedule ``handler(*args)`` at ``when``; a ``key`` supersedes
        the live entry already scheduled under it."""
        if when < self.now - 1e-9:
            raise ValueError(
                f"cannot schedule event in the past ({when} < {self.now})"
            )
        seq = next(self._seq)
        if key is not None:
            if key in self._live:
                self._n_dead += 1  # supersede: old entry is now dead
            self._live[key] = seq
        _heappush(self._heap, (when, seq, key, handler, args))

    def cancel(self, key: Hashable) -> bool:
        """Kill the live entry under ``key`` (no-op if none). Returns
        whether an entry was cancelled."""
        if self._live.pop(key, None) is None:
            return False
        self._n_dead += 1
        return True

    def _head(self) -> tuple | None:
        """Drop dead entries off the top; return the live head entry."""
        heap = self._heap
        live = self._live
        while heap:
            entry = heap[0]
            key = entry[2]
            if key is None or live.get(key) == entry[1]:
                return entry
            _heappop(heap)
            self._n_dead -= 1
        return None

    def pop(self, until: float = float("inf")) -> tuple | None:
        """Remove the next live entry, advance the clock to it and
        return it as ``(when, seq, key, handler, args)``.  Returns
        ``None`` and pops nothing when no live entry is due at or
        before ``until`` (``bool(queue)`` then tells whether later ones
        remain)."""
        heap = self._heap
        live = self._live
        while heap:
            entry = heap[0]
            key = entry[2]
            if key is not None and live.get(key) != entry[1]:
                _heappop(heap)  # dead: superseded or cancelled
                self._n_dead -= 1
            elif entry[0] > until:
                return None
            else:
                _heappop(heap)
                if key is not None:
                    del live[key]
                self.now = entry[0]
                return entry
        return None

    def peek_time(self) -> float | None:
        """Time of the next live entry (``None`` when there is none)."""
        entry = self._head()
        return None if entry is None else entry[0]

    def clear(self) -> None:
        """Drop every pending entry; the clock stays where it is."""
        self._heap.clear()
        self._live.clear()
        self._n_dead = 0

    def __len__(self) -> int:  # also ``bool``: live entries only
        return len(self._heap) - self._n_dead
