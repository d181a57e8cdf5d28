"""Tests for the event kernel."""

import pytest

from repro.simulator.events import EventQueue


def release(op, t):
    return ("release", op, t)


def finished(key):
    return ("finished", key)


def dispatch(entry):
    """Run a popped ``(when, seq, key, handler, args)`` entry."""
    when, _seq, _key, handler, args = entry
    return when, handler(*args)


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(3.0, release, 0, 1)
        q.push(1.0, release, 1, 1)
        q.push(2.0, release, 2, 1)
        times = [q.pop()[0] for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_fifo_tie_break(self):
        q = EventQueue()
        q.push(1.0, release, 7, 1)
        q.push(1.0, release, 8, 1)
        _, first = dispatch(q.pop())
        _, second = dispatch(q.pop())
        assert first[1] == 7 and second[1] == 8

    def test_clock_advances(self):
        q = EventQueue()
        q.push(5.0, release, 0, 1)
        assert q.now == 0.0
        q.pop()
        assert q.now == 5.0

    def test_no_scheduling_in_the_past(self):
        q = EventQueue()
        q.push(5.0, release, 0, 1)
        q.pop()
        with pytest.raises(ValueError):
            q.push(4.0, release, 0, 2)

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(1.0, finished, ("k", 0))
        assert q and len(q) == 1

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(2.5, release, 1, 2)
        assert q.peek_time() == 2.5
        assert len(q) == 1  # peek does not pop

    def test_pop_until_leaves_later_events(self):
        q = EventQueue()
        assert q.pop() is None
        q.push(2.0, release, 0, 1)
        assert q.pop(until=1.0) is None
        assert q.now == 0.0 and len(q) == 1  # nothing popped
        assert dispatch(q.pop(until=2.0)) == (2.0, ("release", 0, 1))
        assert q.now == 2.0 and not q


class TestLazyCancellation:
    def test_superseded_event_never_pops(self):
        q = EventQueue()
        q.push(5.0, finished, "f", key="f")
        q.push(2.0, finished, "f", key="f")  # supersedes
        assert len(q) == 1
        when, ev = dispatch(q.pop())
        assert when == 2.0 and ev == ("finished", "f")
        assert not q  # the dead 5.0 entry is gone, not pending

    def test_cancel_drops_event(self):
        q = EventQueue()
        q.push(1.0, finished, "f", key="f")
        q.push(2.0, release, 0, 1)
        assert q.cancel("f")
        assert not q.cancel("f")  # idempotent
        assert len(q) == 1
        assert q.peek_time() == 2.0  # dead head pruned by peek
        _, ev = dispatch(q.pop())
        assert ev == ("release", 0, 1)

    def test_cancel_unknown_key_is_noop(self):
        q = EventQueue()
        assert not q.cancel("ghost")

    def test_key_reusable_after_pop(self):
        q = EventQueue()
        q.push(1.0, finished, "f", key="f")
        q.pop()
        q.push(2.0, finished, "f", key="f")
        assert len(q) == 1
        assert q.pop()[0] == 2.0

    def test_len_and_bool_count_live_only(self):
        q = EventQueue()
        q.push(1.0, finished, "a", key="a")
        q.push(2.0, finished, "b", key="b")
        q.cancel("a")
        q.cancel("b")
        assert len(q) == 0 and not q
        assert q.peek_time() is None
        assert q.pop() is None

    def test_unkeyed_events_unaffected(self):
        q = EventQueue()
        q.push(1.0, release, 0, 1)
        q.push(1.0, release, 0, 2)
        assert len(q) == 2  # no supersede without a key


class TestCancelRescheduleCycles:
    """The invariant the service's validated replays lean on (PR 3):
    however many times a key is cancelled and rescheduled, exactly the
    *last-scheduled* event under that key ever dispatches."""

    def test_cancel_then_reschedule_twice_dispatches_only_the_last(self):
        q = EventQueue()
        q.push(5.0, finished, ("f", "v1"), key="f")
        # cycle 1: cancel, reschedule
        assert q.cancel("f")
        q.push(3.0, finished, ("f", "v2"), key="f")
        # cycle 2: cancel, reschedule again
        assert q.cancel("f")
        q.push(4.0, finished, ("f", "v3"), key="f")
        assert len(q) == 1  # three heap entries, one live
        assert dispatch(q.pop()) == (4.0, ("finished", ("f", "v3")))
        assert not q  # both dead entries pruned silently, never popped

    def test_supersede_then_cancel_then_reschedule(self):
        q = EventQueue()
        q.push(5.0, finished, ("f", "v1"), key="f")
        q.push(2.0, finished, ("f", "v2"), key="f")  # supersede
        assert q.cancel("f")
        assert not q
        q.push(6.0, finished, ("f", "v3"), key="f")
        assert len(q) == 1
        drained = []
        while q:
            drained.append(dispatch(q.pop()))
        assert drained == [(6.0, ("finished", ("f", "v3")))]

    def test_interleaved_keys_keep_independent_cycles(self):
        q = EventQueue()
        q.push(1.0, finished, ("a", 1), key="a")
        q.push(2.0, finished, ("b", 1), key="b")
        q.cancel("a")
        q.push(3.0, finished, ("a", 2), key="a")
        q.cancel("b")
        q.push(1.5, finished, ("b", 2), key="b")
        order = [dispatch(q.pop())[1][1] for _ in range(2)]
        assert order == [("b", 2), ("a", 2)]
