"""The replay's simulation memo: each platform validated once per replay.

A validated replay simulates an epoch's allocation only the first time
it meets the allocation's :func:`~repro.dynamic.replay._simulation_key`
within that replay; later epochs that return to the same platform reuse
the run.  The memo must be invisible: the same JSON as simulating every
epoch, a miss whenever any simulated input changes, and no reuse across
separate ``replay()`` calls.
"""

import dataclasses

import pytest

import repro
import repro.dynamic.replay as replay_module
import repro.simulator as simulator
from repro.api import ReplayRequest, replay
from repro.core import allocate
from repro.core.mapping import Allocation
from repro.dynamic import make_trace
from repro.platform.resources import Processor


def churn_request():
    return ReplayRequest(
        trace=make_trace("churn", seed=2009), policy="harvest",
        validate=True, sim_warmup=True,
    )


@pytest.fixture
def counted(monkeypatch):
    """Record the memo key of every real simulation run."""
    keys = []
    original = simulator.simulate_allocation

    def simulate_allocation(alloc, **kwargs):
        keys.append(replay_module._simulation_key(
            alloc, kwargs["warmup_results"]
        ))
        return original(alloc, **kwargs)

    monkeypatch.setattr(simulator, "simulate_allocation", simulate_allocation)
    return keys


class TestOncePerPlatform:
    def test_one_run_per_distinct_key(self, counted):
        result = replay(churn_request())
        validated = sum(r.sim_ok is not None for r in result.records)
        assert len(counted) == len(set(counted))
        assert len(counted) < validated  # the churn trace revisits

    def test_memoised_json_equals_simulating_every_epoch(
        self, counted, monkeypatch
    ):
        memoised = replay(churn_request())
        n_memoised = len(counted)
        counted.clear()
        # a fresh key per call: every validated epoch simulates
        monkeypatch.setattr(
            replay_module, "_simulation_key", lambda alloc, warmup: object()
        )
        unmemoised = replay(churn_request())
        assert len(counted) > n_memoised
        assert len(counted) == sum(
            r.sim_ok is not None for r in unmemoised.records
        )
        assert memoised.to_json() == unmemoised.to_json()

    def test_memo_is_scoped_to_one_replay(self, counted):
        replay(churn_request())
        first = len(counted)
        replay(churn_request())
        assert len(counted) == 2 * first


@pytest.fixture(scope="module")
def alloc():
    inst = repro.quick_instance(20, alpha=1.5, seed=5)
    return allocate(inst, "subtree-bottom-up", rng=1).allocation


def key(alloc, warmup=0):
    return replay_module._simulation_key(alloc, warmup)


class TestKeyInputs:
    def test_equal_rebuilt_allocation_hits(self, alloc):
        rebuilt = Allocation(
            instance=alloc.instance,
            processors=tuple(alloc.processors),
            assignment=dict(alloc.assignment),
            downloads=dict(alloc.downloads),
        )
        assert key(rebuilt) == key(alloc)

    def test_rho_misses(self, alloc):
        faster = dataclasses.replace(
            alloc, instance=dataclasses.replace(
                alloc.instance, rho=alloc.instance.rho * 1.5
            ),
        )
        assert faster.instance.tree is alloc.instance.tree
        assert key(faster) != key(alloc)

    def test_download_server_misses(self, alloc):
        farm = alloc.instance.farm
        (u, k), other = next(
            ((u, k), l)
            for (u, k), server in alloc.downloads.items()
            for l in farm.uids
            if l != server and k in farm[l].objects
        )
        moved = dataclasses.replace(
            alloc, downloads={**alloc.downloads, (u, k): other}
        )
        assert key(moved) != key(alloc)

    def test_processor_spec_misses(self, alloc):
        first = alloc.processors[0]
        spec = next(
            s for s in alloc.instance.catalog.specs if s != first.spec
        )
        respecced = dataclasses.replace(
            alloc,
            processors=(Processor(first.uid, spec),) + alloc.processors[1:],
        )
        assert key(respecced) != key(alloc)

    def test_warmup_misses(self, alloc):
        assert key(alloc, warmup=8) != key(alloc, warmup=0)
