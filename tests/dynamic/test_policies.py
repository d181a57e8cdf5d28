"""Policy behaviour on a hand-built three-operator tree.

The micro tree (root over two al-operators on 10 MB and 20 MB objects)
carries explicit work ``w = (30, 10, 20)`` and near-zero outputs, so
loads are fully predictable and ρ scales *compute only*: one cheapest
machine (11.72 GHz ≈ 70e3 ops/s) carries everything at ρ = 1, and
pushing ρ to 2000 (load 120e3 ops/s) is a precisely sized injected
violation that a mid-catalog CPU clears.
"""

import pytest

from repro.api import ReplayRequest, replay
from repro.apptree.nodes import Operator
from repro.apptree.objects import BasicObject, ObjectCatalog
from repro.apptree.tree import OperatorTree
from repro.core import allocate, verify
from repro.core.problem import ProblemInstance
from repro.dynamic import (
    POLICY_FACTORIES,
    POLICY_ORDER,
    TraceEvent,
    WorkloadTrace,
    make_policy,
    repair_allocation,
)
from repro.errors import AllocationError
from repro.platform.catalog import dell_catalog
from repro.platform.network import NetworkModel
from repro.platform.servers import ServerFarm
from repro.rng import derive_seed

#: Negligible operator output so edge bandwidth stays trivial at any ρ.
_EPS_MB = 1e-3


def micro_operators():
    return [
        Operator(index=0, children=(1, 2), leaves=(), work=30.0,
                 output_mb=_EPS_MB),
        Operator(index=1, children=(), leaves=(0,), work=10.0,
                 output_mb=_EPS_MB),
        Operator(index=2, children=(), leaves=(1,), work=20.0,
                 output_mb=_EPS_MB),
    ]


@pytest.fixture
def micro():
    catalog = ObjectCatalog(
        [BasicObject(0, 10.0, 0.5), BasicObject(1, 20.0, 0.5)]
    )
    tree = OperatorTree(micro_operators(), catalog)
    return ProblemInstance(
        tree=tree,
        farm=ServerFarm.single_server(2),
        catalog=dell_catalog(),
        network=NetworkModel(
            processor_link_mbps=1000.0, server_link_mbps=1000.0
        ),
        rho=1.0,
    )


def micro_trace(inst, rhos, name="micro"):
    return WorkloadTrace(
        name=name, seed=7, initial=inst,
        events=tuple(
            TraceEvent(time=float(e + 1), kind="rho",
                       label=f"rho->{r}", rho=r)
            for e, r in enumerate(rhos)
        ),
    )


class TestRegistry:
    def test_order_matches_factories(self):
        # "market" is registered but stays out of the canonical
        # comparison order: it allocates exactly like "trade", so the
        # default policy_comparison would double-count that column
        assert set(POLICY_ORDER) | {"market"} == set(POLICY_FACTORIES)

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError, match="unknown policy"):
            make_policy("nope")


class TestStatic:
    def test_never_migrates_and_violates_under_pressure(self, micro):
        # ρ 2000 overloads the 11.72 GHz machine (load 120k > ~70k ops/s)
        result = replay(ReplayRequest(
            trace=micro_trace(micro, [1.5, 2000.0, 1.0]), policy="static"))
        assert [r.action for r in result.records] == [
            "initial", "keep", "keep", "keep",
        ]
        assert result.total_migrations == 0
        assert all(r.n_purchases == 0 for r in result.records[1:])
        # platform frozen: cost never changes after the initial purchase
        costs = {r.platform_cost for r in result.records}
        assert len(costs) == 1
        # the ρ=2000 epoch must be flagged as violating
        assert result.records[2].n_violations > 0
        assert result.violation_epochs >= 1

    def test_fails_on_structural_change(self, micro):
        from dataclasses import replace

        policy = make_policy("static")
        decision = policy.initial(micro, rng=0)
        # a fourth operator arrives: the frozen plan cannot cover it
        ops = micro_operators()
        ops[1] = Operator(index=1, children=(3,), leaves=(0,), work=10.0,
                          output_mb=_EPS_MB)
        ops.append(
            Operator(index=3, children=(), leaves=(0,), work=5.0,
                     output_mb=_EPS_MB)
        )
        grown = replace(
            micro, tree=OperatorTree(ops, micro.tree.catalog)
        )
        with pytest.raises(AllocationError, match="static"):
            policy.react(grown, decision.allocation, rng=0)


class TestResolve:
    def test_matches_fresh_heuristic_run(self, micro):
        trace = micro_trace(micro, [1.5, 3.0])
        result = replay(ReplayRequest(trace=trace, policy="resolve"))
        for epoch, (_t, _label, inst) in enumerate(trace.epochs()):
            fresh = allocate(
                inst, "subtree-bottom-up",
                rng=derive_seed(trace.seed, "replay", "resolve", epoch),
            )
            assert result.records[epoch].platform_cost == fresh.cost
            assert (
                result.records[epoch].n_processors
                == fresh.allocation.n_processors
            )


@pytest.mark.parametrize("strategy", ["harvest", "trade"])
class TestRepairStrategies:
    def test_clears_injected_compute_violation(self, micro, strategy):
        base = allocate(micro, "subtree-bottom-up", rng=0).allocation
        pushed = micro.with_rho(2000.0)
        # the running allocation really is violated at the new target
        from repro.core.mapping import Allocation

        carried = Allocation(
            instance=pushed,
            processors=base.processors,
            assignment=dict(base.assignment),
            downloads=dict(base.downloads),
        )
        assert not verify(carried).feasible
        outcome = repair_allocation(pushed, base, strategy=strategy)
        assert verify(outcome.allocation).feasible
        assert outcome.allocation.instance.rho == 2000.0

    def test_harvests_slack_when_load_drops(self, micro, strategy):
        high = micro.with_rho(2000.0)
        expensive = allocate(high, "subtree-bottom-up", rng=0).allocation
        relaxed = high.with_rho(1.0)
        outcome = repair_allocation(relaxed, expensive, strategy=strategy)
        assert verify(outcome.allocation).feasible
        assert outcome.allocation.cost < expensive.cost

    def test_policy_replay_stays_feasible(self, micro, strategy):
        result = replay(ReplayRequest(
            trace=micro_trace(micro, [1.5, 2000.0, 1.0]), policy=strategy))
        assert result.violation_epochs == 0
        # adapting beats freezing: the pushed epoch was actually served
        assert result.records[2].feasible
