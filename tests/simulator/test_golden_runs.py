"""Golden simulator runs: every :class:`SimulationResult` field, exactly.

The ``warm``/``naive`` kernel oracle cannot guard the event loop both
kernels share, and the replay digests see only the achieved rate and
the deadline misses.  This fixture records every field of a fixed set
of runs -- event counts, completion times, latencies, both utilisation
maps, injected-flow finish times and the warm-cache counters -- so a
faster event core must dispatch the same events in the same order, not
merely reach similar rates.

Cases:

* every validated epoch of the churn trace under ``harvest``, simulated
  the way a warm-up-aware validated replay simulates it;
* every run of the ramp trace's simulated ``harvest`` transitions
  (injected drain and state-transfer flows, elastic policy);
* an ``elastic`` run, a run with ``warmup_results > 0``, a saturated run
  that stops at its ``time_limit``, a run that trips ``max_events``, a
  run with download deadline misses, and a run whose cross-processor
  edge carries zero volume.

The fixture under ``golden/`` was generated by :func:`generate`
(``python -c "from tests.simulator.test_golden_runs import generate;
generate()"`` with ``PYTHONPATH=src``) and is only ever regenerated
when the simulated physics is *meant* to change.
"""

import dataclasses
import json
import pathlib

import pytest

import repro
from repro.core import allocate, max_throughput
from repro.simulator import SteadyStateSimulator, simulate_allocation

GOLDEN = pathlib.Path(__file__).parent / "golden" / "runs.json"


def encode(result) -> dict:
    """Every dataclass field of ``result``, JSON-ready: tuples become
    lists, maps become ``[repr(key), value]`` pairs sorted by key."""
    out = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if isinstance(value, dict):
            value = sorted([repr(k), v] for k, v in value.items())
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _alloc(n=20, alpha=1.5, seed=5, heuristic="subtree-bottom-up", rng=1):
    inst = repro.quick_instance(n, alpha=alpha, seed=seed)
    return allocate(inst, heuristic, rng=rng).allocation


def churn_epochs():
    """One run per validated epoch of a warm-up-aware churn replay."""
    import repro.dynamic.replay as replay_module
    from repro.api import ReplayRequest, replay
    from repro.dynamic import make_trace
    from repro.dynamic.replay import pipeline_warmup_results

    allocs = []
    original = replay_module.verify

    def verify(alloc):
        report = original(alloc)
        if report.feasible:
            allocs.append(alloc)
        return report

    replay_module.verify = verify
    try:
        replay(ReplayRequest(trace=make_trace("churn", seed=2009),
                             policy="harvest"))
    finally:
        replay_module.verify = original
    runs = []
    for alloc in allocs:
        warmup = pipeline_warmup_results(alloc)
        runs.append(simulate_allocation(
            alloc, n_results=30 + warmup, kernel="warm",
            warmup_results=warmup,
        ))
    return runs


def transition_runs():
    """Every simulator run of the ramp trace's simulated transitions
    (each step runs an injected and a baseline simulation)."""
    from repro.api import ReplayRequest, replay
    from repro.dynamic import make_trace

    runs = []
    original = SteadyStateSimulator.run

    def run(self):
        result = original(self)
        runs.append(result)
        return result

    SteadyStateSimulator.run = run
    try:
        replay(ReplayRequest(
            trace=make_trace("ramp", seed=2009), policy="harvest",
            migration_model="state-size", sim_transitions=True,
        ))
    finally:
        SteadyStateSimulator.run = original
    assert any(r.injected_finish for r in runs)
    return runs


def elastic():
    return [simulate_allocation(_alloc(n=15), n_results=40,
                                flow_policy="elastic")]


def warmup():
    return [simulate_allocation(_alloc(n=15, heuristic="random"),
                                n_results=40, warmup_results=12)]


def time_limit():
    alloc = _alloc(n=20, alpha=1.6)
    rho = 2.0 * max_throughput(alloc).rho_max
    result = SteadyStateSimulator(
        alloc, offered_rate=rho, n_results=60, time_limit=30.0 / rho,
    ).run()
    assert result.saturated and result.n_root_results < 60
    return [result]


def max_events():
    result = SteadyStateSimulator(
        _alloc(n=20), n_results=500, max_events=200
    ).run()
    assert result.saturated and result.n_events == 201
    return [result]


def _pair_instance(tree_of, server_link):
    from repro.core.problem import ProblemInstance
    from repro.platform.network import NetworkModel
    from repro.platform.resources import Server
    from repro.platform.servers import ServerFarm
    from tests.conftest import build_catalog
    from tests.core.test_constraints import tiny_catalog

    return ProblemInstance(
        tree=tree_of(build_catalog([100.0, 100.0])),
        farm=ServerFarm(
            [Server(uid=0, objects=frozenset({0, 1}), nic_mbps=10_000.0)]
        ),
        catalog=tiny_catalog(1e9, 1e9),
        network=NetworkModel(server_link_mbps=server_link),
    )


def download_misses():
    from repro.core.mapping import Allocation
    from repro.platform.resources import Processor
    from tests.conftest import build_pair_tree

    inst = _pair_instance(
        lambda cat: build_pair_tree(cat, 0, 1, alpha=0.1), server_link=60.0
    )
    alloc = Allocation(
        instance=inst,
        processors=(Processor(0, inst.catalog.cheapest),),
        assignment={0: 0, 1: 0, 2: 0},
        downloads={(0, 0): 0, (0, 1): 0},
    )
    result = SteadyStateSimulator(alloc, n_results=10, time_limit=40.0).run()
    assert result.download_misses > 0
    return [result]


def zero_volume():
    """Operator 1 emits nothing: its output edge to the root, on
    another processor, carries zero volume."""
    from repro.apptree.nodes import Operator
    from repro.apptree.tree import OperatorTree
    from repro.core.mapping import Allocation
    from repro.platform.resources import Processor

    def tree_of(cat):
        return OperatorTree([
            Operator(index=0, children=(1, 2), leaves=(), work=50.0,
                     output_mb=5.0),
            Operator(index=1, children=(), leaves=(0,), work=20.0,
                     output_mb=0.0),
            Operator(index=2, children=(), leaves=(1,), work=20.0,
                     output_mb=5.0),
        ], cat)

    inst = _pair_instance(tree_of, server_link=1000.0)
    spec = inst.catalog.cheapest
    alloc = Allocation(
        instance=inst,
        processors=(Processor(0, spec), Processor(1, spec)),
        assignment={0: 0, 1: 1, 2: 1},
        downloads={(1, 0): 0, (1, 1): 0},
    )
    assert inst.tree[1].output_mb == 0.0
    return [SteadyStateSimulator(alloc, n_results=20).run()]


CASES = {
    "churn-harvest": churn_epochs,
    "ramp-harvest-transitions": transition_runs,
    "elastic": elastic,
    "warmup": warmup,
    "time-limit": time_limit,
    "max-events": max_events,
    "download-misses": download_misses,
    "zero-volume": zero_volume,
}


def run_case(name: str) -> list:
    return [encode(result) for result in CASES[name]()]


def generate() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    cases = {name: run_case(name) for name in CASES}
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_runs_match_golden(golden, name):
    # a JSON round trip turns tuples into lists and keeps floats exact
    got = json.loads(json.dumps(run_case(name)))
    assert got == golden[name]
