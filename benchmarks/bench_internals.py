"""Hot-path micro-benchmarks (not a paper artefact).

The placement heuristics' inner loop is `LoadTracker.assign/unassign`
(O(degree) by design), the `would_fit` probe and
`Catalog.cheapest_satisfying` (two bisections into tabulated
thresholds); the simulator's inner loop is `max_min_rates`.  These
micro-benchmarks keep their costs visible so algorithmic regressions
(e.g. someone recomputing whole-platform loads per probe) show up as
order-of-magnitude jumps in `pytest benchmarks/ --benchmark-only`.
The catalog row also gates the lookup against the cheapest-first scan
it replaced, as a same-process ratio that fires on any core count.
"""

from __future__ import annotations

import random
import timeit

import repro
from repro.core.loads import LoadTracker
from repro.platform.catalog import dell_catalog
from repro.simulator.flows import (
    CapacityConstraint,
    FlowNetwork,
    FlowSpec,
    _progressive_fill,
    _progressive_fill_vectorized,
    max_min_rates,
)

from conftest import SEED


def test_load_tracker_assign_unassign(benchmark):
    """Full assign/unassign sweep over a 120-operator tree."""
    inst = repro.quick_instance(120, alpha=1.2, seed=SEED)
    tracker = LoadTracker(inst)
    ops = list(inst.tree.operator_indices)

    def sweep():
        for pos, i in enumerate(ops):
            tracker.assign(i, pos % 8)
        for i in ops:
            tracker.unassign(i)
        return tracker

    result = benchmark(sweep)
    assert not result.assignment


def test_would_fit_probe(benchmark):
    """The heuristics' per-candidate feasibility probe."""
    inst = repro.quick_instance(80, alpha=1.4, seed=SEED)
    tracker = LoadTracker(inst)
    spec = inst.catalog.most_expensive
    for pos, i in enumerate(inst.tree.operator_indices):
        if pos % 3:
            tracker.assign(i, pos % 5)
    free = [i for i in inst.tree.operator_indices
            if i not in tracker.assignment]

    def probes():
        hits = 0
        for i in free:
            for u in range(5):
                if tracker.would_fit(i, u, spec.speed_ops, spec.nic_mbps):
                    hits += 1
        return hits

    hits = benchmark(probes)
    assert hits >= 0


#: Minimum scan/lookup time ratio on the catalog row.
LOOKUP_MIN_RATIO = 4.0


def _scan(catalog, work, bw):
    """The cheapest-first scan the lookup replaced (the oracle)."""
    for spec in catalog.specs:
        if spec.satisfies(work, bw):
            return spec
    return None


def test_cheapest_satisfying_lookup_vs_scan(benchmark):
    """20k fixed random loads over the whole Table 1 range: the lookup
    returns the scan's spec objects and beats the scan by a ratio."""
    catalog = dell_catalog()
    rng = random.Random(SEED)
    loads = [
        (rng.uniform(0.0, 1.1 * catalog.max_speed_ops),
         rng.uniform(0.0, 1.1 * catalog.max_nic_mbps))
        for _ in range(20_000)
    ]

    def lookups():
        return [catalog.cheapest_satisfying(w, b) for w, b in loads]

    def scans():
        return [_scan(catalog, w, b) for w, b in loads]

    found = benchmark(lookups)
    assert all(a is b for a, b in zip(found, scans(), strict=True))
    ratio = min(timeit.repeat(scans, number=1, repeat=5)) / min(
        timeit.repeat(lookups, number=1, repeat=5)
    )
    benchmark.extra_info["scan_over_lookup"] = round(ratio, 2)
    assert ratio >= LOOKUP_MIN_RATIO, (
        f"lookup only {ratio:.2f}x faster than the scan"
    )


def test_max_min_rates_scaling(benchmark):
    """60 flows over 25 shared constraints — bigger than any state the
    DES reaches on paper-sized instances."""
    constraints = [
        CapacityConstraint(("c", j), 100.0 + 7 * j) for j in range(25)
    ]
    flows = []
    for i in range(60):
        member = tuple(
            ("c", j) for j in range(25) if (i * 31 + j * 17) % 5 == 0
        ) or (("c", i % 25),)
        cap = 3.0 + (i % 7) if i % 3 == 0 else None
        flows.append(FlowSpec(("f", i), member, cap))

    rates = benchmark(max_min_rates, flows, constraints)
    assert len(rates) == 60


# -- progressive-fill kernels: python loop vs. numpy ------------------
#
# A single wide component whose flows carry distinct caps just under a
# binding shared constraint — the many-round regime where progressive
# filling freezes a few flows per round and the python loop's per-round
# member rescans turn quadratic.  This is the shape the vectorized
# fill exists for (on few-round fills the O(edges) setup dominates and
# the python loop is the right choice — hence the network's per-fill
# chooser).  Both rows time the raw fills directly (a FlowNetwork
# would serve repeat fills from its structure memo); the vectorized
# one asserts bit-identity against the python loop, so the speed win
# can never drift from the correctness contract.

_FILL_FLOWS = 1536


def _fill_case():
    caps = [1.0 + 0.001 * i for i in range(_FILL_FLOWS)]
    flows = [
        (("f", i), ("nic", ("l", i % 8)), caps[i])
        for i in range(_FILL_FLOWS)
    ]
    cap_left = {"nic": 0.6 * sum(caps)}
    cap_left.update({("l", j): 1e9 for j in range(8)})
    return flows, cap_left


def test_progressive_fill_python_loop(benchmark):
    """Reference python fill, many-round 1536-flow component."""
    flows, cap_left = _fill_case()
    rates = benchmark(
        lambda: _progressive_fill(flows, dict(cap_left), 1e-12)
    )
    assert len(rates) == _FILL_FLOWS


def test_progressive_fill_vectorized(benchmark):
    """Same fill through the numpy formulation — and bit-identical."""
    flows, cap_left = _fill_case()
    rates = benchmark(
        lambda: _progressive_fill_vectorized(flows, dict(cap_left), 1e-12)
    )
    assert rates == _progressive_fill(flows, dict(cap_left), 1e-12)


# -- per-fill chooser -------------------------------------------------
#
# The network picks python or numpy per fill from the estimated python
# work (rounds × rows).  These rows time that decision alone on a
# 40-flow staircase (few enough rounds that the python loop wins) and
# a 64-flow staircase (enough rounds for the numpy set-up to pay off),
# and pin which fill each one gets.


def _staircase(n_flows: int) -> list:
    return [(("f", i), ("nic",), 1.0 + 0.01 * i) for i in range(n_flows)]


def test_kernel_chooser_small_staircase(benchmark):
    """40-flow staircase: the chooser keeps the python loop."""
    triples = _staircase(40)
    assert not benchmark(FlowNetwork()._use_vector_kernel, triples, 1)


def test_kernel_chooser_large_staircase(benchmark):
    """64-flow many-round staircase: the chooser picks numpy."""
    triples = _staircase(64)
    assert benchmark(FlowNetwork()._use_vector_kernel, triples, 1)
