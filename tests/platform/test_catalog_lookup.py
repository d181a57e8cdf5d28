"""The catalog lookup against the cheapest-first scan it replaces.

:meth:`Catalog.cheapest_satisfying` answers by two bisections into
per-dimension threshold tables.  The oracle here is the definition: scan
the specs cheapest first and return the first one whose
:meth:`ProcessorSpec.satisfies` accepts the load.  The lookup must
return that very object (``is``), tie-breaks included, for any load —
exact thresholds and their float neighbours, zero, negative, infinite
and NaN loads — on the paper's catalog, its homogeneous restriction,
the second calibration, and random catalogs with tied, near-tied and
duplicate options.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import InstanceSpec, SolveRequest, solve
from repro.methodology import ExperimentConfig, make_instance
from repro.platform.catalog import (
    Catalog,
    CpuOption,
    NicOption,
    SATISFY_TOL,
    dell_catalog,
)


def scan(catalog, work, bw):
    for spec in catalog.specs:
        if spec.satisfies(work, bw):
            return spec
    return None


def thresholds(catalog):
    """Every capacity a query compares against, with its neighbours."""
    edges = set()
    for spec in catalog.specs:
        for cap in (spec.speed_ops, spec.nic_mbps):
            t = cap * (1 + SATISFY_TOL)
            edges.update((cap, t, math.nextafter(t, -math.inf),
                          math.nextafter(t, math.inf)))
    return sorted(edges)


def loads_for(catalog):
    special = st.sampled_from(
        [0.0, -0.0, -1.0, -math.inf, math.inf, math.nan]
        + thresholds(catalog)
    )
    return st.one_of(special, st.floats(allow_nan=True,
                                        allow_infinity=True))


def assert_matches_scan(catalog, work, bw):
    expected = scan(catalog, work, bw)
    assert catalog.cheapest_satisfying(work, bw) is expected
    assert catalog.feasible_for(work, bw) == (expected is not None)


FIXED = {
    "dell": dell_catalog(),
    "homogeneous": dell_catalog().homogeneous(),
    "homogeneous-cheapest": dell_catalog().homogeneous(dell_catalog().cheapest),
    "dell-25": dell_catalog(ops_per_ghz=25.0),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(FIXED)))
def test_fixed_catalogs_match_scan(data, name):
    catalog = FIXED[name]
    load = loads_for(catalog)
    assert_matches_scan(catalog, data.draw(load), data.draw(load))


def test_every_threshold_pair_matches_scan():
    for catalog in FIXED.values():
        edges = thresholds(catalog) + [0.0, -1.0, math.inf, math.nan]
        for work in edges:
            for bw in edges:
                assert_matches_scan(catalog, work, bw)


# Small value pools make ties and duplicates common; the nextafter
# costs make sums such as 7548 + 1 and 7548 + nextafter(1) round to the
# same float, so a cheaper-upgrade option need not be the cheaper spec.
_COSTS = [0.0, 1.0, math.nextafter(1.0, 2.0), 399.0, 1_550.0, 1_550.0]
_CAPS = [0.5, 1.0, 2.0, 11.72, 19.2, 20.0]

cpu_options = st.lists(
    st.builds(CpuOption, st.sampled_from(_CAPS), st.sampled_from(_COSTS)),
    min_size=1, max_size=5,
)
nic_options = st.lists(
    st.builds(NicOption, st.sampled_from(_CAPS), st.sampled_from(_COSTS)),
    min_size=1, max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(
    cpus=cpu_options,
    nics=nic_options,
    base=st.sampled_from([0.0, 7_548.0, 1e16]),
    ops_per_ghz=st.sampled_from([1.0, 25.0, 12_500.0]),
    data=st.data(),
)
def test_random_catalogs_match_scan(cpus, nics, base, ops_per_ghz, data):
    catalog = Catalog(cpus, nics, base_cost=base, ops_per_ghz=ops_per_ghz)
    load = loads_for(catalog)
    for _ in range(8):
        assert_matches_scan(catalog, data.draw(load), data.draw(load))


def test_rounded_cost_tie_goes_to_the_faster_option():
    """7548 + 1 and 7548 + nextafter(1) are the same float, so the two
    CPUs cost the same and the scan prefers the faster one, although
    its upgrade is nominally dearer."""
    catalog = Catalog(
        [CpuOption(1.0, 1.0), CpuOption(2.0, math.nextafter(1.0, 2.0))],
        [NicOption(1.0, 0.0)],
    )
    spec = catalog.cheapest_satisfying(0.0, 0.0)
    assert spec is scan(catalog, 0.0, 0.0)
    assert spec.speed_ghz == 2.0


def test_nan_load_finds_no_spec():
    dell = dell_catalog()
    assert dell.cheapest_satisfying(math.nan, 0.0) is None
    assert dell.cheapest_satisfying(0.0, math.nan) is None
    assert not dell.feasible_for(math.nan, math.nan)


def test_constants_are_computed_once():
    dell = dell_catalog()
    assert dell.most_expensive is max(
        dell.specs, key=lambda s: (s.cost, s.speed_ops, s.nic_mbps)
    )
    assert dell.fastest is max(dell.specs,
                               key=lambda s: (s.speed_ops, s.nic_mbps))
    assert dell.max_speed_ops == dell.fastest.speed_ops
    assert dell.max_nic_mbps == max(s.nic_mbps for s in dell.specs)


def test_nan_alpha_solve_still_fails_at_downgrade():
    """A NaN work amount must not buy the cheapest machine: Comp-Greedy
    places on top-of-range machines and then finds no spec to downgrade
    to, so the portfolio stays ``ok: false``.  ``InstanceSpec`` refuses
    a NaN ``alpha`` at the door, so the instance is built below it, as
    ``InstanceSpec.build`` would."""
    with pytest.raises(ValueError, match="alpha must be finite"):
        InstanceSpec(n_operators=20, alpha=math.nan, seed=1)
    instance = make_instance(ExperimentConfig(
        n_operators=20, alpha=math.nan, n_object_types=15, rho=1.0,
        master_seed=1,
    ))
    result = solve(SolveRequest(
        instance=instance, portfolio=("comp-greedy", "random"),
    ))
    assert not result.ok
    stages = {f.strategy: f.stage for f in result.failures}
    assert stages["comp-greedy"] == "downgrade"
