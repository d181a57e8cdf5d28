"""Differential tests: a load probe equals applying the move on a copy.

:meth:`LoadTracker.probe_move` prices a move without mutating, and the
local search and :meth:`LoadTracker.would_fit` decide on its numbers.
The oracle is the mutation itself, applied to a deep copy of the
tracker: ``unassign`` every mapped group member, then ``assign`` them
all to the target.  The probe's post-move loads and pair traffic must
equal the copy's *exactly* (same floats, not approximately), and so
must the spec each side's load buys and the link verdict — over random
partial and complete placements whose floats carry the residue of
earlier moves.
"""

import copy
import random

import pytest

import repro
from repro.core.loads import LoadTracker
from repro.errors import ModelError

TOL = 1 + 1e-9

CASES = [
    (n, alpha, seed, complete)
    for n, alpha in ((12, 1.2), (25, 1.6), (40, 0.9))
    for seed in (0, 1, 2)
    for complete in (False, True)
]


def random_tracker(n, alpha, seed, complete):
    """A tracker over ``n_uids`` processors with some churn behind it.

    The extra moves leave apply-then-revert residue in the aggregates,
    the state a long-running search reaches."""
    inst = repro.quick_instance(n, alpha=alpha, seed=seed)
    rng = random.Random(seed * 7919 + n)
    n_uids = rng.randint(2, 5)
    tracker = LoadTracker(inst)
    ops = list(inst.tree.operator_indices)
    for i in ops:
        tracker.assign(i, rng.randrange(n_uids))
    for _ in range(3 * n):
        i = rng.choice(ops)
        tracker.move(i, rng.randrange(n_uids))
    if not complete:
        for i in rng.sample(ops, n // 3):
            tracker.unassign(i)
    return tracker, n_uids


def clone(tracker):
    memo = {id(tracker.instance): tracker.instance, id(tracker.tree): tracker.tree}
    return copy.deepcopy(tracker, memo)


def oracle_move(tracker, ops, u):
    """Apply the move on a copy with the tracker's own mutations."""
    after = clone(tracker)
    for i in ops:
        if i in after.assignment:
            after.unassign(i)
    for i in ops:
        after.assign(i, u)
    return after


def oracle_links_ok(after, uids):
    limit = after.instance.network.processor_link_mbps * TOL
    return all(
        load <= limit
        for pair, load in after.iter_pair_loads()
        if pair[0] in uids or pair[1] in uids
    )


def snapshot(tracker):
    return (
        dict(tracker.assignment),
        {u: tracker.operators_on(u) for u in tracker.used_uids},
        {u: (tracker.compute_load(u), tracker.nic_load(u),
             tracker.needed_objects(u))
         for u in tracker.used_uids},
        dict(tracker.pair_loads),
    )


def assert_probe_matches(tracker, ops, u):
    catalog = tracker.instance.catalog
    before = snapshot(tracker)
    probe = tracker.probe_move(ops, u)
    assert snapshot(tracker) == before, "probe_move mutated the tracker"
    after = oracle_move(tracker, ops, u)

    source = probe.source
    if source is not None:
        assert probe.source_empty == (not after.operators_on(source))
        if not probe.source_empty:
            assert probe.source_compute == after.compute_load(source)
            assert probe.source_nic == after.nic_load(source)
            assert catalog.cheapest_satisfying(
                probe.source_compute, probe.source_nic
            ) is catalog.cheapest_satisfying(
                after.compute_load(source), after.nic_load(source)
            )
    assert probe.target_compute == after.compute_load(u)
    assert probe.target_nic == after.nic_load(u)
    assert catalog.cheapest_satisfying(
        probe.target_compute, probe.target_nic
    ) is catalog.cheapest_satisfying(after.compute_load(u), after.nic_load(u))

    rho = tracker.rho
    expected = {
        p: load for p, load in tracker.pair_loads.items()
        if p not in probe.pairs
    }
    expected.update(
        (p, rho * mb) for p, mb in probe.pairs.items() if mb is not None
    )
    assert expected == after.pair_loads
    assert tracker.links_ok_after(probe) == oracle_links_ok(after, (source, u))


@pytest.mark.parametrize("case", CASES, ids=str)
def test_relocate_probes_match_mutation(case):
    tracker, n_uids = random_tracker(*case)
    for i in sorted(tracker.assignment):
        for v in range(n_uids + 1):  # every processor, and a fresh one
            assert_probe_matches(tracker, (i,), v)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_merge_probes_match_mutation(case):
    tracker, n_uids = random_tracker(*case)
    for donor in range(n_uids):
        ops = tracker.operators_on(donor)
        if not ops:
            continue
        for target in range(n_uids + 1):
            assert_probe_matches(tracker, ops, target)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_unmapped_group_probes_match_mutation(case):
    """Placing unmapped operators (with or without mapped neighbours in
    the group) is the would_fit shape, and group placement's."""
    tracker, n_uids = random_tracker(*case)
    free = [i for i in tracker.tree.operator_indices
            if i not in tracker.assignment]
    for u in range(n_uids + 1):
        for i in free:
            assert_probe_matches(tracker, (i,), u)
        if free:
            assert_probe_matches(tracker, tuple(free[:4]), u)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_would_fit_matches_assign_fits_unassign(case):
    tracker, n_uids = random_tracker(*case)
    free = [i for i in tracker.tree.operator_indices
            if i not in tracker.assignment]
    specs = tracker.instance.catalog.specs
    for u in range(n_uids + 1):
        for i in free:
            for spec in (specs[0], specs[len(specs) // 2], specs[-1]):
                oracle = clone(tracker)
                oracle.assign(i, u)
                expected = oracle.fits(u, spec.speed_ops, spec.nic_mbps)
                before = snapshot(tracker)
                got = tracker.would_fit(i, u, spec.speed_ops, spec.nic_mbps)
                assert got == expected
                assert snapshot(tracker) == before


def test_would_fit_on_mapped_operator_raises():
    tracker, _ = random_tracker(12, 1.2, 0, True)
    spec = tracker.instance.catalog.most_expensive
    with pytest.raises(ModelError):
        tracker.would_fit(0, 0, spec.speed_ops, spec.nic_mbps)


def test_probe_rejects_a_group_on_several_processors():
    inst = repro.quick_instance(12, alpha=1.2, seed=0)
    tracker = LoadTracker(inst)
    tracker.assign(0, 0)
    tracker.assign(1, 1)
    with pytest.raises(ModelError):
        tracker.probe_move((0, 1), 2)


def test_move_group_is_the_probed_move():
    tracker, n_uids = random_tracker(25, 1.6, 1, True)
    ops = tracker.operators_on(0)
    probe = tracker.probe_move(ops, 1)
    tracker.move_group(ops, 1)
    assert not tracker.operators_on(0)
    assert tracker.compute_load(1) == probe.target_compute
    assert tracker.nic_load(1) == probe.target_nic
