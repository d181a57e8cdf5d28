"""Transition engine: migration-cost models, reconcile planning,
pairing, economics gates, and the drain/state-transfer simulator."""

import pytest

from repro.core import allocate
from repro.core.mapping import Allocation, required_downloads
from repro.dynamic import (
    DEFAULT_MIGRATION_COST,
    MigrationCostModel,
    MigrationPricing,
    make_migration_model,
    make_trace,
    reconcile,
    reconcile_plan,
    simulate_transition,
)
from repro.dynamic.policies import make_policy
from repro.errors import ModelError
from repro.platform.catalog import dell_catalog
from repro.platform.resources import Processor
from repro.rng import derive_seed

from ..conftest import (
    build_catalog,
    make_micro_instance,
)
from repro.apptree.generators import annotate_tree
from repro.apptree.nodes import Operator
from repro.apptree.tree import OperatorTree


def equal_state_instance(n_ops=4):
    """A chain whose every subtree holds exactly the one bottom leaf,
    so all operators displace identical state (equal leaf mass)."""
    catalog = build_catalog([10.0])
    ops = []
    for i in range(n_ops - 1):
        ops.append(
            Operator(index=i, children=(i + 1,), leaves=(), work=1.0,
                     output_mb=1.0)
        )
    ops.append(
        Operator(index=n_ops - 1, children=(), leaves=(0,), work=1.0,
                 output_mb=1.0)
    )
    tree = annotate_tree(OperatorTree(ops, catalog), alpha=1.0)
    return make_micro_instance(tree)


def build_alloc(instance, assignment, processors):
    """Hand-built allocation with a consistent download plan."""
    farm_uid = min(instance.farm.uids)
    needs = required_downloads(instance, assignment)
    downloads = {
        (u, k): farm_uid for u, objs in needs.items() for k in objs
    }
    return Allocation(
        instance=instance,
        processors=tuple(processors),
        assignment=dict(assignment),
        downloads=downloads,
    )


class TestMigrationCostModel:
    def test_flat_prices_every_operator_the_same(self):
        trace = make_trace("churn", seed=3, n_operators=8, n_epochs=2)
        tree = trace.initial.tree
        model = MigrationCostModel(name="flat", cost_per_migration=99.0)
        assert {model.price(tree, i) for i in tree.operator_indices} \
            == {99.0}

    def test_state_size_prices_by_leaf_mass(self):
        trace = make_trace("churn", seed=3, n_operators=8, n_epochs=2)
        tree = trace.initial.tree
        model = MigrationCostModel(name="state-size", cost_per_mb=2.0)
        for i in tree.operator_indices:
            assert model.price(tree, i) == 2.0 * tree.leaf_mass(i)
        root, leafmost = tree.root, max(
            tree.operator_indices, key=lambda i: -tree.leaf_mass(i)
        )
        assert model.price(tree, root) >= model.price(tree, leafmost)

    def test_unknown_model_name_rejected(self):
        with pytest.raises(ModelError, match="unknown migration model"):
            MigrationCostModel(name="per-op")

    def test_registry_construction(self):
        model = make_migration_model("state-size", cost_per_mb=3.0)
        assert model.name == "state-size"
        assert model.price_state(4.0) == 12.0


class TestSpecPoolPairing:
    """The reconcile pairing bugfix: leftover same-spec machines must
    pair to maximise preserved operator assignments, not by ascending
    uid."""

    def _crossed_platforms(self):
        """Two interchangeable machines whose operators swap uids in
        the re-solve: ops 0-1 live on the machine renamed 100→201 and
        ops 2-3 on the one renamed 101→200."""
        instance = equal_state_instance(4)
        spec = dell_catalog().cheapest_satisfying(1.0, 1.0)
        old = build_alloc(
            instance,
            {0: 100, 1: 100, 2: 101, 3: 101},
            [Processor(uid=100, spec=spec), Processor(uid=101, spec=spec)],
        )
        new = build_alloc(
            instance,
            {0: 201, 1: 201, 2: 200, 3: 200},
            [Processor(uid=200, spec=spec), Processor(uid=201, spec=spec)],
        )
        return old, new

    def test_interchangeable_machines_pair_to_preserve_assignments(self):
        old, new = self._crossed_platforms()
        delta = reconcile(old, new)
        # ascending-uid pairing (100→200, 101→201) would bill all four
        # operators as migrations; the preserved-assignment pairing
        # recognises a pure renumbering
        assert delta.n_migrations == 0
        assert delta.total == 0.0
        plan = reconcile_plan(old, new)
        assert plan.uid_map == {100: 201, 101: 200}

    def test_partial_preservation_still_minimises_migrations(self):
        """Three old machines, two new ones of the same spec: the two
        that carry surviving operators must win the pairing."""
        instance = equal_state_instance(4)
        spec = dell_catalog().cheapest_satisfying(1.0, 1.0)
        old = build_alloc(
            instance,
            {0: 10, 1: 11, 2: 12, 3: 12},
            [Processor(uid=10, spec=spec), Processor(uid=11, spec=spec),
             Processor(uid=12, spec=spec)],
        )
        new = build_alloc(
            instance,
            {0: 21, 1: 20, 2: 20, 3: 21},
            [Processor(uid=20, spec=spec), Processor(uid=21, spec=spec)],
        )
        plan = reconcile_plan(old, new)
        # best pairing preserves ops 0 (10→21) and 1 (11→20); ops 2-3
        # genuinely moved off the decommissioned machine 12
        assert plan.uid_map == {10: 21, 11: 20}
        assert len(plan.moves) == 2
        assert {m.old_index for m in plan.moves} == {2, 3}
        assert plan.n_decommissions == 1

    def test_no_preserved_operators_keeps_legacy_zip(self):
        """Machines carrying nothing that survives pair ascending, so
        pure hardware churn reconciles exactly as before."""
        instance = equal_state_instance(2)
        spec = dell_catalog().cheapest_satisfying(1.0, 1.0)
        old = build_alloc(
            instance, {0: 5, 1: 5},
            [Processor(uid=5, spec=spec), Processor(uid=6, spec=spec)],
        )
        new = build_alloc(
            instance, {0: 7, 1: 7},
            [Processor(uid=7, spec=spec), Processor(uid=8, spec=spec)],
        )
        plan = reconcile_plan(old, new)
        # ops moved 5→7; pools {5,6}×{7,8}: weight only on (5,7)
        assert plan.uid_map[5] == 7
        assert plan.uid_map[6] == 8  # zero-weight leftovers zip ascending
        assert len(plan.moves) == 0


class TestInPlaceRespec:
    """Satellite: an in-place re-spec (upgrade or trade-in downgrade)
    moves no operator state, so it must never count as a migration."""

    @pytest.mark.parametrize("direction", ["upgrade", "downgrade"])
    def test_respec_counts_no_migration(self, direction):
        instance = equal_state_instance(3)
        catalog = dell_catalog()
        cheap = min(catalog, key=lambda s: s.cost)
        rich = max(catalog, key=lambda s: s.cost)
        before, after = (
            (cheap, rich) if direction == "upgrade" else (rich, cheap)
        )
        assignment = {0: 40, 1: 40, 2: 40}
        old = build_alloc(
            instance, assignment, [Processor(uid=40, spec=before)]
        )
        new = build_alloc(
            instance, assignment, [Processor(uid=40, spec=after)]
        )
        delta = reconcile(old, new, salvage_fraction=0.5)
        assert delta.n_respecs == 1
        assert delta.n_migrations == 0
        assert delta.migration_cost == 0.0
        if direction == "upgrade":
            assert delta.purchase_cost == rich.cost - cheap.cost
            assert delta.salvage_credit == 0.0
        else:
            assert delta.purchase_cost == 0.0
            assert delta.salvage_credit == 0.5 * (rich.cost - cheap.cost)
        assert delta.total == (
            delta.purchase_cost - delta.salvage_credit
            + delta.migration_cost
        )


class TestPricingInvariants:
    """Satellite: property-style checks over random churn traces."""

    @pytest.mark.parametrize("model_name", ["flat", "state-size"])
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_total_decomposes_under_random_churn(self, seed, model_name):
        from repro.api import ReplayRequest, replay

        result = replay(
            ReplayRequest(
                trace="churn", policy="resolve", seed=seed,
                migration_model=model_name,
            )
        )
        for r in result.records:
            assert r.reconfig_cost == pytest.approx(
                r.purchase_cost - r.salvage_credit + r.migration_cost
            )
        assert result.cumulative_cost == pytest.approx(
            sum(r.reconfig_cost for r in result.records)
        )

    def test_flat_price_multiplies_not_sums(self):
        """A flat price like 0.1 is not binary-representable: repeated
        addition drifts off `price × n`, and the flat model must stay
        bit-identical to the legacy multiply."""
        old, new, plan = _reallocation_step()
        assert len(plan.moves) >= 3
        delta = reconcile(old, new, migration_cost=0.1)
        assert delta.migration_cost == 0.1 * delta.n_migrations

    def test_flat_migration_cost_is_count_times_price(self):
        trace = make_trace("churn", seed=5, n_operators=8, n_epochs=4)
        policy = make_policy("resolve")
        current = policy.initial(
            trace.initial, rng=derive_seed(5, "t", 0)
        ).allocation
        for epoch, (_t, _label, instance) in enumerate(trace.epochs()):
            if epoch == 0:
                continue
            nxt = policy.react(
                instance, current, rng=derive_seed(5, "t", epoch)
            ).allocation
            delta = reconcile(nxt and current, nxt, migration_cost=123.0)
            assert delta.migration_cost == pytest.approx(
                123.0 * delta.n_migrations
            )
            current = nxt

    def test_models_agree_when_all_operators_have_equal_state(self):
        """With every operator displacing the same state S, the
        state-size model at ``cost_per_mb = migration_cost / S`` prices
        every reconfiguration exactly like the flat model."""
        instance = equal_state_instance(5)
        tree = instance.tree
        masses = {tree.leaf_mass(i) for i in tree.operator_indices}
        assert len(masses) == 1  # the construction's whole point
        state = masses.pop()
        spec = dell_catalog().cheapest_satisfying(10.0, 10.0)
        old = build_alloc(
            instance, {0: 1, 1: 1, 2: 2, 3: 2, 4: 2},
            [Processor(uid=1, spec=spec), Processor(uid=2, spec=spec)],
        )
        new = build_alloc(
            instance, {0: 1, 1: 2, 2: 2, 3: 1, 4: 2},
            [Processor(uid=1, spec=spec), Processor(uid=2, spec=spec)],
        )
        flat = reconcile(old, new, migration_cost=DEFAULT_MIGRATION_COST)
        sized = reconcile(
            old, new,
            model=MigrationCostModel(
                name="state-size",
                cost_per_mb=DEFAULT_MIGRATION_COST / state,
            ),
        )
        assert flat.n_migrations == sized.n_migrations > 0
        assert flat.migration_cost == pytest.approx(sized.migration_cost)
        assert flat.total == pytest.approx(sized.total)

    def test_transition_sla_seconds_zero_without_moves(self):
        trace = make_trace("churn", seed=3, n_operators=8, n_epochs=2)
        alloc = allocate(
            trace.initial, "subtree-bottom-up", rng=0
        ).allocation
        record = simulate_transition(alloc, alloc, (), {})
        assert record.n_moved == 0
        assert record.sla_violation_s == 0.0
        assert record.throughput_dip == 0.0
        assert record.drain_s == 0.0
        assert record.drained
        assert record.ok

    def test_no_move_reconcile_produces_empty_plan(self):
        trace = make_trace("churn", seed=3, n_operators=8, n_epochs=2)
        alloc = allocate(
            trace.initial, "subtree-bottom-up", rng=0
        ).allocation
        plan = reconcile_plan(alloc, alloc)
        assert plan.moves == ()
        assert plan.state_moved_mb == 0.0
        assert plan.n_heavy_moves == 0


def _reallocation_step(seed=2009):
    """A real (old, new, plan) from one churn-trace resolve step.
    The default-size trace is needed: small instances resolve onto a
    single machine, which moves nothing."""
    trace = make_trace("churn", seed=seed, n_epochs=3)
    policy = make_policy("resolve")
    epochs = list(trace.epochs())
    old = policy.initial(
        epochs[0][2], rng=derive_seed(seed, "step", 0)
    ).allocation
    new = policy.react(
        epochs[1][2], old, rng=derive_seed(seed, "step", 1)
    ).allocation
    return old, new, reconcile_plan(old, new)


class TestTransitionSimulator:
    def test_moves_produce_measurable_transition(self):
        old, new, plan = _reallocation_step()
        assert plan.moves  # resolve rebuilds wholesale
        record = simulate_transition(
            old, new, plan.moves, plan.uid_map, n_results=20
        )
        assert record.n_moved == len(plan.moves)
        assert record.state_moved_mb == pytest.approx(
            sum(m.state_mb for m in plan.moves)
        )
        assert record.transfer_mb >= record.state_moved_mb
        assert record.drained
        assert record.drain_s > 0.0
        assert record.min_rate > 0.0

    def test_kernels_bit_identical_with_injection(self):
        old, new, plan = _reallocation_step()
        a = simulate_transition(
            old, new, plan.moves, plan.uid_map, n_results=20,
            kernel="warm",
        )
        b = simulate_transition(
            old, new, plan.moves, plan.uid_map, n_results=20,
            kernel="naive",
        )
        assert a == b

    def test_transition_deterministic(self):
        old, new, plan = _reallocation_step()
        a = simulate_transition(old, new, plan.moves, plan.uid_map)
        b = simulate_transition(old, new, plan.moves, plan.uid_map)
        assert a == b

    def test_negligible_move_reports_no_dip(self):
        """The dip is measured against a no-injection baseline run, so
        pipeline-fill transients and completion jitter cancel exactly:
        a move displacing a fraction of an MB must score ~zero."""
        from repro.dynamic import MigrationMove

        old, new, plan = _reallocation_step()
        m = plan.moves[0]
        tiny = (
            MigrationMove(
                old_index=m.old_index, new_index=m.new_index,
                from_uid=m.from_uid, to_uid=m.to_uid,
                state_mb=0.5, drain_mb=0.1,
            ),
        )
        record = simulate_transition(old, new, tiny, plan.uid_map)
        assert record.sla_violation_s == 0.0
        assert record.throughput_dip < 0.01
        assert record.ok


class TestReplayIntegration:
    def test_dip_on_steady_state_clean_epoch(self):
        """The headline: a churn-trace reallocation that steady-state
        validation scores clean still dips measurably mid-transition."""
        from repro.api import ReplayRequest, replay

        result = replay(
            ReplayRequest(
                trace="churn", policy="resolve", seed=2009,
                validate=True, sim_warmup=True, sim_transitions=True,
            )
        )
        dipped = [
            r for r in result.records
            if r.transition is not None
            and r.transition.throughput_dip > 0.0
            and r.sim_ok is True
        ]
        assert dipped, (
            "no transition dip found on a steady-state-clean epoch"
        )
        assert result.transition_violation_epochs >= 1

    def test_flat_json_omits_transition_keys(self):
        from repro.api import ReplayRequest, replay

        result = replay(
            ReplayRequest(trace="ramp", policy="harvest", seed=3)
        )
        payload = result.to_dict()
        assert "migration_model" not in payload
        for record in payload["records"]:
            assert "transition" not in record
            assert "state_moved_mb" not in record
            assert "n_heavy_migrations" not in record

    def test_qualified_migration_model_ref_replays(self):
        """A registry-qualified model ref must work end to end, like
        every other strategy reference."""
        from repro.api import ReplayRequest, replay

        bare = replay(
            ReplayRequest(
                trace="ramp", policy="harvest", seed=3,
                migration_model="state-size",
            )
        )
        qualified = replay(
            ReplayRequest(
                trace="ramp", policy="harvest", seed=3,
                migration_model="migration:state-size",
            )
        )
        assert qualified.to_json() == bare.to_json()

    def test_custom_registered_model_replays(self):
        """Models registered through the migration namespace resolve
        from ReplayRequest — the advertised extension point.  A custom
        factory returns its own object implementing the pricing
        protocol (name / price_state / price), consumed duck-typed."""
        from repro.api import ReplayRequest, replay, registry

        class QuadraticPricing:
            """$ grows with the square of displaced state."""

            name = "test-quadratic"

            def price_state(self, state_mb):
                return 0.01 * state_mb * state_mb

            def price(self, tree, i):
                return self.price_state(tree.leaf_mass(i))

        registry._REGISTRY["migration"].pop("test-quadratic", None)
        try:
            registry.register("migration", "test-quadratic")(
                QuadraticPricing
            )
            result = replay(
                ReplayRequest(
                    trace="ramp", policy="harvest", seed=3,
                    migration_model="test-quadratic",
                )
            )
            assert result.migration_model == "test-quadratic"
            # non-flat models record the state extras
            assert all(
                r.state_moved_mb is not None for r in result.records
            )
        finally:
            registry._REGISTRY["migration"].pop("test-quadratic", None)

    def test_state_size_json_carries_state_keys(self):
        from repro.api import ReplayRequest, replay

        result = replay(
            ReplayRequest(
                trace="ramp", policy="harvest", seed=3,
                migration_model="state-size",
            )
        )
        payload = result.to_dict()
        assert payload["migration_model"] == "state-size"
        for record in payload["records"]:
            assert "state_moved_mb" in record
            assert "n_heavy_migrations" in record

    def test_replay_with_transitions_is_deterministic(self):
        from repro.api import ReplayRequest, replay

        req = ReplayRequest(
            trace="churn", policy="resolve", seed=7,
            sim_transitions=True,
        )
        assert replay(req).to_json() == replay(req).to_json()


class TestEconomicsGates:
    """Migration prices make harvest/trade refuse uneconomic moves."""

    def test_extreme_price_stops_discretionary_moves(self):
        """On the ramp family harvest consolidates as load falls; with
        an absurd $/MB every consolidation is refused, so strictly
        fewer heavy operators (and less state) move."""
        from repro.api import ReplayRequest, replay

        cheap = replay(
            ReplayRequest(
                trace="ramp", policy="harvest", seed=2009,
                migration_model="state-size",
                migration_cost_per_mb=0.01,
            )
        )
        dear = replay(
            ReplayRequest(
                trace="ramp", policy="harvest", seed=2009,
                migration_model="state-size",
                migration_cost_per_mb=1000.0,
            )
        )
        assert dear.total_heavy_migrations < cheap.total_heavy_migrations
        assert dear.total_state_moved_mb < cheap.total_state_moved_mb
        # feasibility is never sacrificed to economics
        assert dear.violation_epochs == cheap.violation_epochs == 0

    def test_repair_without_pricing_is_unchanged(self):
        """``pricing=None`` must reproduce the legacy planner exactly
        (the flat-model bit-identicality guarantee)."""
        from repro.dynamic import repair_allocation

        trace = make_trace("ramp", seed=4, n_operators=8, n_epochs=4)
        epochs = list(trace.epochs())
        alloc = allocate(
            epochs[0][2], "subtree-bottom-up", rng=0
        ).allocation
        a = repair_allocation(epochs[1][2], alloc, strategy="harvest")
        b = repair_allocation(
            epochs[1][2], alloc, strategy="harvest", pricing=None
        )
        assert a.allocation.assignment == b.allocation.assignment
        assert a.n_moved == b.n_moved
        assert a.n_refused_moves == b.n_refused_moves == 0

    def test_pricing_flows_through_policy(self):
        policy = make_policy("harvest")
        pricing = MigrationPricing(
            model=MigrationCostModel(
                name="state-size", cost_per_mb=1e9
            )
        )
        policy.configure_pricing(pricing)
        assert policy._pricing is pricing
        # static/resolve accept and ignore it
        static = make_policy("static")
        static.configure_pricing(pricing)
