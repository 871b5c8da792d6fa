from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nested_dp import oracle as orc
from nested_dp.errors import ResourceLimitExceeded, ZeroProbabilityEvent
from nested_dp.generators import HashedTeamStrategy, certification_instance
from nested_dp.info import VarRef, build_delayed_structure
from nested_dp.model import Dist, FiniteSpace, TeamModel


def static_model(T=0, nx=2, cost_fn=None):
    """No observations (constant), uniform initial state: decisions are
    effectively open-loop, good for hand-computable minima."""
    const = tuple((0,) for _ in range(nx))
    if cost_fn is None:
        cost_fn = lambda t, x, u1, u2: Fraction(x * (u1 + u2), 1)
    return TeamModel(
        horizon=T,
        states=tuple(FiniteSpace("X", nx) for _ in range(T + 1)),
        actions1=tuple(FiniteSpace("U1", 2) for _ in range(T + 1)),
        actions2=tuple(FiniteSpace("U2", 2) for _ in range(T + 1)),
        disturbances=tuple(FiniteSpace("W", 1) for _ in range(T)),
        noises1=tuple(FiniteSpace("V1", 1) for _ in range(T + 1)),
        noises2=tuple(FiniteSpace("V2", 1) for _ in range(T + 1)),
        observations1=tuple(FiniteSpace("Y1", 1) for _ in range(T + 1)),
        observations2=tuple(FiniteSpace("Y2", 1) for _ in range(T + 1)),
        transition=tuple(
            tuple(tuple(tuple((x,) for _ in range(2)) for _ in range(2)) for x in range(nx))
            for _ in range(T)
        ),
        obs1=tuple(const for _ in range(T + 1)),
        obs2=tuple(const for _ in range(T + 1)),
        cost_table=tuple(
            tuple(tuple(tuple(cost_fn(t, x, u1, u2) for u2 in range(2)) for u1 in range(2)) for x in range(nx))
            for t in range(T + 1)
        ),
        x0_dist=Dist.uniform(nx),
        w_dists=tuple(Dist.point_mass(1, 0) for _ in range(T)),
        v1_dists=tuple(Dist.point_mass(1, 0) for _ in range(T + 1)),
        v2_dists=tuple(Dist.point_mass(1, 0) for _ in range(T + 1)),
    )


def moving_model(T, cost_fn):
    """static_model whose state moves to (x + u1 + u2) mod 2: open-loop,
    but every stage's actions change the later costs."""
    model = static_model(T=T, cost_fn=cost_fn)
    move = tuple(
        tuple(tuple(tuple(((x + u1 + u2) % 2,) for u2 in range(2)) for u1 in range(2)) for x in range(2))
        for _ in range(T)
    )
    return replace(model, transition=move)


# Stage costs for moving_model(2, .): every cost negative; signs mixed
# within and across stages (a bound that took later costs as >= 0 would
# lose the minimizer here); mixed signs with ties (u1 == u2 costs 0).
SIGNED_COSTS = {
    "negative": lambda t, x, u1, u2: Fraction(-1 - 2 * x - u1 * (1 + t) - 3 * u2 * (1 - x), 4),
    "mixed": lambda t, x, u1, u2: Fraction((2 * u1 + u2, 1 - 4 * x - u2 + u1, -2 + 3 * u1 * x - u2)[t], 2),
    "mixed-ties": lambda t, x, u1, u2: Fraction((u1 - u2) * (2 * x - 1) * (1 - 2 * (t % 2))),
}


def first_minimizer(model, info, joint):
    """The least value over the full enumeration, its first minimizer, and
    the enumeration length."""
    strategies = list(orc.enumerate_strategies(model, info, joint))
    values = [orc.evaluate_strategy(joint, model, info, s) for s in strategies]
    best = min(values)
    return best, strategies[values.index(best)], len(values)


class TestBuildJoint:
    def test_deterministic_primitives_single_entry(self):
        model = static_model(T=1)
        pinned = replace(model, x0_dist=Dist.point_mass(2, 0))
        joint = orc.build_joint(pinned)
        assert len(joint) == 1
        assert joint.entries[0][1] == 1

    def test_two_coins_four_entries(self):
        model = static_model(T=1)
        stay_put = tuple(
            tuple(tuple(tuple(x for _ in range(2)) for _ in range(2)) for _ in range(2))
            for x in range(2)
        )
        coin = replace(
            model,
            disturbances=(FiniteSpace("W", 2),),
            w_dists=(Dist.uniform(2),),
            transition=(stay_put,),
        )
        joint = orc.build_joint(coin)
        assert len(joint) == 4
        assert all(p == Fraction(1, 4) for _, p in joint.entries)

    @pytest.mark.parametrize("seed", range(3))
    def test_marginals_recover_declared_distributions(self, seed):
        model = certification_instance(seed)
        joint = orc.build_joint(model)
        assert sum(p for _, p in joint.entries) == 1
        x0_marg = {}
        w0_marg = {}
        for (x0, ws, _, _), p in joint.entries:
            x0_marg[x0] = x0_marg.get(x0, Fraction(0)) + p
            w0_marg[ws[0]] = w0_marg.get(ws[0], Fraction(0)) + p
        assert x0_marg == dict(model.x0_dist.items())
        assert w0_marg == dict(model.w_dist(0).items())

    def test_resource_guard(self):
        model = certification_instance(0)
        with pytest.raises(ResourceLimitExceeded):
            orc.build_joint(model, budget=3)


class TestEvaluateStrategy:
    def test_zero_cost_evaluates_to_zero(self):
        model = static_model(T=1, cost_fn=lambda *a: Fraction(0))
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        strat = HashedTeamStrategy(model, info, 0)
        assert orc.evaluate_strategy(joint, model, info, strat) == 0

    def test_deterministic_trajectory_cost(self):
        model = static_model(T=1)
        pinned = replace(model, x0_dist=Dist.point_mass(2, 1))
        info = build_delayed_structure(pinned, 1)
        joint = orc.build_joint(pinned)

        class AlwaysOne:
            def fresh_state(self):
                return None

            def act(self, st, t, values):
                return 1, 1

        # x stays 1, cost per stage = 1 * (1 + 1) = 2, two stages
        assert orc.evaluate_strategy(joint, pinned, info, AlwaysOne()) == 4


class TestExhaustiveMin:
    def test_single_step_open_loop_minimum(self):
        # cost x*(u1+u2): picking u1=u2=0 kills the cost everywhere
        model = static_model(T=0)
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        result = orc.exhaustive_min(model, info, joint)
        exp = Fraction(0)
        assert result.value == exp
        assert result.strategies_tested == 4  # 2 actions x 2 actions, one infoset each

    def test_cost_independent_of_actions(self):
        model = static_model(T=0, cost_fn=lambda t, x, u1, u2: Fraction(x))
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        result = orc.exhaustive_min(model, info, joint)
        assert result.value == Fraction(1, 2)  # E[x] under the uniform prior

    @pytest.mark.parametrize("seed", range(3))
    def test_min_property_against_full_enumeration(self, seed):
        model = certification_instance(seed, horizon=1)
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        strategies = list(orc.enumerate_strategies(model, info, joint))
        values = [orc.evaluate_strategy(joint, model, info, s) for s in strategies]
        result = orc.exhaustive_min(model, info, joint)
        assert result.value == min(values)
        assert all(result.value <= v for v in values)
        # the bound skips subtrees, so fewer leaves than strategies are evaluated
        assert result.strategies_tested <= len(values)
        # ties resolve to the first minimizer in enumeration order
        assert result.strategy == strategies[values.index(result.value)]

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 39), d=st.sampled_from([0, 1]))
    def test_pruned_walk_matches_full_enumeration(self, seed, d):
        model = certification_instance(seed, horizon=1)
        info = build_delayed_structure(model, d)
        joint = orc.build_joint(model)
        value, strategy, count = first_minimizer(model, info, joint)
        result = orc.exhaustive_min(model, info, joint)
        assert result.value == value
        assert result.strategy == strategy
        assert result.strategies_tested <= count

    @pytest.mark.parametrize("cost_fn", SIGNED_COSTS.values(), ids=SIGNED_COSTS.keys())
    def test_bound_holds_for_costs_of_any_sign(self, cost_fn):
        model = moving_model(2, cost_fn)
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        value, strategy, count = first_minimizer(model, info, joint)
        result = orc.exhaustive_min(model, info, joint)
        assert result.value == value
        assert result.strategy == strategy
        assert result.strategies_tested <= count

    @pytest.mark.parametrize("name", ["negative", "mixed"])
    def test_bound_prunes_costs_of_any_sign(self, name):
        model = moving_model(2, SIGNED_COSTS[name])
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        _, _, count = first_minimizer(model, info, joint)
        assert orc.exhaustive_min(model, info, joint).strategies_tested < count

    def test_count_formula_matches_enumeration(self):
        model = certification_instance(1, horizon=1)
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        count = sum(1 for _ in orc.enumerate_strategies(model, info, joint))
        assert orc.strategy_count_formula(model, info, joint) == count

    def test_argmin_replays_to_value(self):
        model = certification_instance(2, horizon=1)
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        result = orc.exhaustive_min(model, info, joint)
        assert orc.evaluate_strategy(joint, model, info, result.strategy) == result.value

    def test_resource_guard_carries_estimate(self):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        with pytest.raises(ResourceLimitExceeded) as err:
            orc.exhaustive_min(model, info, joint, budget=10)
        assert err.value.estimate > 10


class TestCondition:
    def test_condition_on_nothing_is_prior(self):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        strat = HashedTeamStrategy(model, info, 1)
        dist = orc.condition(joint, model, info, strat, [], [("X", 0)])
        assert dist == {(x,): w for x, w in model.x0_dist.items()}

    def test_condition_on_full_history_is_point_mass(self):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        strat = HashedTeamStrategy(model, info, 1)
        omega, _ = joint.entries[0]
        traj = orc.trajectory(model, info, strat, omega)
        given = [(("X", t), traj.xs[t]) for t in range(3)]
        given += [(("Y1", 0), traj.value_of(("Y1", 0))), (("Y2", 0), traj.value_of(("Y2", 0)))]
        dist = orc.condition(joint, model, info, strat, given, [("U1", 2)])
        assert dist == {(traj.value_of(("U1", 2)),): Fraction(1)}

    def test_trajectory_values_are_read_only_and_atoms_checked(self):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        traj = orc.trajectory(model, info, HashedTeamStrategy(model, info, 1), joint.entries[0][0])
        with pytest.raises(TypeError):
            traj.values[VarRef(0, "U1")] = 1
        hash(traj)
        with pytest.raises(ValueError, match="unknown atom"):
            traj.value_of(("W", 0))
        with pytest.raises(IndexError):
            traj.value_of(("U1", model.horizon + 1))

    def test_impossible_event_raises(self):
        model = static_model(T=0)
        pinned = replace(model, x0_dist=Dist.point_mass(2, 0))
        info = build_delayed_structure(pinned, 1)
        joint = orc.build_joint(pinned)
        strat = HashedTeamStrategy(pinned, info, 0)
        with pytest.raises(ZeroProbabilityEvent):
            orc.condition(joint, pinned, info, strat, [(("X", 0), 1)], [("U1", 0)])

    def test_composite_atoms_expand(self):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        strat = HashedTeamStrategy(model, info, 2)
        omega, _ = joint.entries[0]
        traj = orc.trajectory(model, info, strat, omega)
        m1real = traj.read(info.m1[1])
        dist = orc.condition(joint, model, info, strat, [(("M1", 1), m1real)], [("L2", 1)])
        assert sum(dist.values()) == 1
