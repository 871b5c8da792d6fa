from dataclasses import replace
from fractions import Fraction

import pytest

from nested_dp import oracle as orc
from nested_dp.beliefs import (
    Belief1,
    Prescription,
    StepCache,
    belief1_step,
    belief2_step,
    expected_cost1,
    expected_cost2,
    initial_belief1_roots,
    update_belief1,
)
from nested_dp.errors import DomainGap, ZeroProbabilityObservation
from nested_dp.generators import certification_instance
from nested_dp.info import build_delayed_structure, enumerate_private
from nested_dp.model import Dist, FiniteSpace, TeamModel
from belief_json import belief1_from_json, belief2_from_json
from test_kernels import belief1_from_vector, belief1_vector


def deterministic_model(T=1):
    """Deterministic dynamics, perfect observations for both agents."""
    nx = 2
    ident = tuple((x,) for x in range(nx))
    return TeamModel(
        horizon=T,
        states=tuple(FiniteSpace("X", nx) for _ in range(T + 1)),
        actions1=tuple(FiniteSpace("U1", 2) for _ in range(T + 1)),
        actions2=tuple(FiniteSpace("U2", 2) for _ in range(T + 1)),
        disturbances=tuple(FiniteSpace("W", 1) for _ in range(T)),
        noises1=tuple(FiniteSpace("V1", 1) for _ in range(T + 1)),
        noises2=tuple(FiniteSpace("V2", 1) for _ in range(T + 1)),
        observations1=tuple(FiniteSpace("Y1", nx) for _ in range(T + 1)),
        observations2=tuple(FiniteSpace("Y2", nx) for _ in range(T + 1)),
        transition=tuple(
            tuple(
                tuple(tuple(((x + u1 + u2) % nx,) for u2 in range(2)) for u1 in range(2))
                for x in range(nx)
            )
            for _ in range(T)
        ),
        obs1=tuple(ident for _ in range(T + 1)),
        obs2=tuple(ident for _ in range(T + 1)),
        cost_table=tuple(
            tuple(tuple(tuple(Fraction(x + u1 + u2) for u2 in range(2)) for u1 in range(2)) for x in range(nx))
            for _ in range(T + 1)
        ),
        x0_dist=Dist.point_mass(2, 1),
        w_dists=tuple(Dist.point_mass(1, 0) for _ in range(T)),
        v1_dists=tuple(Dist.point_mass(1, 0) for _ in range(T + 1)),
        v2_dists=tuple(Dist.point_mass(1, 0) for _ in range(T + 1)),
    )


def gamma2_const(info, model, t, action):
    return Prescription.for_agent2(
        t, {ell: action for ell in enumerate_private(info, model, t)}
    )


class TestBelief1Basics:
    def test_canonical_equality(self):
        a = Belief1.from_weights(0, {(0, ()): Fraction(1, 2), (1, ()): Fraction(1, 2)})
        b = Belief1.from_weights(0, {(1, ()): Fraction(2, 4), (0, ()): Fraction(1, 2)})
        assert a == b and hash(a) == hash(b)

    def test_zero_weights_dropped(self):
        a = Belief1.from_weights(0, {(0, ()): Fraction(1), (1, ()): Fraction(0)})
        assert a.support() == [(0, ())]

    def test_must_normalize(self):
        with pytest.raises(ValueError):
            Belief1.from_weights(0, {(0, ()): Fraction(1, 2)})

    def test_json_round_trip(self):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        for _, b1 in initial_belief1_roots(model, info).values():
            assert belief1_from_json(b1.to_json()) == b1


class TestUpdateBelief1:
    def test_deterministic_chain_stays_point_mass(self):
        model = deterministic_model()
        info = build_delayed_structure(model, 0)
        b1 = initial_belief1_roots(model, info)[(1, 1)][1]  # both agents see x0 = 1
        gamma = gamma2_const(info, model, 0, 1)
        x_next = model.f(0, 1, 0, 1, 0)
        z1 = tuple(
            {"Y1": x_next, "Y2": x_next, "U1": 0, "U2": 1}[v.kind] for v in info.z1[1]
        )
        nxt = update_belief1(model, info, b1, 0, gamma, z1)
        assert nxt.items() == (((x_next, ()), Fraction(1)),)

    def test_impossible_observation_raises(self):
        model = deterministic_model()
        info = build_delayed_structure(model, 0)
        b1 = initial_belief1_roots(model, info)[(1, 1)][1]
        gamma = gamma2_const(info, model, 0, 1)
        x_next = model.f(0, 1, 0, 1, 0)
        bad = tuple(
            {"Y1": (x_next + 1) % 2, "Y2": x_next, "U1": 0, "U2": 1}[v.kind]
            for v in info.z1[1]
        )
        with pytest.raises(ZeroProbabilityObservation):
            update_belief1(model, info, b1, 0, gamma, bad)

    def test_branch_probabilities_sum_to_one(self):
        model = certification_instance(1)
        info = build_delayed_structure(model, 1)
        for _, b1 in initial_belief1_roots(model, info).values():
            step = belief1_step(model, info, b1, 1, gamma2_const(info, model, 0, 0))
            assert sum(p for p, _ in step.values()) == 1
            for _, nxt in step.values():
                assert sum(w for _, w in nxt.items()) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_chain_equals_direct_conditioning(self, seed):
        """One-step recursive update against conditioning on the full joint,
        for every agent-2 table and every reachable one-step memory."""
        model = certification_instance(seed, horizon=1)
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        roots = initial_belief1_roots(model, info)
        for tables in orc.enumerate_agent2_strategies(model, info, joint):
            strategy2 = orc._Pair(orc._zero, orc._table_lookup(info.m2, 2, tables))
            for omega, _ in joint.entries:
                for u1_0 in range(model.action_space(1, 0).size):
                    pinned = orc._Pair(lambda t, values: u1_0 if t == 0 else 0, strategy2.u2_of)
                    traj = orc.trajectory(model, info, pinned, omega)
                    m1real = traj.read(info.m1[1])
                    z1_0 = traj.read(info.z1[0])
                    z1_1 = traj.read(info.z1[1])
                    a2_0 = traj.read(info.a2[0])
                    gamma = _gamma_from_tables(model, info, tables, 0, a2_0)
                    chain = update_belief1(model, info, roots[z1_0][1], u1_0, gamma, z1_1)
                    cond = orc.condition_on_memory1(joint, model, info, strategy2, 1, m1real)
                    assert cond == {k: w for k, w in chain.items()}


def _gamma_from_tables(model, info, tables, s, a2real):
    from nested_dp.certify import _gamma2_from_tables

    return _gamma2_from_tables(model, info, tables, s, a2real)


class TestInitialBeliefs:
    def test_perfect_observation_collapses_state(self):
        model = deterministic_model()
        info = build_delayed_structure(model, 1)
        b1 = initial_belief1_roots(model, info)[(1,)][1]
        assert all(x == 1 for (x, _), _ in b1.items())

    def test_empty_accessible_gives_prior(self):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        b2 = StepCache(model, info).roots2()[()][1]
        marg = {}
        for (x, ell, _), w in b2.items():
            marg[x] = marg.get(x, Fraction(0)) + w
        assert marg == {x: w for x, w in model.x0_dist.items()}

    def test_impossible_initial_realization(self):
        model = deterministic_model()  # x0 is pinned to 1
        info = build_delayed_structure(model, 1)
        roots = initial_belief1_roots(model, info)
        assert (0,) not in roots and list(roots) == [(1,)]


class TestUpdateBelief2:
    def test_deterministic_point_mass_chain(self):
        model = deterministic_model()
        info = build_delayed_structure(model, 0)
        b2 = StepCache(model, info).roots2()[(1,)][1]
        assert len(b2.support()) == 1
        g1 = Prescription.for_agent1(0, {b2.belief1_support()[0]: 0})
        g2 = gamma2_const(info, model, 0, 1)
        step = belief2_step(b2, g1, g2, StepCache(model, info))
        assert len(step) == 1
        (z2, (p, nxt)), = step.items()
        assert p == 1 and len(nxt.support()) == 1

    def test_impossible_increment_raises(self):
        model = deterministic_model()
        info = build_delayed_structure(model, 0)
        b2 = StepCache(model, info).roots2()[(1,)][1]
        g1 = Prescription.for_agent1(0, {b2.belief1_support()[0]: 0})
        g2 = gamma2_const(info, model, 0, 1)
        branches = belief2_step(b2, g1, g2, StepCache(model, info))
        (z2,) = branches.keys()
        bad = tuple((v + 1) % 2 for v in z2)
        assert bad not in branches

    def test_domain_gap_when_gamma1_misses_a_support_point(self):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        b2 = StepCache(model, info).roots2()[()][1]
        points = b2.belief1_support()
        assert len(points) > 1
        partial = Prescription.for_agent1(0, {points[0]: 0})
        g2 = gamma2_const(info, model, 0, 0)
        with pytest.raises(DomainGap):
            belief2_step(b2, partial, g2, StepCache(model, info))

    def test_one_agent1_step_per_inner_belief(self, monkeypatch):
        """The shared step is a mixture of agent-1 steps: one belief1_step
        per distinct inner belief, and no update_belief1."""
        import nested_dp.beliefs as beliefs_mod

        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        stepped = []
        real_step = beliefs_mod.belief1_step

        def counting_step(model, info, b1, u1, gamma2):
            stepped.append(b1)
            return real_step(model, info, b1, u1, gamma2)

        def no_update(*args):
            raise AssertionError("belief2_step called update_belief1")

        monkeypatch.setattr(beliefs_mod, "belief1_step", counting_step)
        monkeypatch.setattr(beliefs_mod, "update_belief1", no_update)
        for _, b2 in StepCache(model, info).roots2().values():
            points = b2.belief1_support()
            assert len(points) > 1
            stepped.clear()
            g1 = Prescription.for_agent1(0, {b: 0 for b in points})
            belief2_step(b2, g1, gamma2_const(info, model, 0, 0), StepCache(model, info))
            assert sorted(stepped, key=Belief1.sort_key) == points

    @pytest.mark.parametrize("d", range(4))
    def test_entries_factor_through_mixture(self, d):
        """Every reachable shared-belief entry is mixture()[b1] * b1(x, ell)."""
        model = certification_instance(1)
        info = build_delayed_structure(model, d)
        frontier = [b2 for _, b2 in StepCache(model, info).roots2().values()]
        while frontier:
            b2 = frontier.pop()
            mix = b2.mixture()
            assert sum(mix.values()) == 1
            for (x, ell, b1), w in b2.items():
                assert w == mix[b1] * dict(b1.entries)[(x, ell)]
            if b2.t < model.horizon:
                g1 = Prescription.for_agent1(b2.t, {b: b2.t % 2 for b in mix})
                g2 = gamma2_const(info, model, b2.t, 1)
                frontier.extend(nxt for _, nxt in belief2_step(b2, g1, g2, StepCache(model, info)).values())

    def test_marginal_and_mixture_agree(self):
        model = certification_instance(1)
        info = build_delayed_structure(model, 1)
        for _, b2 in StepCache(model, info).roots2().values():
            assert b2.marginal_state_private() == b2.mixture_state_private()

    def test_json_round_trip(self):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        for _, b2 in StepCache(model, info).roots2().values():
            assert belief2_from_json(b2.to_json()) == b2


class TestExpectedCosts:
    def test_point_mass_cost1(self):
        model = deterministic_model()
        info = build_delayed_structure(model, 1)
        b1 = initial_belief1_roots(model, info)[(1,)][1]
        (x, ell), = b1.support()
        gamma = gamma2_const(info, model, 0, 1)
        assert expected_cost1(model, b1, 1, gamma) == model.cost(0, x, 1, 1)

    def test_constant_cost_is_constant(self):
        model = certification_instance(0)
        flat = replace(
            model,
            cost_table=tuple(
                tuple(tuple(tuple(Fraction(5) for _ in range(2)) for _ in range(2)) for _ in range(2))
                for _ in range(model.horizon + 1)
            ),
        )
        info = build_delayed_structure(flat, 1)
        for _, b1 in initial_belief1_roots(flat, info).values():
            assert expected_cost1(flat, b1, 0, gamma2_const(info, flat, 0, 1)) == 5

    def test_zero_cost_table_cost2(self):
        model = certification_instance(0)
        zero = replace(
            model,
            cost_table=tuple(
                tuple(tuple(tuple(Fraction(0) for _ in range(2)) for _ in range(2)) for _ in range(2))
                for _ in range(model.horizon + 1)
            ),
        )
        info = build_delayed_structure(zero, 1)
        b2 = StepCache(zero, info).roots2()[()][1]
        g1 = Prescription.for_agent1(0, {b: 0 for b in b2.belief1_support()})
        assert expected_cost2(zero, b2, g1, gamma2_const(info, zero, 0, 0)) == 0

    def test_point_mass_cost2(self):
        model = deterministic_model()
        info = build_delayed_structure(model, 0)
        b2 = StepCache(model, info).roots2()[(1,)][1]
        ((x, ell, b1),) = b2.support()
        g1 = Prescription.for_agent1(0, {b1: 1})
        g2 = gamma2_const(info, model, 0, 0)
        assert expected_cost2(model, b2, g1, g2) == model.cost(0, x, 1, 0)


class TestBranchWeights:
    def test_belief2_step_weights_sum_to_one(self):
        """Expansion weights over realizable shared increments always total
        one, for every prescription pair at a root."""
        from nested_dp.solver import all_agent1_prescriptions, all_agent2_prescriptions

        model = certification_instance(2)
        info = build_delayed_structure(model, 1)
        for _, b2 in StepCache(model, info).roots2().values():
            l2_reals = enumerate_private(info, model, 0)
            for g1 in all_agent1_prescriptions(0, b2.belief1_support(), 2):
                for g2 in all_agent2_prescriptions(0, l2_reals, 2):
                    step = belief2_step(b2, g1, g2, StepCache(model, info))
                    assert sum(p for p, _ in step.values()) == 1


class TestSupportGrowth:
    def test_reachable_beliefs_bounded_by_histories(self):
        """Distinct belief realizations at each t are at most the number of
        (memory, prescription-history) pairs that produce them."""
        from nested_dp.certify import _chain_belief1, _m1_histories

        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        tables = next(iter(orc.enumerate_agent2_strategies(model, info, joint)))
        histories = _m1_histories(model, info, joint, orc._table_lookup(info.m2, 2, tables))
        cache = StepCache(model, info)
        for t in range(model.horizon + 1):
            beliefs = {
                _chain_belief1(cache, tables, t, m1real)[0] for m1real in histories[t]
            }
            assert len(beliefs) <= len(histories[t])


    def test_m1_histories_match_open_loop_trajectories(self):
        """Letting agent 1's actions range free per history reaches the same
        memories as every open-loop agent-1 action sequence."""
        import itertools

        from nested_dp.certify import _m1_histories

        model = certification_instance(1)
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        T = model.horizon
        for tables in itertools.islice(orc.enumerate_agent2_strategies(model, info, joint), 3):
            pick2 = orc._table_lookup(info.m2, 2, tables)
            seen = [set() for _ in range(T + 1)]
            for plan in itertools.product(range(2), repeat=T):
                # agent 1 plays the fixed action sequence plan, then 0
                runner = orc._Pair(lambda t, values: (plan + (0,))[t], pick2)
                for omega, _ in joint.entries:
                    traj = orc.trajectory(model, info, runner, omega)
                    for t in range(T + 1):
                        seen[t].add(traj.read(info.m1[t]))
            assert _m1_histories(model, info, joint, pick2) == [sorted(s) for s in seen]


class TestBelief1Vector:
    def test_round_trip(self):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        plist = enumerate_private(info, model, 0)
        for _, b1 in initial_belief1_roots(model, info).values():
            vec = belief1_vector(model, plist, b1)
            assert sum(vec) == 1
            assert belief1_from_vector(0, plist, vec) == b1
