from fractions import Fraction

import pytest

from nested_dp import oracle as orc
from nested_dp.beliefs import MarginalBelief
from nested_dp.decoupled import (
    check_factorization_pi1,
    check_factorization_pi2,
    decoupled_from_json,
    decoupled_to_json,
    embed,
    initial_theta1_roots,
    initial_theta2_roots,
    solve_decoupled_pbp,
    theta1_step,
    theta2_step,
)
from nested_dp.errors import PerfectObsViolation
from nested_dp.generators import (
    HashedTeamStrategy,
    coupled_counterexample,
    decoupled_instance,
)
from nested_dp.info import build_delayed_structure
from nested_dp.model import transition_kernel, validate_model
from nested_dp.solver import HashedPsi2, optimal_psi2, solve_exact, solve_pbp_exact


def reachable_histories(model, info, joint, strategy):
    per_t = {"m1": [], "a2": []}
    for t in range(model.horizon + 1):
        m1s, a2s = set(), set()
        for omega, _ in joint.entries:
            traj = orc.trajectory(model, info, strategy, omega)
            m1s.add(traj.read(info.m1[t]))
            a2s.add(traj.read(info.a2[t]))
        per_t["m1"].append(sorted(m1s))
        per_t["a2"].append(sorted(a2s))
    return per_t


class TestEmbedding:
    def test_product_model_is_valid(self):
        emb = embed(decoupled_instance(0))
        assert validate_model(emb) == []
        assert emb.states[0].size == 4
        assert emb.disturbances[0].size == 4

    def test_kernel_factorizes(self):
        dec = decoupled_instance(0)
        emb = embed(dec)
        n2 = dec.states2[0].size
        for x in range(4):
            x1, x2 = divmod(x, n2)
            for u1 in range(2):
                for u2 in range(2):
                    lhs = transition_kernel(emb, 0, x, u1, u2)
                    for x_next in range(4):
                        x1n, x2n = divmod(x_next, n2)
                        p1 = sum(
                            pw
                            for w1, pw in dec.w1_dists[0].items()
                            if dec.f1[0][x1][u1][w1] == x1n
                        )
                        p2 = sum(
                            pw
                            for w2, pw in dec.w2_dists[0].items()
                            if dec.f2[0][x2][u2][w2] == x2n
                        )
                        assert lhs[x_next] == p1 * p2

    def test_cost_copies_through(self):
        dec = decoupled_instance(1)
        emb = embed(dec)
        n2 = dec.states2[0].size
        for x in range(4):
            x1, x2 = divmod(x, n2)
            assert emb.cost(0, x, 1, 0) == dec.cost(0, x1, x2, 1, 0)

    def test_json_round_trip(self):
        dec = decoupled_instance(2)
        assert decoupled_from_json(decoupled_to_json(dec)) == dec


class TestThetaFilters:
    def test_perfect_observation_snaps_to_point_mass(self):
        dec = decoupled_instance(0, perfect_obs_1=True)
        theta = MarginalBelief.from_weights(1, 0, {0: Fraction(1, 3), 1: Fraction(2, 3)})
        branches = theta1_step(dec, theta, 1)
        for y1, (_, nxt) in branches.items():
            assert nxt.items() == ((y1, Fraction(1)),)

    def test_uninformative_observation_is_pure_prediction(self):
        dec = decoupled_instance(0)  # agent-1 obs constant for t >= 1
        theta = MarginalBelief.from_weights(1, 0, {0: Fraction(1, 2), 1: Fraction(1, 2)})
        branches = theta1_step(dec, theta, 0)
        assert len(branches) == 1
        (_, (p, nxt)), = branches.items()
        assert p == 1
        predicted = {}
        for x1, q in theta.items():
            for w1, pw in dec.w1_dists[0].items():
                nxt_x = dec.f1[0][x1][0][w1]
                predicted[nxt_x] = predicted.get(nxt_x, Fraction(0)) + q * pw
        assert dict(nxt.items()) == {k: v for k, v in predicted.items() if v > 0}

    def test_impossible_driver_raises(self):
        """An observation the filter rules out has no branch: with perfect
        own observations the branches are the reachable next states."""
        dec = decoupled_instance(0, perfect_obs_1=True)
        theta = MarginalBelief.from_weights(1, 0, {0: Fraction(1)})
        branches = theta1_step(dec, theta, 0)
        assert set(branches) == {dec.f1[0][0][0][w1] for w1, _ in dec.w1_dists[0].items()}
        missing = next((y for y in range(2) if y not in branches), -1)
        assert missing not in branches

    @pytest.mark.parametrize("seed", range(2))
    def test_filter_chain_equals_conditioning(self, seed):
        """Chained own-state filters equal direct conditionals on the
        embedded model, along every reachable history of a fixed strategy."""
        dec = decoupled_instance(seed)
        emb = embed(dec)
        info = build_delayed_structure(emb, 1)
        joint = orc.build_joint(emb)
        strategy = HashedTeamStrategy(emb, info, 11)
        n2 = dec.states2[0].size
        for omega, _ in joint.entries:
            traj = orc.trajectory(emb, info, strategy, omega)
            theta = initial_theta1_roots(dec)[traj.value_of(("Y1", 0))][1]
            for t in range(emb.horizon):
                u1, y1 = traj.value_of(("U1", t)), traj.value_of(("Y1", t + 1))
                theta = theta1_step(dec, theta, u1)[y1][1]
                m1real = traj.read(info.m1[t + 1])
                cond = orc.condition_on_memory1(
                    joint, emb, info, strategy, t + 1, m1real, query=[("X", t + 1)]
                )
                own = {}
                for (x,), p in cond.items():
                    x1, _ = divmod(x, n2)
                    own[x1] = own.get(x1, Fraction(0)) + p
                assert own == dict(theta.items())

    def test_theta2_update_tracks_shared_conditioning(self):
        dec = decoupled_instance(1)
        emb = embed(dec)
        info = build_delayed_structure(emb, 1)
        joint = orc.build_joint(emb)
        psi2 = HashedPsi2(emb, info, 4)

        class PsiOnly:
            def fresh_state(self):
                return None

            def act(self, st, t, values):
                a2 = tuple(values[v] for v in info.a2[t])
                ell = tuple(values[v] for v in info.l2[t])
                return 0, psi2.prescription(t, a2)(ell)

        strategy = PsiOnly()
        n2 = dec.states2[0].size
        for omega, _ in joint.entries:
            traj = orc.trajectory(emb, info, strategy, omega)
            a2real = traj.read(info.a2[0])
            theta = initial_theta2_roots(dec, info)[a2real][1]
            for t in range(emb.horizon):
                gamma = psi2.prescription(t, a2real)
                z2next = traj.read(info.z2[t + 1])
                theta = theta2_step(dec, info, theta, gamma)[z2next][1]
                from nested_dp.solver import extend_a2

                a2real = extend_a2(info, t, a2real, z2next)
                cond = orc.condition(
                    joint, emb, info, strategy,
                    [(("A2", t + 1), a2real)], [("X", t + 1), ("L2", t + 1)],
                )
                shared = {}
                for (x, ell), p in cond.items():
                    _, x2 = divmod(x, n2)
                    shared[(x2, ell)] = shared.get((x2, ell), Fraction(0)) + p
                assert shared == dict(theta.items())


class TestFactorization:
    def test_base_case_holds_at_time_zero(self):
        dec = decoupled_instance(0)
        emb = embed(dec)
        info = build_delayed_structure(emb, 1)
        joint = orc.build_joint(emb)
        strategy = HashedTeamStrategy(emb, info, 0)
        replayed = orc.replay(joint, emb, info, strategy)
        for m1real in reachable_histories(emb, info, joint, strategy)["m1"][0]:
            assert check_factorization_pi1((2, 2), info, replayed, 0, m1real).equal

    @pytest.mark.parametrize("seed", range(2))
    def test_decoupled_holds_everywhere(self, seed):
        dec = decoupled_instance(seed)
        emb = embed(dec)
        info = build_delayed_structure(emb, 1)
        joint = orc.build_joint(emb)
        strategy = HashedTeamStrategy(emb, info, seed + 5)
        hist = reachable_histories(emb, info, joint, strategy)
        replayed = orc.replay(joint, emb, info, strategy)
        for t in range(emb.horizon + 1):
            for m1real in hist["m1"][t]:
                assert check_factorization_pi1((2, 2), info, replayed, t, m1real).equal
            for a2real in hist["a2"][t]:
                assert check_factorization_pi2((2, 2), info, replayed, t, a2real).equal

    def test_coupled_counterexample_fails(self):
        model, split = coupled_counterexample()
        info = build_delayed_structure(model, 2)
        joint = orc.build_joint(model)
        strategy = HashedTeamStrategy(model, info, 0)
        hist = reachable_histories(model, info, joint, strategy)
        replayed = orc.replay(joint, model, info, strategy)
        broken = 0
        for t in range(model.horizon + 1):
            for m1real in hist["m1"][t]:
                if not check_factorization_pi1(split, info, replayed, t, m1real).equal:
                    broken += 1
        assert broken > 0


class TestDecoupledSolve:
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_matches_generic_pipeline(self, seed, d):
        dec = decoupled_instance(seed)
        emb = embed(dec)
        info = build_delayed_structure(emb, d)
        psi2 = HashedPsi2(emb, info, 13)
        generic = solve_pbp_exact(emb, info, psi2)
        reduced = solve_decoupled_pbp(dec, info, psi2)
        assert reduced.value == generic.value

    def test_optimal_family_recovers_team_optimum(self):
        dec = decoupled_instance(0)
        emb = embed(dec)
        info = build_delayed_structure(emb, 1)
        solution = solve_exact(emb, info)
        psi2 = optimal_psi2(emb, info, solution)
        reduced = solve_decoupled_pbp(dec, info, psi2)
        assert reduced.value == solution.value

    def test_shared_filter_steps_once_per_node(self, monkeypatch):
        import nested_dp.decoupled as dec_mod

        dec = decoupled_instance(0, horizon=5)
        emb = embed(dec)
        info = build_delayed_structure(emb, 1)
        calls = []
        original = dec_mod.theta2_step

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dec_mod, "theta2_step", counted)
        reduced = solve_decoupled_pbp(dec, info, HashedPsi2(emb, info, 7))
        inner_nodes = sum(1 for theta1, _, _ in reduced.memo if theta1.t < dec.horizon)
        # the time-0 filters are one step from the prior at t = -1
        priors = [args for args in calls if args[2].t == -1]
        assert len(priors) == 1
        assert 0 < len(calls) - len(priors) <= inner_nodes

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("perfect", [False, True])
    def test_one_filter_step_per_key(self, seed, perfect, monkeypatch):
        """Within one solve, theta1_step runs once per (theta1, u1) and
        theta2_step once per (theta2, gamma2); the nodes look both up more
        often than that."""
        import nested_dp.decoupled as dec_mod

        dec = decoupled_instance(seed, horizon=5, perfect_obs_1=perfect)
        emb = embed(dec)
        info = build_delayed_structure(emb, 1)
        psi2 = HashedPsi2(emb, info, 7)
        keys1, keys2 = [], []
        real1, real2 = dec_mod.theta1_step, dec_mod.theta2_step

        def counting1(dec, theta, u1):
            keys1.append((theta, u1))
            return real1(dec, theta, u1)

        def counting2(dec, info, theta, gamma2):
            keys2.append((theta, gamma2))
            return real2(dec, info, theta, gamma2)

        monkeypatch.setattr(dec_mod, "theta1_step", counting1)
        monkeypatch.setattr(dec_mod, "theta2_step", counting2)
        reduced = solve_decoupled_pbp(dec, info, psi2, perfect)
        # drop the time-0 steps from the priors
        keys1 = [key for key in keys1 if key[0].t >= 0]
        keys2 = [key for key in keys2 if key[0].t >= 0]
        assert keys1 and len(keys1) == len(set(keys1))
        assert keys2 and len(keys2) == len(set(keys2))
        # a perfect-observation memo key starts with t, any other with theta1
        inner = sum(1 for key in reduced.memo if (key[0] if perfect else key[0].t) < dec.horizon)
        assert inner > len(keys2)
        assert inner * dec.actions1[0].size > len(keys1)

    def test_perfect_obs_variant(self):
        dec = decoupled_instance(0, perfect_obs_1=True)
        emb = embed(dec)
        info = build_delayed_structure(emb, 1)
        psi2 = HashedPsi2(emb, info, 2)
        generic = solve_pbp_exact(emb, info, psi2)
        reduced = solve_decoupled_pbp(dec, info, psi2, perfect_obs_1=True)
        assert reduced.value == generic.value
        for key in reduced.memo:
            assert isinstance(key[1], int)  # own state sits in the key directly

    @pytest.mark.parametrize("horizon", [2, 3, 5])
    def test_perfect_obs_memo_is_the_general_memo_rekeyed(self, horizon):
        """With perfect own observations every own filter is a point mass,
        and equal point masses are equal keys, so the general solve dedups
        its nodes as the (t, own state) key does: the perfect-observation
        memo is the general memo re-keyed, row for row and in order."""
        for seed in range(6):
            dec = decoupled_instance(seed, horizon=horizon, perfect_obs_1=True)
            emb = embed(dec)
            info = build_delayed_structure(emb, 1)
            psi2 = HashedPsi2(emb, info, 13)
            general = solve_decoupled_pbp(dec, info, psi2)
            perfect = solve_decoupled_pbp(dec, info, psi2, perfect_obs_1=True)
            rows = []
            for (theta1, theta2, a2real), row in general.memo.items():
                ((x1, p),) = theta1.items()
                assert p == 1
                rows.append(((theta1.t, x1, theta2, a2real), row))
            assert list(perfect.memo.items()) == rows
            assert perfect.value == general.value

    def test_perfect_obs_flag_rejects_noisy_observation(self):
        dec = decoupled_instance(0)  # constant observations after t=0
        info = build_delayed_structure(embed(dec), 1)
        with pytest.raises(PerfectObsViolation):
            solve_decoupled_pbp(dec, info, HashedPsi2(embed(dec), info, 0), perfect_obs_1=True)

    def test_cost_only_on_agent2_ignores_agent1(self):
        dec = decoupled_instance(3)
        cost = tuple(
            tuple(
                tuple(
                    tuple(Fraction(x2 + u2, 2) for u2 in range(2))
                    for _ in range(2)
                )
                for x2 in range(2)
            )
            for _ in range(2)
        )
        from dataclasses import replace

        dec = replace(dec, cost_table=tuple(cost for _ in range(dec.horizon + 1)))
        emb = embed(dec)
        info = build_delayed_structure(emb, 1)
        psi2 = HashedPsi2(emb, info, 1)
        reduced = solve_decoupled_pbp(dec, info, psi2)
        generic = solve_pbp_exact(emb, info, psi2)
        assert reduced.value == generic.value