import itertools
import re
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nested_dp import oracle as orc
from nested_dp.beliefs import (
    _NULL2,
    StepCache,
    _prior1,
    belief2_step,
    expected_cost2,
    initial_belief1_roots,
)
from nested_dp.certify import _path_runner, certify_pbp_against_enumeration, convergence_report
from nested_dp.decoupled import embed, solve_decoupled_pbp
from nested_dp.errors import MissingKey, ResourceLimitExceeded, ZeroProbabilityObservation
from nested_dp.generators import certification_instance, convergence_instance, decoupled_instance
from nested_dp.info import build_delayed_structure
from nested_dp.lattice import build_lattice, lattice_size, quantize
from nested_dp.model import Dist, FiniteSpace, TeamModel
from nested_dp.sim import RolloutConfig, rollout
from nested_dp import solver as solver_mod
from nested_dp.solver import (
    AlphaBoundInputs,
    ConstantPsi2,
    HashedPsi2,
    TablePsi2,
    _observed,
    alpha_bound,
    all_agent1_prescriptions,
    all_agent2_prescriptions,
    extract_control_strategy,
    extract_pbp_strategy,
    make_alpha_inputs,
    optimal_psi2,
    psi2_from_json,
    solve_exact,
    solve_pbp_approx,
    solve_pbp_exact,
)
from nested_dp.info import enumerate_private
from test_info import split_delay_structure
from test_kernels import belief1_from_vector, belief1_vector, ref_argmin


def full_scan_solve(model, info):
    """The joint DP without the support restriction or a shared step cache
    (each step gets a fresh `StepCache`): every agent-2 map over
    `enumerate_private` at every node, scored by the Fraction `ref_argmin`.
    Returns the value and the memo."""
    T = model.horizon

    def expand(b2):
        t = b2.t
        points = b2.belief1_support()
        l2_reals = enumerate_private(info, model, t)
        n_u1 = model.action_space(1, t).size
        n_u2 = model.action_space(2, t).size
        return t, 0, (
            ((g1, g2), expected_cost2(model, b2, g1, g2),
             belief2_step(model, info, b2, g1, g2, StepCache()).values() if t < T else ())
            for g1 in all_agent1_prescriptions(t, points, n_u1)
            for g2 in all_agent2_prescriptions(t, l2_reals, n_u2)
        )

    dp = ref_argmin({}, 0, "prescription pairs", expand)
    value = sum((p * dp.value(b2) for p, b2 in StepCache().roots2(model, info).values()), Fraction(0))
    return value, dp.memo


def assert_matches_full_scan(model, info):
    solution = solve_exact(model, info)
    value, memo = full_scan_solve(model, info)
    assert solution.value == value
    # same keys, same (v, g1, g2) rows, same visit order
    assert list(solution.memo.items()) == list(memo.items())


class TestSupportRestriction:
    """solve_exact scans agent-2 prescriptions only on the shared belief's
    private support; its memo must equal the full scan's, row for row."""

    @pytest.mark.parametrize("d", [0, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_full_scan(self, seed, d):
        model = certification_instance(seed)
        assert_matches_full_scan(model, build_delayed_structure(model, d))

    def test_matches_full_scan_split_delay(self):
        model = certification_instance(0, horizon=2)
        assert_matches_full_scan(model, split_delay_structure(model))

    @settings(max_examples=30)
    @given(st.integers(0, 10_000), st.sampled_from([1, 2]), st.sampled_from([0, 1]))
    def test_matches_full_scan_generated(self, seed, horizon, d):
        model = certification_instance(seed, horizon=horizon)
        assert_matches_full_scan(model, build_delayed_structure(model, d))

    def test_pairs_count_restricted_maps(self):
        model = certification_instance(0, horizon=2)
        info = split_delay_structure(model)
        solution = solve_exact(model, info)
        expected = 0
        for b2 in solution.memo:
            support = {ell for (_, ell, _), _ in b2.items()}
            expected += 2 ** len(b2.belief1_support()) * 2 ** len(support)
        assert solution.pairs_enumerated == expected
        full = sum(
            2 ** len(b2.belief1_support()) * 2 ** len(enumerate_private(info, model, b2.t))
            for b2 in solution.memo
        )
        assert solution.pairs_enumerated < full

    def test_one_agent1_step_per_cache_key(self, monkeypatch):
        """Within one solve, belief1_step runs once per (b1, u1, gamma2 on
        b1's private support); the agent-1 steps that the nodes' shared-step
        tables look up repeat across nodes."""
        import nested_dp.beliefs as beliefs_mod

        model = certification_instance(0, horizon=2)
        info = split_delay_structure(model)
        keys = []
        inner = []
        real_step1 = beliefs_mod.belief1_step

        def counting_step1(model, info, b1, u1, gamma2):
            keys.append((b1, u1, tuple(gamma2(ell) for ell in b1.private_support())))
            return real_step1(model, info, b1, u1, gamma2)

        class CountingSharedStep(solver_mod.SharedStep):
            def __init__(self, model, info, b2, cache, choices):
                inner.append(len(choices))
                super().__init__(model, info, b2, cache, choices)

        monkeypatch.setattr(beliefs_mod, "belief1_step", counting_step1)
        monkeypatch.setattr(solver_mod, "SharedStep", CountingSharedStep)
        solve_exact(model, info)
        assert keys and len(keys) == len(set(keys))
        assert sum(inner) > len(keys)


class TestSolveExact:
    def test_single_stage_is_min_over_pairs(self):
        model = certification_instance(0, horizon=0)
        info = build_delayed_structure(model, 1)
        solution = solve_exact(model, info)
        roots = StepCache().roots2(model, info)
        total = Fraction(0)
        for a2real, (p, b2) in roots.items():
            candidates = []
            for g1 in all_agent1_prescriptions(0, b2.belief1_support(), 2):
                for g2 in all_agent2_prescriptions(0, enumerate_private(info, model, 0), 2):
                    candidates.append(expected_cost2(model, b2, g1, g2))
            total += p * min(candidates)
        assert solution.value == total

    def test_zero_cost_model(self):
        model = certification_instance(0)
        zero = replace(
            model,
            cost_table=tuple(
                tuple(tuple(tuple(Fraction(0) for _ in range(2)) for _ in range(2)) for _ in range(2))
                for _ in range(model.horizon + 1)
            ),
        )
        info = build_delayed_structure(zero, 1)
        assert solve_exact(zero, info).value == 0

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_oracle(self, seed):
        model = certification_instance(seed, horizon=1)
        info = build_delayed_structure(model, 1)
        solution = solve_exact(model, info)
        joint = orc.build_joint(model)
        brute = orc.exhaustive_min(model, info, joint)
        assert solution.value == brute.value

    @pytest.mark.parametrize("d", [0, 2])
    def test_matches_oracle_other_delays(self, d):
        # d=0: no private data, several time-0 roots; d=2 at horizon 1: the
        # private window spans everything and nothing is ever shared
        model = certification_instance(4, horizon=1)
        info = build_delayed_structure(model, d)
        solution = solve_exact(model, info)
        joint = orc.build_joint(model)
        brute = orc.exhaustive_min(model, info, joint)
        assert solution.value == brute.value

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("d", [0, 1])
    def test_matches_oracle_at_horizon_2(self, seed, d):
        model = certification_instance(seed)
        info = build_delayed_structure(model, d)
        solution = solve_exact(model, info)
        joint = orc.build_joint(model)
        brute = orc.exhaustive_min(model, info, joint)
        assert solution.value == brute.value
        assert orc.evaluate_strategy(joint, model, info, brute.strategy) == brute.value
        assert orc.evaluate_strategy(joint, model, info, extract_control_strategy(solution)) == solution.value

    def test_values_nonnegative_and_argmin_domains(self):
        model = certification_instance(3)
        info = build_delayed_structure(model, 1)
        solution = solve_exact(model, info)
        for b2, (v, g1, g2) in solution.memo.items():
            assert v >= 0
            assert [k for k, _ in g1.table] == b2.belief1_support()

    def test_memo_recompute_is_identical(self):
        model = certification_instance(1)
        info = build_delayed_structure(model, 1)
        first = solve_exact(model, info)
        second = solve_exact(model, info)
        assert first.value == second.value
        assert set(first.memo) == set(second.memo)
        for key in first.memo:
            assert first.memo[key] == second.memo[key]

    def test_budget_guard(self):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        with pytest.raises(ResourceLimitExceeded):
            solve_exact(model, info, budget=4)


class TestExtractedStrategy:
    @pytest.mark.parametrize("seed", range(3))
    def test_replay_recovers_dp_value(self, seed):
        model = certification_instance(seed)
        info = build_delayed_structure(model, 1)
        solution = solve_exact(model, info)
        strategy = extract_control_strategy(solution)
        joint = orc.build_joint(model)
        assert orc.evaluate_strategy(joint, model, info, strategy) == solution.value

    def test_point_mass_prior_gives_open_loop_plan(self):
        model = certification_instance(0)
        pinned = replace(model, x0_dist=Dist.point_mass(2, 0),
                         v1_dists=(Dist.point_mass(2, 0),) + model.v1_dists[1:])
        det = replace(
            pinned,
            disturbances=tuple(FiniteSpace("W", 1) for _ in range(model.horizon)),
            w_dists=tuple(Dist.point_mass(1, 0) for _ in range(model.horizon)),
            transition=tuple(
                tuple(tuple(tuple((stage[x][u1][u2][0],) for u2 in range(2)) for u1 in range(2)) for x in range(2))
                for stage in model.transition
            ),
        )
        info = build_delayed_structure(det, 1)
        solution = solve_exact(det, info)
        strategy = extract_control_strategy(solution)
        joint = orc.build_joint(det)
        assert len(joint) == 1  # fully deterministic world
        traj = orc.trajectory(det, info, strategy, joint.entries[0][0])
        assert traj.total_cost == solution.value

    @pytest.mark.parametrize("extract", [
        lambda model, info, psi2: extract_control_strategy(solve_exact(model, info)),
        lambda model, info, psi2: extract_pbp_strategy(solve_pbp_exact(model, info, psi2)),
        lambda model, info, psi2: extract_pbp_strategy(solve_pbp_approx(model, info, psi2, 2)),
    ])
    def test_time0_realization_the_prior_rules_out_raises(self, extract):
        """Agent 1's chain starts at the prior, so time 0 is an update like
        any other: a realization outside the roots has probability 0."""
        model = convergence_instance(0)
        info = build_delayed_structure(model, 1)
        strategy = extract(model, info, HashedPsi2(model, info, 7))
        (y1,) = info.z1[0]
        assert list(initial_belief1_roots(model, info)) == [(0,)] and model.obs_space(1, 0).size == 2
        with pytest.raises(ZeroProbabilityObservation, match=r"new information \(1,\) impossible at t=-1"):
            strategy.act(strategy.fresh_state(), 0, {y1: 1})


class TableReference:
    """The table executor that `PolicyRunner` replaced, kept as a reference:
    it runs {(t, accessible realization): (gamma1, gamma2)}, and where a
    history leaves the table both agents play 0 from then on and agent 1
    stops tracking its belief."""

    def __init__(self, model, info, table):
        self.model, self.info, self.table, self.cache = model, info, table, StepCache()

    def fresh_state(self):
        return {"b1": _prior1(self.model), "g2": _NULL2}

    def act(self, st, t, values):
        if st["g2"] is None:
            return 0, 0
        u1, z1 = _observed(self.info, t, values)
        b1 = self.cache.update1(self.model, self.info, st["b1"], u1, st["g2"], z1)
        pair = self.table.get((t, tuple(values[v] for v in self.info.a2[t])))
        if pair is None:
            st["g2"] = None
            return 0, 0
        (g1, g2), st["b1"], st["g2"] = pair, b1, pair[1]
        return g1(b1), g2(tuple(values[v] for v in self.info.l2[t]))


def plays_as_table(model, info, runner, table):
    """Each joint draw's trajectory under `runner`, after checking that the
    table reference plays it the same."""
    reference = TableReference(model, info, table)
    for omega, _ in orc.build_joint(model).entries:
        traj = orc.trajectory(model, info, runner, omega)
        assert traj.values == orc.trajectory(model, info, reference, omega).values
        yield traj


class TestPrescriptionTable:
    @pytest.mark.parametrize("d", range(3))
    @pytest.mark.parametrize("seed", range(3))
    def test_one_entry_per_argmin_tree_node(self, seed, d):
        model = certification_instance(seed)
        info = build_delayed_structure(model, d)
        solution = solve_exact(model, info)
        table = solution.table
        assert set(table) == set(optimal_psi2(model, info, solution).entries)
        # The argmin tree's nodes are the (t, accessible realization) pairs the
        # executed policy reaches with positive probability.
        joint = orc.build_joint(model)
        strategy = extract_control_strategy(solution)
        reached = set()
        for omega, _ in joint.entries:
            traj = orc.trajectory(model, info, strategy, omega)
            for t in range(model.horizon + 1):
                reached.add((t, traj.read(info.a2[t])))
        assert len(table) == len(reached)
        assert set(table) == reached

    @pytest.fixture(scope="class")
    def solved(self):
        model = certification_instance(1)
        info = build_delayed_structure(model, 1)
        return model, info, solve_exact(model, info), orc.build_joint(model)

    def test_missing_final_stage_names_it(self, solved):
        """The rule runs before the family, so a history off the table raises
        the table's MissingKey, though `optimal_psi2` is total."""
        model, info, solution, joint = solved
        T = model.horizon
        truncated = replace(solution)
        truncated.table = {key: pair for key, pair in solution.table.items() if key[0] < T}
        strategy = extract_control_strategy(truncated)
        with pytest.raises(MissingKey, match=f"no prescription pair for t={T}, accessible realization"):
            orc.evaluate_strategy(joint, model, info, strategy)

    def test_partial_table_plays_zero_off_the_table(self, solved):
        """A path decoration of the time-0 entries only, as certify runs it:
        both agents play 0 at every later time, without raising."""
        model, info, solution, _ = solved
        table = {key: pair for key, pair in solution.table.items() if key[0] == 0}
        runner = _path_runner(model, info, StepCache(), table)
        for traj in plays_as_table(model, info, runner, table):
            later = range(1, model.horizon + 1)
            assert all(traj.value_of((kind, t)) == 0 for kind in ("U1", "U2") for t in later)

    @pytest.mark.parametrize("d", range(3))
    @pytest.mark.parametrize("make, seed", [
        *((certification_instance, seed) for seed in range(3)),
        (convergence_instance, 0),
    ])
    def test_joint_policy_plays_as_the_table(self, make, seed, d):
        """The extracted joint policy, and certify's decoration of the whole
        table, play as the table executor that `PolicyRunner` replaced."""
        model = make(seed)
        info = build_delayed_structure(model, d)
        solution = solve_exact(model, info)
        for runner in (extract_control_strategy(solution), _path_runner(model, info, StepCache(), solution.table)):
            assert list(plays_as_table(model, info, runner, solution.table))

    def test_extractions_share_one_walk(self, monkeypatch):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        solution = solve_exact(model, info)
        calls = []
        real_step = solver_mod.belief2_step

        def counting_step(*args):
            calls.append(args[2])
            return real_step(*args)

        monkeypatch.setattr(solver_mod, "belief2_step", counting_step)
        strategy = extract_control_strategy(solution)
        psi2 = optimal_psi2(model, info, solution)
        table = solution.table
        gamma2s = {key: g2 for key, (_, g2) in table.items()}
        assert strategy.psi2.entries == psi2.entries == gamma2s
        assert len(calls) == sum(1 for t, _ in table if t < model.horizon)

    def test_execution_needs_no_shared_belief_step(self, solved, monkeypatch):
        model, info, solution, joint = solved
        strategy = extract_control_strategy(solution)

        def forbidden(*args):
            raise AssertionError("belief2_step called while executing a table")

        monkeypatch.setattr(solver_mod, "belief2_step", forbidden)
        assert orc.evaluate_strategy(joint, model, info, strategy) == solution.value


def last_action_model() -> TeamModel:
    """T=2: the state is agent 1's last action (uniform at t=0), agent 2
    sees it exactly and agent 1 sees nothing.  Agent 2 pays 1 for missing
    the state and agent 1 pays 1/4 for action 1, so the team plays u1=0 and
    agent 1's deviation shows in agent 2's observation."""
    T = 2

    def spaces(label, n, k):
        return tuple(FiniteSpace(label, n) for _ in range(k))

    return TeamModel(
        horizon=T,
        states=spaces("X", 2, T + 1),
        actions1=spaces("U1", 2, T + 1),
        actions2=spaces("U2", 2, T + 1),
        disturbances=spaces("W", 1, T),
        noises1=spaces("V1", 1, T + 1),
        noises2=spaces("V2", 1, T + 1),
        observations1=spaces("Y1", 1, T + 1),
        observations2=spaces("Y2", 2, T + 1),
        transition=tuple(
            tuple(tuple(tuple((u1,) for _ in range(2)) for u1 in range(2)) for _ in range(2)) for _ in range(T)
        ),
        obs1=tuple(((0,), (0,)) for _ in range(T + 1)),
        obs2=tuple(((0,), (1,)) for _ in range(T + 1)),
        cost_table=tuple(
            tuple(tuple(tuple(Fraction(u2 != x) + Fraction(u1, 4) for u2 in range(2)) for u1 in range(2)) for x in range(2))
            for _ in range(T + 1)
        ),
        x0_dist=Dist.uniform(2),
        w_dists=tuple(Dist.point_mass(1, 0) for _ in range(T)),
        v1_dists=tuple(Dist.point_mass(1, 0) for _ in range(T + 1)),
        v2_dists=tuple(Dist.point_mass(1, 0) for _ in range(T + 1)),
    )


class TestBestResponseToSolvedFamily:
    """`optimal_psi2` is total: agent 1's best response may leave the argmin
    tree, where agent 2 plays the all-0 prescription, and still recovers the
    team value."""

    @staticmethod
    def assert_recovers_team_value(model, d):
        info = build_delayed_structure(model, d)
        solution = solve_exact(model, info)
        assert solve_pbp_exact(model, info, optimal_psi2(model, info, solution)).value == solution.value

    @pytest.mark.parametrize("seed, T, d", [(0, 2, 0), (1, 2, 1), (2, 3, 2), (0, 3, 0)])
    def test_convergence_instances(self, seed, T, d):
        self.assert_recovers_team_value(convergence_instance(seed, horizon=T), d)

    @pytest.mark.parametrize("d", [0, 1])
    def test_agent1_action_seen_by_agent2(self, d):
        self.assert_recovers_team_value(last_action_model(), d)

    def test_best_response_matches_agent1_enumeration(self):
        model = convergence_instance(0, horizon=2)
        info = build_delayed_structure(model, 0)
        psi2 = optimal_psi2(model, info, solve_exact(model, info))
        report = certify_pbp_against_enumeration(model, info, psi2)
        assert report["ok"], report


class TestSharedStepCache:
    """A solution keeps its solve's `StepCache`, and the policy walk, the
    executors, the oracle replay and a rollout run on it: executing the
    solved policy takes no Bayes step the solve did not already take."""

    @staticmethod
    def count_bayes_steps(monkeypatch):
        import nested_dp.beliefs as beliefs_mod

        calls = []
        real_step = beliefs_mod.belief1_step

        def counting_step(model, info, b1, u1, gamma2):
            # the time-0 roots are the step from the prior at t = -1
            calls.append("prior step" if b1.t == -1 else "belief1_step")
            return real_step(model, info, b1, u1, gamma2)

        monkeypatch.setattr(beliefs_mod, "belief1_step", counting_step)
        return calls

    @staticmethod
    def execute(model, info, strategy, value):
        joint = orc.build_joint(model)
        assert orc.evaluate_strategy(joint, model, info, strategy) == value
        report = rollout(model, info, strategy, RolloutConfig(seed=3, episodes=500), value)
        assert abs(report.mean_cost - float(value)) <= 5 * report.stderr + 1e-9

    @pytest.mark.parametrize("make", [
        lambda: (certification_instance(0), split_delay_structure),
        lambda: (certification_instance(0, horizon=3), lambda model: build_delayed_structure(model, 1)),
    ])
    def test_exact_policy_runs_on_the_solve_cache(self, make, monkeypatch):
        model, structure = make()
        info = structure(model)
        calls = self.count_bayes_steps(monkeypatch)
        solution = solve_exact(model, info)
        assert calls and solution.cache.steps
        assert calls.count("prior step") == 1
        calls.clear()
        strategy = extract_control_strategy(solution)
        assert strategy.cache is solution.cache
        self.execute(model, info, strategy, solution.value)
        assert calls == []

    @pytest.mark.parametrize("make", [
        lambda: (certification_instance(0), split_delay_structure),
        lambda: (certification_instance(0, horizon=3), lambda model: build_delayed_structure(model, 1)),
    ])
    def test_pbp_policy_runs_on_the_solve_cache(self, make, monkeypatch):
        model, structure = make()
        info = structure(model)
        psi2 = HashedPsi2(model, info, 7)
        calls = self.count_bayes_steps(monkeypatch)
        pbp = solve_pbp_exact(model, info, psi2)
        assert calls and pbp.cache.steps
        assert calls.count("prior step") == 1
        calls.clear()
        self.execute(model, info, extract_pbp_strategy(pbp), pbp.value)
        assert calls == []

    def test_cache_is_not_compared_or_shown(self):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        first, second = solve_exact(model, info), solve_exact(model, info)
        assert first.cache is not second.cache
        assert first == second
        assert "cache" not in repr(first)


class TestPsi2Families:
    def test_constant_family_is_total(self):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        psi2 = ConstantPsi2(model, info, 1)
        for t in range(model.horizon + 1):
            presc = psi2.prescription(t, ())
            assert all(presc(ell) == 1 for ell in enumerate_private(info, model, t))

    def test_hashed_family_is_deterministic(self):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        a, b = HashedPsi2(model, info, 9), HashedPsi2(model, info, 9)
        assert a.prescription(1, (0, 1)) == b.prescription(1, (0, 1))

    @pytest.mark.parametrize("make", [
        lambda model, info: ConstantPsi2(model, info, 1),
        lambda model, info: HashedPsi2(model, info, 9),
    ])
    def test_prescriptions_built_once(self, make):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        keys = list(solve_exact(model, info).table)
        psi2 = make(model, info)
        first = [psi2.prescription(t, a2) for t, a2 in keys]
        for (t, a2), presc in zip(keys, first):
            assert psi2.prescription(t, a2) is presc
            assert make(model, info).prescription(t, a2).table == presc.table

    def test_table_json_round_trip(self):
        model = convergence_instance(1)
        info = build_delayed_structure(model, 1)
        sol = solve_exact(model, info)
        psi2 = optimal_psi2(model, info, sol)
        doc = psi2.to_json()
        back = psi2_from_json(doc, model, info)
        assert back.entries == psi2.entries
        # a loaded table stays strict where the tree it came from plays 0
        T = model.horizon
        sizes = [info.var_space_size(model, v) for v in info.a2[T]]
        off_tree = next(a2 for a2 in itertools.product(*map(range, sizes)) if (T, a2) not in psi2.entries)
        assert {u for _, u in psi2.prescription(T, off_tree).table} == {0}
        with pytest.raises(MissingKey, match=re.escape(f"no agent-2 prescription for t={T}, accessible={off_tree}")):
            back.prescription(T, off_tree)


class TestPbpSolvers:
    def test_single_stage_minimum(self):
        model = certification_instance(0, horizon=0)
        info = build_delayed_structure(model, 1)
        psi2 = ConstantPsi2(model, info, 0)
        pbp = solve_pbp_exact(model, info, psi2)
        # exhaustive check over the two roots
        from nested_dp.beliefs import expected_cost1, initial_belief1_roots

        expected = Fraction(0)
        for z1real, (p, b1) in initial_belief1_roots(model, info).items():
            gamma = psi2.prescription(0, ())
            expected += p * min(expected_cost1(model, b1, u1, gamma) for u1 in range(2))
        assert pbp.value == expected

    def test_constant_family_with_cost_on_u1_only(self):
        # cost depends only on (t, u1): the value is the sum of per-stage
        # scalar minima, whatever the information flow does
        model = certification_instance(0)
        flat = replace(
            model,
            cost_table=tuple(
                tuple(
                    tuple(tuple(Fraction(2 * t + u1 + 1, 2) for _ in range(2)) for u1 in range(2))
                    for _ in range(2)
                )
                for t in range(model.horizon + 1)
            ),
        )
        info = build_delayed_structure(flat, 1)
        psi2 = ConstantPsi2(flat, info, 0)
        pbp = solve_pbp_exact(flat, info, psi2)
        assert pbp.value == sum(
            min(Fraction(2 * t + u1 + 1, 2) for u1 in range(2)) for t in range(flat.horizon + 1)
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exact_pbp_matches_agent1_enumeration(self, seed):
        model = convergence_instance(seed, horizon=1)
        info = build_delayed_structure(model, 1)
        psi2 = HashedPsi2(model, info, 3)
        report = certify_pbp_against_enumeration(model, info, psi2)
        assert report["ok"], report

    def test_fine_lattice_equals_exact(self):
        model = convergence_instance(1)
        info = build_delayed_structure(model, 1)
        psi2 = HashedPsi2(model, info, 7)
        exact = solve_pbp_exact(model, info, psi2)
        approx = solve_pbp_approx(model, info, psi2, 8)  # quarter-grid beliefs
        assert approx.value == exact.value

    def test_vertex_lattice_one_step_hand_roll(self):
        model = convergence_instance(0, horizon=0)
        info = build_delayed_structure(model, 1)
        psi2 = ConstantPsi2(model, info, 1)
        approx = solve_pbp_approx(model, info, psi2, 1)
        from nested_dp.beliefs import expected_cost1, initial_belief1_roots
        from nested_dp.lattice import build_lattice, quantize

        plist = enumerate_private(info, model, 0)
        lattice = build_lattice(2 * len(plist), 1)
        expected = Fraction(0)
        for z1real, (p, b1) in initial_belief1_roots(model, info).items():
            vec = belief1_vector(model, plist, b1)
            snapped = belief1_from_vector(0, plist, quantize(lattice, vec).point())
            gamma = psi2.prescription(0, ())
            expected += p * min(expected_cost1(model, snapped, u1, gamma) for u1 in range(2))
        assert approx.value == expected

    def test_gap_sweep_monotone_on_screened_instance(self):
        model = convergence_instance(1)
        info = build_delayed_structure(model, 1)
        psi2 = HashedPsi2(model, info, 7)
        joint = orc.build_joint(model)
        exact = solve_pbp_exact(model, info, psi2)
        gaps = []
        for n in (1, 2, 4):
            approx = solve_pbp_approx(model, info, psi2, n)
            perf = orc.evaluate_strategy(joint, model, info, extract_pbp_strategy(approx))
            gaps.append(perf - exact.value)
        assert all(g >= 0 for g in gaps)
        assert gaps[0] >= gaps[1] >= gaps[2] == 0


class TestLatticeFreeSnap:
    """The quantized solve snaps beliefs in closed form and never builds a
    lattice; the built lattice stays the reference."""

    @pytest.fixture(scope="class")
    def setting(self):
        model = convergence_instance(0)
        info = build_delayed_structure(model, 1)
        return model, info, HashedPsi2(model, info, 7)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 4, 8]),
        t=st.integers(0, 2),
        weights=st.lists(st.integers(0, 12), min_size=8, max_size=8),
    )
    def test_snap_matches_lattice_reference(self, setting, n, t, weights):
        model, info, psi2 = setting
        pbp = solve_pbp_approx(model, info, psi2, n)
        plist = pbp.private_lists[t]
        m = pbp.dimension(t)
        assume(any(weights[:m]))
        vec = tuple(Fraction(w, sum(weights[:m])) for w in weights[:m])
        b1 = belief1_from_vector(t, plist, vec)
        reference = quantize(build_lattice(m, n), belief1_vector(model, plist, b1)).point()
        assert pbp.snap(b1) == belief1_from_vector(t, plist, reference)

    def test_budget_counts_nodes_not_lattice_points(self):
        model = convergence_instance(0)
        info = build_delayed_structure(model, 2)
        psi2 = HashedPsi2(model, info, 7)
        capped = solve_pbp_approx(model, info, psi2, 5, budget=1000)
        assert max(lattice_size(capped.dimension(t), 5) for t in range(3)) == 15_504
        assert capped.value == solve_pbp_approx(model, info, psi2, 5).value

    def test_resolution_past_any_buildable_lattice(self):
        model = convergence_instance(0)
        info = build_delayed_structure(model, 2)
        pbp = solve_pbp_approx(model, info, HashedPsi2(model, info, 7), 16)
        assert lattice_size(pbp.dimension(1), 16) > 10**8
        assert pbp.value > 0


def _pbp_exact_capped(budget):
    model = convergence_instance(0)
    info = build_delayed_structure(model, 1)
    return solve_pbp_exact(model, info, HashedPsi2(model, info, 7), budget)


def _pbp_approx_capped(budget):
    model = convergence_instance(0)
    info = build_delayed_structure(model, 1)
    return solve_pbp_approx(model, info, HashedPsi2(model, info, 7), 4, budget)


def _decoupled_capped(budget):
    dec = decoupled_instance(0)
    emb = embed(dec)
    info = build_delayed_structure(emb, 1)
    return solve_decoupled_pbp(dec, info, HashedPsi2(emb, info, 13), budget=budget)


class TestLatticeCoverage:
    @pytest.mark.parametrize("seed", range(8))
    def test_coverage_reads_denominators(self, seed):
        """A belief in reduced integer form (D, n) lies on the resolution-r
        lattice exactly when D divides r: the test `certify` applies to every
        exact memo key agrees with the Fraction coordinates of its vector."""
        model = convergence_instance(seed)
        outcomes = set()
        for d in (0, 1, 2):
            info = build_delayed_structure(model, d)
            exact = solve_pbp_exact(model, info, HashedPsi2(model, info, 7))
            for b1, _ in exact.memo:
                vec = belief1_vector(model, exact.private_lists[b1.t], b1)
                for r in range(1, 17):
                    on_lattice = all((c * r).denominator == 1 for c in vec)
                    assert (r % b1.scaled()[0] == 0) == on_lattice
                    outcomes.add(on_lattice)
        assert outcomes == {False, True}


class TestBudgetCore:
    """All three DP solvers charge the one memoized argmin, which raises
    naming the stage and the running count."""

    @pytest.mark.parametrize("solve", [_pbp_exact_capped, _pbp_approx_capped, _decoupled_capped])
    def test_budget_one_trips_with_stage_and_count(self, solve):
        with pytest.raises(ResourceLimitExceeded) as err:
            solve(1)
        found = re.search(r"cap of 1 at t=(\d+): (\d+) counted", str(err.value))
        assert found, str(err.value)
        assert int(found.group(2)) == err.value.estimate > 1

    @pytest.mark.parametrize("solve", [_pbp_exact_capped, _pbp_approx_capped, _decoupled_capped])
    def test_capped_solve_takes_no_step_beyond_its_cap(self, solve, monkeypatch):
        """With budget 1 only a time-0 node passes the cap: a node's Bayes
        and filter steps run after its charge is checked, so no step leaves
        a belief later than t = 0 (the time-0 roots step from the prior)."""
        import nested_dp.beliefs as beliefs_mod
        import nested_dp.decoupled as dec_mod

        times = []

        def recorded(real, at):
            def step(*args):
                times.append(args[at].t)
                return real(*args)
            return step

        monkeypatch.setattr(beliefs_mod, "belief1_step", recorded(beliefs_mod.belief1_step, 2))
        monkeypatch.setattr(dec_mod, "theta1_step", recorded(dec_mod.theta1_step, 1))
        monkeypatch.setattr(dec_mod, "theta2_step", recorded(dec_mod.theta2_step, 2))
        with pytest.raises(ResourceLimitExceeded):
            solve(1)
        assert 0 in times
        assert max(times) <= 0


class TestNoRecursionWall:
    """`MemoArgmin` runs on an explicit stack, so a solve goes deeper than
    Python's recursion limit: on `convergence_instance(0)` at d=0 the joint
    memo holds 2T + 2 nodes, here at T=3000, three times the default
    limit, and a cap that trips half way down still fails with the
    located message."""

    T = 3000

    @pytest.fixture(scope="class")
    def instance(self):
        model = convergence_instance(0, horizon=self.T)
        return model, build_delayed_structure(model, 0)

    def test_long_horizon_solves(self, instance):
        assert self.T > sys.getrecursionlimit()
        solution = solve_exact(*instance)
        assert len(solution.memo) == 2 * self.T + 2 == 6002
        assert solution.pairs_enumerated == 4 * len(solution.memo)

    def test_cap_below_the_node_count_fails_located(self, instance):
        with pytest.raises(ResourceLimitExceeded) as err:
            solve_exact(*instance, 6001)
        assert str(err.value) == (
            "prescription pairs passed the cap of 6001 at t=1500: 6004 counted, 4 of them at this node"
        )


class TestAlphaBound:
    def test_zero_radius_kills_everything(self):
        inputs = AlphaBoundInputs(Fraction(0), Fraction(5), (Fraction(3), Fraction(2), Fraction(0)), Fraction(7))
        assert alpha_bound(inputs, 1) == [Fraction(0)] * 3

    def test_single_stage_unrolling(self):
        inputs = AlphaBoundInputs(Fraction(1, 4), Fraction(1), (Fraction(0), Fraction(0)), Fraction(0))
        assert alpha_bound(inputs, 0) == [Fraction(1, 2), Fraction(0)]

    def test_terminal_sup_must_vanish(self):
        with pytest.raises(ValueError):
            AlphaBoundInputs(Fraction(1), Fraction(1), (Fraction(1), Fraction(1)), Fraction(0))

    def test_measured_bound_dominates_observed_gap(self):
        model = convergence_instance(1)
        info = build_delayed_structure(model, 1)
        psi2 = HashedPsi2(model, info, 7)
        joint = orc.build_joint(model)
        exact = solve_pbp_exact(model, info, psi2)
        for n in (1, 2, 4):
            approx = solve_pbp_approx(model, info, psi2, n)
            perf = orc.evaluate_strategy(joint, model, info, extract_pbp_strategy(approx))
            alpha0 = alpha_bound(make_alpha_inputs(approx), model.horizon)[0]
            assert perf - exact.value <= alpha0

    def test_executing_a_lattice_policy_keeps_its_bound(self):
        """A lattice policy's re-anchored chain can meet keys its solve did
        not reach.  Executing the policy solves them on the side: the memo
        and the bound inputs read off it are the same before and after, and
        the executed gap stays within that bound."""
        off_memo = 0
        for seed in range(6):
            model = convergence_instance(seed)
            joint = orc.build_joint(model)
            for d in (1, 2):
                info = build_delayed_structure(model, d)
                psi2 = HashedPsi2(model, info, 7)
                exact = solve_pbp_exact(model, info, psi2)
                for n in range(1, 6):
                    approx = solve_pbp_approx(model, info, psi2, n)
                    memo, inputs = list(approx.memo.items()), make_alpha_inputs(approx)
                    runner = extract_pbp_strategy(approx)
                    keys = []
                    rule = runner.action1
                    runner.action1 = lambda b1, a2real: keys.append((b1, a2real)) or rule(b1, a2real)
                    perf = orc.evaluate_strategy(joint, model, info, runner)
                    assert list(approx.memo.items()) == memo
                    assert make_alpha_inputs(approx) == inputs
                    assert perf - exact.value <= alpha_bound(inputs, model.horizon)[0]
                    off_memo += any(key not in approx.memo for key in keys)
        assert off_memo > 0

    def test_convergence_report_bounds_the_solved_memo(self):
        """`convergence_report` bounds each lattice policy after executing
        it, and its bound is the one of a fresh solve (seed 4, d = 1, n = 1
        meets keys off its memo)."""
        model = convergence_instance(4)
        info = build_delayed_structure(model, 1)
        psi2 = HashedPsi2(model, info, 7)
        report = convergence_report(model, info, psi2, (1, 2))
        for n in (1, 2):
            fresh = make_alpha_inputs(solve_pbp_approx(model, info, psi2, n))
            assert report["alpha0"][n] == alpha_bound(fresh, model.horizon)[0]

    def test_every_convergence_seed_has_bounded_loss(self):
        """What the approximation result gives, on seeds 0-5 (d = 1,
        `HashedPsi2(..., 7)`): every executed gap is >= 0 and within the
        loss bound alpha0 at its resolution, and it is 0 from the coverage
        resolution on.  Monotone gaps are not part of it: seeds 0 and 2
        have gap 0 at n = 1 and a positive gap at n = 2."""
        resolutions = (1, 2, 4, 8, 16)
        rising = []
        for seed in range(6):
            model = convergence_instance(seed)
            info = build_delayed_structure(model, 1)
            report = convergence_report(model, info, HashedPsi2(model, info, 7), resolutions)
            gaps, alpha0 = report["gaps"], report["alpha0"]
            assert report["coverage_n"] == 4
            assert all(0 <= gaps[n] <= alpha0[n] for n in resolutions)
            assert all(gaps[n] == 0 for n in resolutions if n >= report["coverage_n"])
            if gaps[1] < gaps[2]:
                rising.append(seed)
        assert rising == [0, 2]

    def test_sup_norms_read_absolute_values(self):
        """Costs of either sign: the bound's sup-norms are max |c| and, per
        stage, max |v| over the solved table, not max(0, max c)."""
        base = convergence_instance(0)
        negated = tuple(
            tuple(tuple(tuple(-c for c in row) for row in x_rows) for x_rows in stage)
            for stage in base.cost_table
        )
        model = replace(base, cost_table=negated)
        info = build_delayed_structure(model, 1)
        psi2 = HashedPsi2(model, info, 7)
        costs = [abs(c) for stage in negated for x_rows in stage for row in x_rows for c in row]
        assert model.max_cost() == max(costs) > 0
        joint = orc.build_joint(model)
        exact = solve_pbp_exact(model, info, psi2)
        for n in (1, 2, 4):
            approx = solve_pbp_approx(model, info, psi2, n)
            inputs = make_alpha_inputs(approx)
            assert inputs.cost_sup == max(costs)
            sups = [
                max(abs(v) for (b1, _), (v, _) in approx.memo.items() if b1.t == t)
                for t in range(model.horizon + 1)
            ]
            assert list(inputs.value_sups) == sups + [0]
            assert any(v < 0 for v, _ in approx.memo.values())
            perf = orc.evaluate_strategy(joint, model, info, extract_pbp_strategy(approx))
            assert perf - exact.value <= alpha_bound(inputs, model.horizon)[0]
