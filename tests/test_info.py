import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nested_dp.generators import certification_instance, convergence_instance
from nested_dp.info import (
    InfoStructure,
    VarRef,
    _canon,
    _derive,
    build_delayed_structure,
    check_nestedness,
    enumerate_private,
    enumerate_realizations,
    extend_a2,
    info_from_json,
    info_to_json,
    merge_realization,
    step_plan,
)


def model_with_horizon(T):
    return certification_instance(0, horizon=T)


def windowed_structure(T, d):
    """The d-delay structure from each memory's window: agent 1 holds its
    own values and agent 2's d steps late, agent 2 its own, the shared set
    agent 2's d steps late, actions one step late at least; the private
    sets and increments are `_derive`'s set differences."""

    def a2_at(t):
        ys = [VarRef(s, "Y2") for s in range(t - d + 1)]
        return _canon(ys + [VarRef(s, "U2") for s in range(min(t - d, t - 1) + 1)])

    def m2_at(t):
        return _canon([VarRef(s, "Y2") for s in range(t + 1)] + [VarRef(s, "U2") for s in range(t)])

    def m1_at(t):
        ys = [VarRef(s, "Y1") for s in range(t + 1)]
        return _canon(ys + [VarRef(s, "U1") for s in range(t)] + list(a2_at(t)))

    ts = range(T + 1)
    return _derive(T, d, [m1_at(t) for t in ts], [m2_at(t) for t in ts], [a2_at(t) for t in ts])


class TestDelayedFamily:
    def test_one_step_delay_private_and_increment(self):
        model = model_with_horizon(3)
        info = build_delayed_structure(model, 1)
        assert info.l2[3] == (VarRef(3, "Y2"),)
        assert info.z2[3] == (VarRef(2, "Y2"), VarRef(2, "U2"))

    def test_zero_delay_leaves_nothing_private(self):
        model = model_with_horizon(3)
        info = build_delayed_structure(model, 0)
        assert all(info.l2[t] == () for t in range(4))
        # current observation and previous action are shared immediately
        assert VarRef(2, "Y2") in info.a2[2]
        assert VarRef(1, "U2") in info.a2[2]

    def test_two_step_delay_at_small_time(self):
        model = model_with_horizon(3)
        info = build_delayed_structure(model, 2)
        assert info.a2[1] == ()
        assert set(info.l2[1]) == {VarRef(0, "Y2"), VarRef(1, "Y2"), VarRef(0, "U2")}

    def test_never_share_inside_horizon(self):
        model = model_with_horizon(2)
        info = build_delayed_structure(model, 3)
        assert all(info.a2[t] == () for t in range(3))

    def test_delay_out_of_range(self):
        model = model_with_horizon(2)
        with pytest.raises(ValueError):
            build_delayed_structure(model, 4)
        with pytest.raises(ValueError):
            build_delayed_structure(model, -1)

    @pytest.mark.parametrize("T", range(7))
    def test_equals_the_set_differences_of_its_windows(self, T):
        """The closed form, memories sliced off one ordered tuple and
        increments read off the newest values, equals the structure
        `_derive` takes from the windowed memories, at every delay."""
        model = model_with_horizon(T)
        for d in range(T + 2):
            info = build_delayed_structure(model, d)
            assert info == windowed_structure(T, d)
            assert check_nestedness(info) == []


class TestNestedness:
    @given(st.integers(0, 3), st.integers(0, 4))
    def test_delayed_structures_always_pass(self, T, d):
        model = model_with_horizon(T)
        if d > T + 1:
            return
        info = build_delayed_structure(model, d)
        assert check_nestedness(info) == []

    def test_delayed_structures_pass_at_a_long_horizon(self):
        model = model_with_horizon(50)
        for d in range(model.horizon + 2):
            assert check_nestedness(build_delayed_structure(model, d)) == []

    def test_privacy_violation_detected(self):
        model = model_with_horizon(1)
        info = build_delayed_structure(model, 1)
        # leak a private variable into agent 1's memory
        m1 = list(info.m1)
        m1[1] = tuple(sorted(set(m1[1]) | {VarRef(1, "Y2")}, key=lambda v: (v.s, v.kind)))
        broken = InfoStructure(info.horizon, None, tuple(m1), info.m2, info.a2, info.l2, info.z1, info.z2)
        assert any(v.rule == "privacy" for v in check_nestedness(broken))

    def test_accessible_recall_violation_detected(self):
        model = model_with_horizon(1)
        info = build_delayed_structure(model, 0)
        a2 = list(info.a2)
        a2[1] = tuple(v for v in a2[1] if v != VarRef(0, "Y2"))  # forget a shared var
        broken = InfoStructure(info.horizon, None, info.m1, info.m2, tuple(a2), info.l2, info.z1, info.z2)
        assert any(v.rule == "recall" for v in check_nestedness(broken))

    def test_set_identities(self):
        model = model_with_horizon(3)
        for d in range(0, 5):
            info = build_delayed_structure(model, d)
            for t in range(4):
                assert set(info.l2[t]) | set(info.a2[t]) == set(info.m2[t])
                assert set(info.l2[t]) & set(info.a2[t]) == set()


class TestEnumeratePrivate:
    def test_one_step_delay_counts(self):
        model = model_with_horizon(2)
        info = build_delayed_structure(model, 1)
        assert len(enumerate_private(info, model, 1)) == 2

    def test_zero_delay_single_empty_tuple(self):
        model = model_with_horizon(2)
        info = build_delayed_structure(model, 0)
        assert enumerate_private(info, model, 2) == [()]

    def test_two_step_delay_product(self):
        model = model_with_horizon(2)
        info = build_delayed_structure(model, 2)
        # private composition at t=2: two observations and one action
        assert len(enumerate_private(info, model, 2)) == 8

    @given(st.integers(0, 3), st.integers(0, 3))
    def test_count_is_product_of_ranges(self, T, d):
        model = model_with_horizon(T)
        if d > T + 1:
            return
        info = build_delayed_structure(model, d)
        for t in range(T + 1):
            expected = 1
            for var in info.l2[t]:
                expected *= info.var_space_size(model, var)
            assert len(enumerate_private(info, model, t)) == expected


class TestUnsupportedStructures:
    def test_explicit_structure_solves_like_its_delayed_twin(self):
        """An explicit declaration equal to the delayed family drives the
        full solver to the identical value."""
        from nested_dp.solver import solve_exact

        model = model_with_horizon(1)
        delayed = build_delayed_structure(model, 1)
        explicit = info_from_json(
            model,
            {
                "kind": "explicit",
                "m1": [[[v.s, v.kind] for v in comp] for comp in delayed.m1],
                "m2": [[[v.s, v.kind] for v in comp] for comp in delayed.m2],
                "a2": [[[v.s, v.kind] for v in comp] for comp in delayed.a2],
            },
        )
        assert solve_exact(model, explicit).value == solve_exact(model, delayed).value

    def test_stale_new_information_is_rejected(self):
        """A structure whose newly shared data was never held privately
        cannot be propagated: the step context has no source for it."""
        from nested_dp.beliefs import Prescription, initial_belief1_roots, belief1_step
        from nested_dp.errors import UnsupportedStructure

        model = model_with_horizon(2)
        info = build_delayed_structure(model, 1)
        # claim an old observation arrives as t=2 news: the t=1 -> 2 step
        # has no source for it (not fresh, not in the private window)
        z1 = list(info.z1)
        z1[2] = tuple(sorted(set(z1[2]) | {VarRef(0, "Y1")}, key=lambda v: (v.s, v.kind)))
        broken = InfoStructure(info.horizon, None, info.m1, info.m2, info.a2, info.l2, tuple(z1), info.z2)
        b1 = next(iter(initial_belief1_roots(model, broken).values()))[1]
        gamma0 = Prescription.for_agent2(0, {ell: 0 for ell in enumerate_private(broken, model, 0)})
        step0 = belief1_step(model, broken, b1, 0, gamma0)  # t=0 -> 1 still fine
        _, b1_at_1 = next(iter(step0.values()))
        gamma1 = Prescription.for_agent2(1, {ell: 0 for ell in enumerate_private(broken, model, 1)})
        with pytest.raises(UnsupportedStructure):
            belief1_step(model, broken, b1_at_1, 0, gamma1)


def split_delay_structure(model):
    """Agent 2's observations reach agent 1 two steps late, its actions one
    step late."""
    m1, m2, a2 = [], [], []
    for t in range(model.horizon + 1):
        shared = [[s, "Y2"] for s in range(t - 1)] + [[s, "U2"] for s in range(t)]
        a2.append(shared)
        m2.append([[s, "Y2"] for s in range(t + 1)] + [[s, "U2"] for s in range(t)])
        m1.append([[s, "Y1"] for s in range(t + 1)] + [[s, "U1"] for s in range(t)] + shared)
    return info_from_json(model, {"kind": "explicit", "m1": m1, "m2": m2, "a2": a2})


def delay_pair_structure(model, dy, du):
    """The explicit structure where agent 2's observations reach agent 1 dy
    >= 0 steps late and its actions du >= 1 steps late; every such pair is
    nested, and split-delay is dy=2, du=1."""
    m1, m2, a2 = [], [], []
    for t in range(model.horizon + 1):
        shared = [[s, "Y2"] for s in range(t - dy + 1)] + [[s, "U2"] for s in range(t - du + 1)]
        a2.append(shared)
        m2.append([[s, "Y2"] for s in range(t + 1)] + [[s, "U2"] for s in range(t)])
        m1.append([[s, "Y1"] for s in range(t + 1)] + [[s, "U1"] for s in range(t)] + shared)
    return info_from_json(model, {"kind": "explicit", "m1": m1, "m2": m2, "a2": a2})


def slot_readers(info, plan):
    """(composition, reader) of each reader of the step's slot tuple."""
    t = plan.t
    return ((info.z1[t + 1], plan.read_z1), (info.z2[t + 1], plan.read_z2), (info.l2[t + 1], plan.read_l2))


def assert_readers_match(model, info):
    """Every named reader of the plans at t = -1..T-1 equals
    `merge_realization` on every realization of its sources."""
    assert info.z2[0] == info.a2[0]  # so read_z2 at t = -1 reads a2[0]
    for t in range(-1, info.horizon):
        plan = step_plan(info, t)
        private, shared = (info.l2[t], info.a2[t]) if t >= 0 else ((), ())
        fresh_vars = (VarRef(t + 1, "Y1"), VarRef(t + 1, "Y2"))
        if t >= 0:
            fresh_vars += (VarRef(t, "U1"), VarRef(t, "U2"))
        fresh_reals = enumerate_realizations(info, model, fresh_vars)
        for ell in enumerate_realizations(info, model, private):
            for fresh in fresh_reals:
                sources = {private: ell, fresh_vars: fresh}
                for vars, read in slot_readers(info, plan):
                    assert read(ell + fresh) == merge_realization(vars, sources)
        z1, z2 = info.z1[t + 1], info.z2[t + 1]
        for z1real in enumerate_realizations(info, model, z1):
            assert plan.z2_of(z1real) == merge_realization(z2, {z1: z1real})
        for a2real in enumerate_realizations(info, model, shared):
            for z2real in enumerate_realizations(info, model, z2):
                expected = merge_realization(info.a2[t + 1], {shared: a2real, z2: z2real})
                assert plan.extend_a2(a2real + z2real) == expected


def test_identity_sweep_on_split_delay_structure():
    """Recursive beliefs and costs against direct conditioning on a
    structure whose private data persist across stages.  Replaying agent
    1's actions off its memory leaves gamma1's domain here, so the sweep
    conditions with agent 2 alone following the decoration."""
    from nested_dp.certify import certify_belief_and_cost_identities

    model = certification_instance(0, horizon=2)
    report = certify_belief_and_cost_identities(model, split_delay_structure(model))
    assert report["ok"], report["failures"]
    assert report["belief1_checks"] > 0 and report["belief2_checks"] > 0


def test_identity_sweep_shares_one_belief_chain(monkeypatch):
    """The agent-1 chains, every tree node's runner and the shared walk step
    through the sweep's one cache: one step from the prior (the time-0
    roots), one agent-1 step per distinct cache key."""
    import nested_dp.beliefs as beliefs_mod
    from nested_dp.certify import certify_belief_and_cost_identities

    steps = []
    real_step = beliefs_mod.belief1_step

    def counting_step(model, info, b1, u1, gamma2):
        steps.append((b1, u1, tuple(gamma2(ell) for ell in b1.private_support())))
        return real_step(model, info, b1, u1, gamma2)

    monkeypatch.setattr(beliefs_mod, "belief1_step", counting_step)
    model = model_with_horizon(2)
    report = certify_belief_and_cost_identities(model, build_delayed_structure(model, 1))
    assert report == {
        "ok": True,
        "belief1_checks": 328,
        "cost1_checks": 656,
        "belief2_checks": 385,
        "cost2_checks": 3952,
        "marginal_checks": 385,
        "failures": [],
    }
    assert len([b1 for b1, _, _ in steps if b1.t == -1]) == 1
    assert steps and len(steps) == len(set(steps))


def test_identity_sweep_replays_only_the_parents_draws(monkeypatch):
    """A node replays only the draws consistent with its parent, and finds
    exactly the draws a replay of the whole joint finds: a child's
    decoration adds actions at t only, and a2 only grows."""
    import nested_dp.certify as certify_mod
    from nested_dp import oracle as orc

    model = model_with_horizon(2)
    info = build_delayed_structure(model, 1)
    joint = orc.build_joint(model)
    real = certify_mod._consistent_draws
    replayed = []

    def checked(model, info, entries, runner, t, a2real):
        out = real(model, info, entries, runner, t, a2real)
        full = real(model, info, joint.entries, runner, t, a2real)
        assert [(omega, p) for omega, p, _ in out] == [(omega, p) for omega, p, _ in full]
        replayed.append(len(entries))
        return out

    monkeypatch.setattr(certify_mod, "_consistent_draws", checked)
    report = certify_mod.certify_belief_and_cost_identities(model, info)
    assert report["ok"], report["failures"]
    assert sum(replayed) < len(replayed) * len(joint)


class TestCompiledPlans:
    """The compiled index plans agree with symbolic merging on every input."""

    T = 2

    def structures(self):
        model = model_with_horizon(self.T)
        infos = [build_delayed_structure(model, d) for d in range(self.T + 2)]
        infos.append(split_delay_structure(model))
        assert all(check_nestedness(info) == [] for info in infos)
        return model, infos

    def test_step_plans_match_merge_realization(self):
        model, infos = self.structures()
        for info in infos:
            for t in range(self.T):
                plan = step_plan(info, t)
                assert step_plan(info, t) is plan
                fresh_vars = (VarRef(t + 1, "Y1"), VarRef(t + 1, "Y2"), VarRef(t, "U1"), VarRef(t, "U2"))
                fresh_reals = enumerate_realizations(info, model, fresh_vars)
                for ell in enumerate_private(info, model, t):
                    for fresh in fresh_reals:
                        sources = {info.l2[t]: ell, fresh_vars: fresh}
                        for vars, read in slot_readers(info, plan):
                            assert read(ell + fresh) == merge_realization(vars, sources)

    def test_time_zero_plan_matches_merge_realization(self):
        model, infos = self.structures()
        fresh_vars = (VarRef(0, "Y1"), VarRef(0, "Y2"))
        for info in infos:
            plan = step_plan(info, -1)
            for fresh in enumerate_realizations(info, model, fresh_vars):
                for vars, read in ((info.z1[0], plan.read_z1), (info.a2[0], plan.read_z2), (info.l2[0], plan.read_l2)):
                    assert read(fresh) == merge_realization(vars, {fresh_vars: fresh})

    def test_extend_a2_matches_merge_realization(self):
        model, infos = self.structures()
        for info in infos:
            for t in range(self.T):
                for a2real in enumerate_realizations(info, model, info.a2[t]):
                    for z2real in enumerate_realizations(info, model, info.z2[t + 1]):
                        expected = merge_realization(
                            info.a2[t + 1], {info.a2[t]: a2real, info.z2[t + 1]: z2real}
                        )
                        assert extend_a2(info, t, a2real, z2real) == expected

    def test_every_reader_matches_merge_realization(self):
        model, infos = self.structures()
        for info in infos:
            assert_readers_match(model, info)

    @given(st.integers(0, 3), st.integers(0, 5), st.integers(1, 5))
    def test_explicit_delay_pairs_are_nested_and_read_alike(self, T, dy, du):
        model = model_with_horizon(T)
        info = delay_pair_structure(model, dy, du)
        assert check_nestedness(info) == []
        assert_readers_match(model, info)

    def test_split_delay_is_a_delay_pair(self):
        model = model_with_horizon(3)
        assert delay_pair_structure(model, 2, 1) == split_delay_structure(model)

    def test_warm_extend_a2_hashes_no_variable(self, monkeypatch):
        """A warm `extend_a2` finds its reader by t alone: at t = T-1 of a
        T=1000 structure it hashes none of the 2,000 variables of a2[t]."""
        model = convergence_instance(0, horizon=1000)
        info = build_delayed_structure(model, 0)
        t = model.horizon - 1
        a2real, z2real = (0,) * len(info.a2[t]), (0,) * len(info.z2[t + 1])
        expected = extend_a2(info, t, a2real, z2real)
        assert len(expected) == len(info.a2[t + 1])
        calls = []
        real_hash = VarRef.__hash__

        def counting_hash(var):
            calls.append(var)
            return real_hash(var)

        monkeypatch.setattr(VarRef, "__hash__", counting_hash)
        hash(VarRef(0, "Y1"))
        assert len(calls) == 1  # the counter sees every hash
        calls.clear()
        assert extend_a2(info, t, a2real, z2real) == expected
        assert calls == []

    def test_action_at_time_zero_is_rejected(self):
        from nested_dp.beliefs import initial_belief1_roots
        from nested_dp.errors import UnsupportedStructure

        model = model_with_horizon(1)
        delayed = build_delayed_structure(model, 1)
        m1 = [[[v.s, v.kind] for v in comp] for comp in delayed.m1]
        m1[0].append([0, "U1"])
        explicit = info_from_json(
            model,
            {
                "kind": "explicit",
                "m1": m1,
                "m2": [[[v.s, v.kind] for v in comp] for comp in delayed.m2],
                "a2": [[[v.s, v.kind] for v in comp] for comp in delayed.a2],
            },
        )
        assert VarRef(0, "U1") in explicit.z1[0]
        with pytest.raises(UnsupportedStructure):
            initial_belief1_roots(model, explicit)


class TestInfoJson:
    def test_delayed_round_trip(self):
        model = model_with_horizon(2)
        info = build_delayed_structure(model, 1)
        assert info_from_json(model, info_to_json(info)) == info

    def test_explicit_round_trip_and_check(self):
        model = model_with_horizon(2)
        info = build_delayed_structure(model, 1)
        doc = info_to_json(info)
        explicit = {
            "kind": "explicit",
            "m1": [[[v.s, v.kind] for v in comp] for comp in info.m1],
            "m2": [[[v.s, v.kind] for v in comp] for comp in info.m2],
            "a2": [[[v.s, v.kind] for v in comp] for comp in info.a2],
        }
        rebuilt = info_from_json(model, explicit)
        assert rebuilt.m1 == info.m1 and rebuilt.l2 == info.l2 and rebuilt.z2 == info.z2
        assert check_nestedness(rebuilt) == []
        assert doc == {"kind": "delayed", "d": 1}
        assert info_to_json(rebuilt) == explicit
        split = split_delay_structure(model)
        assert info_from_json(model, json.loads(json.dumps(info_to_json(split)))) == split
