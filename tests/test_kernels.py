"""Differential tests of the integer Bayes kernels.

The reference here is the Fraction accumulator the integer kernels
replaced: every joint weight a product of Fractions, summed per (observed
key, support point), normalized by Fraction division and made canonical by
`from_weights`.  The four kernels -- `belief1_step`, `belief2_step` and
`decoupled`'s `theta1_step` and `theta2_step` -- and their time-0 steps
from the prior at t = -1 (`initial_belief1_roots`, `StepCache.roots2` and
the two `initial_theta*_roots`) must return equal branches, in equal
order, with Fraction probabilities and entries, on every input below.  A
reference solve built from these kernels, `expected_cost2` and
`ref_argmin` -- the Fraction argmin that `MemoArgmin`'s integer loop
replaced -- checks the solver's integer stage-cost tables and its
action-tuple scan the same way, and a solve whose nodes' shared-step tables
each take a fresh `StepCache` and intern nothing checks the solve-scope
interning of posteriors.  `MemoArgmin` itself is checked against
`ref_argmin` on random candidate DAGs.  The person-by-person and decoupled
solves, which score integer candidates, are checked against `ref_argmin`
over the Fraction candidates they replaced: `expected_cost1` or the
filters' Fraction cost sum, Fraction branch probabilities, beliefs snapped
through `lattice.nearest_point`, and filter steps taken afresh at every
node.  `ref_lipschitz`, the pairwise Fraction loop, checks the integer
`measured_lipschitz`.  `ref_world_cell` sums a step's draws in Fractions
and checks each cell of `TeamModel.world_kernel`, on `pooling_model`, whose
distinct draws lead to equal outcomes.  Beliefs built from Fractions must
equal and hash-equal the reduced integer forms the kernels build, and sort
as their Fraction entries do.
"""

import random
from collections import defaultdict
from types import SimpleNamespace
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nested_dp import decoupled as dec_mod
from nested_dp import lattice as lat
from nested_dp import solver as solver_mod
from nested_dp.beliefs import (
    _NULL2,
    Belief1,
    Belief2,
    MarginalBelief,
    Prescription,
    StepCache,
    _belief2_order,
    _branches,
    _posterior,
    _prior1,
    belief1_from_vector,
    belief1_step,
    belief1_vector,
    belief2_step,
    expected_cost1,
    expected_cost2,
    initial_belief1_roots,
)
from nested_dp.errors import ResourceLimitExceeded
from nested_dp.generators import certification_instance, convergence_instance, decoupled_instance
from nested_dp.info import build_delayed_structure, enumerate_private, extend_a2, merge_picker, step_plan
from nested_dp.model import Dist, FiniteSpace
from nested_dp.sim import _plan_entry
from nested_dp.solver import (
    HashedPsi2,
    MemoArgmin,
    PbpSolution,
    all_agent1_prescriptions,
    all_agent2_prescriptions,
    solve_exact,
    solve_pbp_approx,
    solve_pbp_exact,
)
from test_info import split_delay_structure

# ---------------------------------------------------------------------------
# The Fraction reference.
# ---------------------------------------------------------------------------


def ref_joint():
    return defaultdict(lambda: defaultdict(Fraction))


def ref_branches(acc, make):
    out = {}
    for key in sorted(acc):
        weights = acc[key]
        total = sum(weights.values())
        out[key] = (total, make({k: w / total for k, w in weights.items()}))
    return out


def ref_initial_belief1_roots(model, info):
    plan = step_plan(info, -1)
    z1_of = plan.picker(info.z1[0])
    ell_of = plan.picker(info.l2[0])
    acc = ref_joint()
    for x0, px in model.x0_dist.items():
        for v1, pv1 in model.v_dist(1, 0).items():
            y1 = model.h(1, 0, x0, v1)
            for v2, pv2 in model.v_dist(2, 0).items():
                slots = (y1, model.h(2, 0, x0, v2))
                acc[z1_of(slots)][(x0, ell_of(slots))] += px * pv1 * pv2
    return ref_branches(acc, partial(Belief1.from_weights, 0))


def ref_belief1_step(model, info, b1, u1, gamma2):
    t = b1.t
    plan = step_plan(info, t)
    z1_of = plan.picker(info.z1[t + 1])
    ell_next_of = plan.picker(info.l2[t + 1])
    acc = ref_joint()
    for (x, ell), p in b1.items():
        u2 = gamma2(ell)
        for w, pw in model.w_dist(t).items():
            x_next = model.f(t, x, u1, u2, w)
            for v1, pv1 in model.v_dist(1, t + 1).items():
                y1_next = model.h(1, t + 1, x_next, v1)
                for v2, pv2 in model.v_dist(2, t + 1).items():
                    slots = ell + (y1_next, model.h(2, t + 1, x_next, v2), u1, u2)
                    acc[z1_of(slots)][(x_next, ell_next_of(slots))] += p * pw * pv1 * pv2
    return ref_branches(acc, partial(Belief1.from_weights, t + 1))


def ref_mixture(b2):
    out = {}
    for (_, _, b1), w in b2.entries:
        out[b1] = out.get(b1, Fraction(0)) + w
    return out


def ref_mixture_branches(t, parts, key_of):
    acc = ref_joint()
    for w, branches in parts:
        for z1, (q, b1) in branches.items():
            weights = acc[key_of(z1)]
            for (x, ell), p in b1.items():
                weights[(x, ell, b1)] += w * q * p
    return ref_branches(acc, partial(Belief2.from_weights, t))


def ref_initial_belief2_roots(model, info):
    a2_of = merge_picker(info, info.a2[0], info.z1[0])
    return ref_mixture_branches(0, [(1, ref_initial_belief1_roots(model, info))], a2_of)


def ref_belief2_step(model, info, b2, gamma1, gamma2):
    t = b2.t
    z2_of = merge_picker(info, info.z2[t + 1], info.z1[t + 1])
    parts = (
        (w, ref_belief1_step(model, info, b1, gamma1(b1), gamma2)) for b1, w in ref_mixture(b2).items()
    )
    return ref_mixture_branches(t + 1, parts, z2_of)


def ref_initial_theta1_roots(dec):
    acc = ref_joint()
    for x1, px in dec.x1_dist.items():
        for v1, pv in dec.v1_dists[0].items():
            acc[dec.obs1[0][x1][v1]][x1] += px * pv
    return ref_branches(acc, partial(MarginalBelief.from_weights, 1, 0))


def ref_initial_theta2_roots(dec, info):
    plan = step_plan(info, -1)
    a2_of = plan.picker(info.a2[0])
    ell_of = plan.picker(info.l2[0])
    acc = ref_joint()
    for x2, px in dec.x2_dist.items():
        for v2, pv in dec.v2_dists[0].items():
            slots = (-1, dec.obs2[0][x2][v2])
            acc[a2_of(slots)][(x2, ell_of(slots))] += px * pv
    return ref_branches(acc, partial(MarginalBelief.from_weights, 2, 0))


def ref_theta1_step(dec, theta, u1):
    t = theta.t
    acc = ref_joint()
    for x1, p in theta.items():
        for w1, pw in dec.w1_dists[t].items():
            x1n = dec.f1[t][x1][u1][w1]
            for v1, pv in dec.v1_dists[t + 1].items():
                acc[dec.obs1[t + 1][x1n][v1]][x1n] += p * pw * pv
    return ref_branches(acc, partial(MarginalBelief.from_weights, 1, t + 1))


def ref_theta2_step(dec, info, theta, gamma2):
    t = theta.t
    plan = step_plan(info, t)
    z2_of = plan.picker(info.z2[t + 1])
    ell_next_of = plan.picker(info.l2[t + 1])
    acc = ref_joint()
    for (x2, ell), p in theta.items():
        u2 = gamma2(ell)
        for w2, pw in dec.w2_dists[t].items():
            x2n = dec.f2[t][x2][u2][w2]
            for v2, pv in dec.v2_dists[t + 1].items():
                slots = ell + (-1, dec.obs2[t + 1][x2n][v2], -1, u2)
                acc[z2_of(slots)][(x2n, ell_next_of(slots))] += p * pw * pv
    return ref_branches(acc, partial(MarginalBelief.from_weights, 2, t + 1))


class ref_argmin:
    """The Fraction argmin that `MemoArgmin` replaced, kept as its
    reference.  `expand(node)` returns (t, charge, candidates), each
    candidate (decision tuple, Fraction cost, (Fraction weight, successor)
    pairs); a candidate's value is its cost plus each weight times its
    successor's value, accumulated in Fractions, and the first minimizer is
    stored as memo[key(node)] = (value, *decision)."""

    def __init__(self, memo, cap, unit, expand, key=None):
        self.memo = memo
        self.cap = cap
        self.unit = unit
        self.expand = expand
        self.key = key
        self.spent = 0

    def value(self, node):
        key = node if self.key is None else self.key(node)
        hit = self.memo.get(key)
        if hit is not None:
            return hit[0]
        t, charge, candidates = self.expand(node)
        self.spent += charge
        if self.spent > self.cap:
            raise ResourceLimitExceeded(
                f"{self.unit} passed the cap of {self.cap} at t={t}: "
                f"{self.spent} counted, {charge} of them at this node",
                estimate=self.spent,
            )
        best = None
        for decision, v, successors in candidates:
            for p, nxt in successors:
                v += p * self.value(nxt)
            if best is None or v < best[0]:
                best = (v, *decision)
        self.memo[key] = best
        return best[0]


def reference_solve(model, info, budget=10**9):
    """`solve_exact` with the Fraction kernels, `expected_cost2` and
    `ref_argmin`: every prescription pair scored in full, with the same
    support restriction, enumeration order and budget charge, and no step
    cache.  Returns the
    value, the memo, the pairs charged and each expansion's (t, charge), in
    order."""
    T = model.horizon
    charges = []

    def expand(b2):
        t = b2.t
        points = sorted(ref_mixture(b2), key=Belief1.sort_key)
        support = {ell for (_, ell, _), _ in b2.items()}
        l2_reals = enumerate_private(info, model, t)
        live = [ell for ell in l2_reals if ell in support]
        n_u1 = model.action_space(1, t).size
        n_u2 = model.action_space(2, t).size
        charges.append((t, n_u1 ** len(points) * n_u2 ** len(live)))
        return t, charges[-1][1], (
            ((g1, g2), expected_cost2(model, b2, g1, g2),
             ref_belief2_step(model, info, b2, g1, g2).values() if t < T else ())
            for g1 in all_agent1_prescriptions(t, points, n_u1)
            for g2 in all_agent2_prescriptions(t, l2_reals, n_u2, live)
        )

    dp = ref_argmin({}, budget, "prescription pairs", expand)
    roots = ref_initial_belief2_roots(model, info)
    value = sum((p * dp.value(b2) for p, b2 in roots.values()), Fraction(0))
    return value, dp.memo, dp.spent, charges


def reference_pbp(model, info, psi2, resolution=None):
    """The person-by-person solve over Fraction candidates, scored by
    `ref_argmin`: each stage cost is `expected_cost1`, each successor
    weight an agent-1 step's Fraction branch probability, and each belief
    of a lattice solve is snapped through `lattice.nearest_point` of its
    vector, not through the solution's integer `snap`.  Returns the value
    and the memo."""
    T = model.horizon
    plists = {t: enumerate_private(info, model, t) for t in range(T + 1)}
    cache = StepCache()

    def snap(b1):
        if resolution is None:
            return b1
        plist = plists[b1.t]
        return belief1_from_vector(b1.t, plist, lat.nearest_point(belief1_vector(model, plist, b1), resolution))

    def expand(node):
        b1, a2real = node
        t = b1.t
        g2 = psi2.prescription(t, a2real)
        z2_of = step_plan(info, t).z2_of if t < T else None
        return t, 1, (
            ((u1,), expected_cost1(model, b1, u1, g2), (
                (p, (snap(b1n), extend_a2(info, t, a2real, z2_of(z1))))
                for z1, (p, b1n) in (cache.step1(model, info, b1, u1, g2).items() if t < T else ())
            ))
            for u1 in range(model.action_space(1, t).size)
        )

    dp = ref_argmin({}, 10**9, "value nodes", expand)
    a2_of = step_plan(info, -1).z2_of
    roots = cache.step1(model, info, _prior1(model), 0, _NULL2).items()
    value = sum((p * dp.value((snap(b1), a2_of(z1))) for z1, (p, b1) in roots), Fraction(0))
    return value, dp.memo


def ref_lipschitz(sol):
    """`PbpSolution.measured_lipschitz` as the pairwise Fraction loop it
    replaced: the largest |dV| / `lattice.tv_distance` over pairs of memo
    keys of one stage and accessible realization at positive distance,
    each belief as its `belief1_vector`."""
    groups = {}
    for (b1, a2real), (v, _) in sol.memo.items():
        vec = belief1_vector(sol.model, sol.private_lists[b1.t], b1)
        groups.setdefault((b1.t, a2real), []).append((vec, v))
    best = Fraction(0)
    for pairs in groups.values():
        for i, (p, vp) in enumerate(pairs):
            for q, vq in pairs[i + 1:]:
                dist = lat.tv_distance(p, q)
                if dist != 0 and abs(vp - vq) / dist > best:
                    best = abs(vp - vq) / dist
    return best


def reference_decoupled(dec, info, psi2, perfect_obs_1=False):
    """The decoupled solve over Fraction candidates, scored by
    `ref_argmin`: each stage cost a Fraction sum over both filters' entries,
    each successor weight a product of two Fraction branch probabilities,
    and both filter steps taken afresh at every node, with no per-solve
    cache.  Returns the value and the memo."""
    T = dec.horizon

    def point_key(node):
        theta1, theta2, a2real = node
        ((x1, _),) = theta1.items()
        return (theta1.t, x1, theta2, a2real)

    def expand(node):
        theta1, theta2, a2real = node
        t = theta1.t
        g2 = psi2.prescription(t, a2real)
        b2 = dec_mod.theta2_step(dec, info, theta2, g2).items() if t < T else ()

        def candidates():
            for u1 in range(dec.actions1[t].size):
                v = Fraction(0)
                for x1, p1 in theta1.items():
                    for (x2, ell), p2 in theta2.items():
                        v += p1 * p2 * dec.cost(t, x1, x2, u1, g2(ell))
                b1 = dec_mod.theta1_step(dec, theta1, u1).values() if t < T else ()
                yield (u1,), v, (
                    (p1 * p2, (th1n, th2n, extend_a2(info, t, a2real, z2real)))
                    for p1, th1n in b1
                    for z2real, (p2, th2n) in b2
                )

        return t, 1, candidates()

    dp = ref_argmin({}, 10**9, "value nodes", expand, point_key if perfect_obs_1 else None)
    total = Fraction(0)
    for p1, th1 in dec_mod.initial_theta1_roots(dec).values():
        for a2real, (p2, th2) in dec_mod.initial_theta2_roots(dec, info).items():
            total += p1 * p2 * dp.value((th1, th2, a2real))
    return total, dp.memo


# ---------------------------------------------------------------------------
# Comparison walks.
# ---------------------------------------------------------------------------


def assert_same_branches(ours, ref):
    assert list(ours) == list(ref)
    for key, (q, post) in ours.items():
        q_ref, post_ref = ref[key]
        assert type(q) is Fraction and q == q_ref
        assert post == post_ref
        assert all(type(w) is Fraction for _, w in post.entries)


def walk_team(model, info, rng, pairs_per_node=2, max_steps=None):
    """Compare the four team kernels at every node reached by a few random
    prescription pairs per node, stopping after `max_steps` shared steps
    when given.  Returns the number of shared steps compared."""
    assert_same_branches(initial_belief1_roots(model, info), ref_initial_belief1_roots(model, info))
    roots = StepCache().roots2(model, info)
    assert_same_branches(roots, ref_initial_belief2_roots(model, info))
    frontier = [b2 for _, b2 in roots.values()]
    steps = 0
    while frontier and steps != max_steps:
        b2 = frontier.pop()
        t = b2.t
        if t >= model.horizon:
            continue
        points = b2.belief1_support()
        l2_reals = enumerate_private(info, model, t)
        n_u1 = model.action_space(1, t).size
        n_u2 = model.action_space(2, t).size
        for _ in range(pairs_per_node):
            g1 = Prescription.for_agent1(t, {b1: rng.randrange(n_u1) for b1 in points})
            g2 = Prescription.for_agent2(t, {ell: rng.randrange(n_u2) for ell in l2_reals})
            for b1 in points:
                assert_same_branches(
                    belief1_step(model, info, b1, g1(b1), g2), ref_belief1_step(model, info, b1, g1(b1), g2)
                )
            branches = belief2_step(model, info, b2, g1, g2, StepCache())
            assert_same_branches(branches, ref_belief2_step(model, info, b2, g1, g2))
            frontier.extend(nxt for _, nxt in branches.values())
            steps += 1
    return steps


def walk_decoupled(dec, rng):
    """Compare the four theta kernels along every agent-1 action and one
    random agent-2 prescription per shared node."""
    emb = dec_mod.embed(dec)
    info = build_delayed_structure(emb, 1)
    roots1 = dec_mod.initial_theta1_roots(dec)
    assert_same_branches(roots1, ref_initial_theta1_roots(dec))
    roots2 = dec_mod.initial_theta2_roots(dec, info)
    assert_same_branches(roots2, ref_initial_theta2_roots(dec, info))
    T = dec.horizon
    frontier = [theta for _, theta in roots1.values()]
    while frontier:
        theta = frontier.pop()
        if theta.t >= T:
            continue
        for u1 in range(len(dec.f1[theta.t][0])):
            branches = dec_mod.theta1_step(dec, theta, u1)
            assert_same_branches(branches, ref_theta1_step(dec, theta, u1))
            frontier.extend(nxt for _, nxt in branches.values())
    frontier = [theta for _, theta in roots2.values()]
    while frontier:
        theta = frontier.pop()
        t = theta.t
        if t >= T:
            continue
        n_u2 = len(dec.f2[t][0])
        g2 = Prescription.for_agent2(t, {ell: rng.randrange(n_u2) for ell in enumerate_private(info, emb, t)})
        branches = dec_mod.theta2_step(dec, info, theta, g2)
        assert_same_branches(branches, ref_theta2_step(dec, info, theta, g2))
        frontier.extend(nxt for _, nxt in branches.values())


def odd_dist(rng, n):
    """Weights over odd, unequal denominators, with a zero outcome when n > 2."""
    nums = [rng.randrange(1, 8) for _ in range(n)]
    if n > 2:
        nums[rng.randrange(n)] = 0
    total = sum(nums)
    return Dist(tuple(Fraction(k, total) for k in nums))


def noisy_model(seed, horizon=2):
    """certification_instance with noisy observations of both agents at every
    time, primitive laws over odd denominators, and costs of mixed signs over
    non-unit denominators."""
    base = certification_instance(seed, horizon)
    rng = random.Random(f"noisy:{seed}")
    T, nx = horizon, 2
    stages = range(T + 1)
    return replace(
        base,
        noises1=tuple(FiniteSpace("V1", 2) for _ in stages),
        noises2=tuple(FiniteSpace("V2", 3) for _ in stages),
        obs1=tuple(tuple(tuple((x + v) % 2 for v in range(2)) for x in range(nx)) for _ in stages),
        obs2=tuple(tuple(tuple(x if v < 2 else 1 - x for v in range(3)) for x in range(nx)) for _ in stages),
        x0_dist=odd_dist(rng, nx),
        w_dists=tuple(odd_dist(rng, 3) for _ in range(T)),
        disturbances=tuple(FiniteSpace("W", 3) for _ in range(T)),
        transition=tuple(
            tuple(
                tuple(tuple(tuple((x + u1 * w + u2) % nx for w in range(3)) for u2 in range(2)) for u1 in range(2))
                for x in range(nx)
            )
            for _ in range(T)
        ),
        v1_dists=tuple(odd_dist(rng, 2) for _ in stages),
        v2_dists=tuple(odd_dist(rng, 3) for _ in stages),
        cost_table=tuple(
            tuple(
                tuple(
                    tuple(Fraction(rng.randrange(-9, 10), rng.choice((1, 3, 5, 6, 7))) for _ in range(2))
                    for _ in range(2)
                )
                for _ in range(nx)
            )
            for _ in stages
        ),
    )


def positive_dist(rng, n):
    """Weights over odd, unequal denominators, every outcome possible."""
    nums = [rng.randrange(1, 8) for _ in range(n)]
    total = sum(nums)
    return Dist(tuple(Fraction(k, total) for k in nums))


def pooling_model(seed, horizon=2):
    """noisy_model in which distinct draws (w, v1, v2) lead to the same
    (x', y1', y2') at every step, the step from the prior included: agent
    1's noise v1 takes three values and shows x for v1 < 2, agent 2's v2
    does the same (noisy_model's), and the disturbance w takes four values,
    w and w + 2 moving the state alike under every action pair.  Every
    outcome has positive weight, so `TeamModel.world_kernel` merges weights
    in every cell."""
    base = noisy_model(seed, horizon)
    rng = random.Random(f"pooling:{seed}")
    T, nx = horizon, 2
    stages = range(T + 1)
    return replace(
        base,
        noises1=tuple(FiniteSpace("V1", 3) for _ in stages),
        obs1=tuple(tuple(tuple(x if v < 2 else 1 - x for v in range(3)) for x in range(nx)) for _ in stages),
        v1_dists=tuple(positive_dist(rng, 3) for _ in stages),
        v2_dists=tuple(positive_dist(rng, 3) for _ in stages),
        disturbances=tuple(FiniteSpace("W", 4) for _ in range(T)),
        w_dists=tuple(positive_dist(rng, 4) for _ in range(T)),
        transition=tuple(
            tuple(
                tuple(tuple(tuple((x + u1 * (w % 2) + u2) % nx for w in range(4)) for u2 in range(2)) for u1 in range(2))
                for x in range(nx)
            )
            for _ in range(T)
        ),
    )


def ref_world_cell(model, t, x, u1, u2):
    """{(x', y1', y2'): probability} of the step t -> t+1 from x under (u1,
    u2), summed in Fractions over every draw (w, v1, v2); at t = -1 the state
    is kept."""
    moves = [(x, Fraction(1))] if t < 0 else [(model.f(t, x, u1, u2, w), p) for w, p in model.w_dist(t).items()]
    out = defaultdict(Fraction)
    for x_next, pw in moves:
        for v1, pv1 in model.v_dist(1, t + 1).items():
            for v2, pv2 in model.v_dist(2, t + 1).items():
                out[(x_next, model.h(1, t + 1, x_next, v1), model.h(2, t + 1, x_next, v2))] += pw * pv1 * pv2
    return dict(out)


def with_costs(model, kind, rng):
    """The model with its cost table kept ("original"), all zero ("zero"),
    or drawn from {-1, 0, 1} ("ties"): every pair ties in the second, and
    many pairs tie, at costs of both signs, in the third."""
    if kind == "original":
        return model
    draw = (lambda: Fraction(0)) if kind == "zero" else (lambda: Fraction(rng.randrange(-1, 2)))
    table = tuple(
        tuple(tuple(tuple(draw() for _ in row) for row in x_rows) for x_rows in stage) for stage in model.cost_table
    )
    return replace(model, cost_table=table)


def noisy_decoupled(seed, horizon=2, perfect_obs_1=False):
    """decoupled_instance with noisy observations of both chains at every
    time and primitive laws over odd denominators."""
    base = decoupled_instance(seed, horizon, perfect_obs_1)
    rng = random.Random(f"noisy-dec:{seed}")
    stages = range(horizon + 1)
    return replace(
        base,
        noises1=tuple(FiniteSpace("V1", 2) for _ in stages),
        noises2=tuple(FiniteSpace("V2", 3) for _ in stages),
        obs1=tuple(tuple(tuple((x + v) % 2 for v in range(2)) for x in range(2)) for _ in stages),
        obs2=tuple(tuple(tuple(x if v < 2 else 1 - x for v in range(3)) for x in range(2)) for _ in stages),
        x1_dist=odd_dist(rng, 2),
        x2_dist=odd_dist(rng, 2),
        w1_dists=tuple(odd_dist(rng, 2) for _ in range(horizon)),
        w2_dists=tuple(odd_dist(rng, 2) for _ in range(horizon)),
        v1_dists=tuple(odd_dist(rng, 2) for _ in stages),
        v2_dists=tuple(odd_dist(rng, 3) for _ in stages),
    )


# ---------------------------------------------------------------------------
# The tests.
# ---------------------------------------------------------------------------


class TestTeamKernels:
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("d", range(4))
    def test_certification_instances(self, seed, d):
        model = certification_instance(seed)
        assert walk_team(model, build_delayed_structure(model, d), random.Random(d)) > 0

    @pytest.mark.parametrize("seed", range(2))
    def test_split_delay_structure(self, seed):
        model = certification_instance(seed)
        assert walk_team(model, split_delay_structure(model), random.Random(seed)) > 0

    @pytest.mark.parametrize("d", [1, 2])
    def test_convergence_instance(self, d):
        model = convergence_instance(0)
        assert walk_team(model, build_delayed_structure(model, d), random.Random(d)) > 0

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_odd_denominators_and_full_noise(self, d):
        model = noisy_model(0)
        assert walk_team(model, build_delayed_structure(model, d), random.Random(d)) > 0

    @given(
        seed=st.integers(0, 10**6),
        horizon=st.integers(1, 2),
        d=st.integers(0, 3),
        noisy=st.booleans(),
        choices=st.integers(0, 2**32),
    )
    def test_sweep(self, seed, horizon, d, noisy, choices):
        model = (noisy_model if noisy else certification_instance)(seed, horizon)
        info = build_delayed_structure(model, min(d, horizon + 1))
        walk_team(model, info, random.Random(choices), pairs_per_node=1, max_steps=8)


class TestDecoupledKernels:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("perfect", [False, True])
    def test_decoupled_instance(self, seed, perfect):
        walk_decoupled(decoupled_instance(seed, horizon=3, perfect_obs_1=perfect), random.Random(seed))

    @pytest.mark.parametrize("perfect", [False, True])
    def test_odd_denominators_and_full_noise(self, perfect):
        walk_decoupled(noisy_decoupled(0, horizon=3, perfect_obs_1=perfect), random.Random(1))

    @given(
        seed=st.integers(0, 10**6),
        horizon=st.integers(1, 3),
        perfect=st.booleans(),
        noisy=st.booleans(),
        choices=st.integers(0, 2**32),
    )
    def test_sweep(self, seed, horizon, perfect, noisy, choices):
        dec = (noisy_decoupled if noisy else decoupled_instance)(seed, horizon, perfect)
        walk_decoupled(dec, random.Random(choices))


class TestPriorStep:
    """Time 0 is each kernel's step from the prior at t = -1.  The roots it
    gives equal the Fraction references at horizon 0, where no step out of
    t = 0 exists, and under an initial law with a zero weight."""

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("case", ["horizon 0", "zero weight"])
    def test_roots_equal_the_references(self, case, noisy):
        horizon = 0 if case == "horizon 0" else 2
        model = (noisy_model if noisy else certification_instance)(0, horizon)
        dec = (noisy_decoupled if noisy else decoupled_instance)(0, horizon)
        if case == "zero weight":
            model = replace(model, x0_dist=Dist((Fraction(0), Fraction(1))))
            dec = replace(dec, x1_dist=Dist((Fraction(1), Fraction(0))), x2_dist=Dist((Fraction(0), Fraction(1))))
        for d in range(horizon + 2):
            info = build_delayed_structure(model, d)
            assert_same_branches(initial_belief1_roots(model, info), ref_initial_belief1_roots(model, info))
            assert_same_branches(StepCache().roots2(model, info), ref_initial_belief2_roots(model, info))
            dec_info = build_delayed_structure(dec_mod.embed(dec), d)
            assert_same_branches(dec_mod.initial_theta1_roots(dec), ref_initial_theta1_roots(dec))
            assert_same_branches(dec_mod.initial_theta2_roots(dec, dec_info), ref_initial_theta2_roots(dec, dec_info))

    @pytest.mark.parametrize("d", range(4))
    def test_solve_roots_are_the_cache_roots(self, d, monkeypatch):
        """`solve_exact`'s roots equal `StepCache.roots2`, each posterior the
        solve cache's interned object, and the solve takes the prior's
        agent-1 step once."""
        import nested_dp.beliefs as beliefs_mod

        priors = []
        real_step = beliefs_mod.belief1_step

        def counting_step(model, info, b1, u1, gamma2):
            if b1.t == -1:
                priors.append(b1)
            return real_step(model, info, b1, u1, gamma2)

        monkeypatch.setattr(beliefs_mod, "belief1_step", counting_step)
        model = certification_instance(0)
        info = build_delayed_structure(model, d)
        solution = solve_exact(model, info)
        assert len(priors) == 1
        cache = StepCache()
        fresh = cache.roots2(model, info)
        assert len(priors) == 2
        assert list(solution.roots) == list(fresh) and solution.roots == fresh
        for roots, interned in ((solution.roots, solution.cache.beliefs2), (fresh, cache.beliefs2)):
            assert all(any(b2 is post for post in interned.values()) for _, b2 in roots.values())
        again = solution.cache.roots2(model, info)
        assert all(again[key][1] is b2 for key, (_, b2) in solution.roots.items())
        solution.cache.step1(model, info, _prior1(model), 0, _NULL2)
        assert len(priors) == 2


class TestStageCostTables:
    """`solve_exact` reads stage costs off integer tables; the reference
    reads them through `expected_cost2` over the Fraction kernels."""

    @pytest.mark.parametrize(
        "make, d",
        [
            (lambda: certification_instance(0), 1),
            (lambda: certification_instance(1), 3),
            (lambda: noisy_model(0), 1),
            (lambda: noisy_model(1), 0),
            (lambda: with_costs(certification_instance(0, 1), "zero", random.Random(3)), 2),
            (lambda: with_costs(certification_instance(0, 1), "ties", random.Random(3)), 2),
        ],
    )
    def test_memo_equals_reference_solve(self, make, d):
        model = make()
        info = build_delayed_structure(model, d)
        solution = solve_exact(model, info)
        value, memo, spent, _ = reference_solve(model, info)
        assert solution.value == value
        assert list(solution.memo.items()) == list(memo.items())
        assert solution.pairs_enumerated == spent

    def test_noisy_model_costs_have_mixed_signs_and_denominators(self):
        costs = [c for stage in noisy_model(0).cost_table for row in stage for r in row for c in r]
        assert min(costs) < 0 < max(costs)
        assert any(c.denominator > 1 for c in costs)


class TestActionTupleScan:
    """`solve_exact` scans action tuples over per-node integer tables, with
    a separable final stage; the reference scores every prescription pair
    through the Fraction kernels.  Values, memo rows in order, pair counts
    and budget messages must agree."""

    CAP = 1500  # pairs: keeps each reference solve under a second

    @given(
        seed=st.integers(0, 10**6),
        horizon=st.integers(1, 3),
        d=st.integers(0, 4),
        noisy=st.booleans(),
        costs=st.sampled_from(["original", "zero", "ties"]),
        pick=st.integers(0, 2**16),
    )
    def test_sweep(self, seed, horizon, d, noisy, costs, pick):
        model = (noisy_model if noisy else certification_instance)(seed, horizon)
        model = with_costs(model, costs, random.Random(seed))
        info = build_delayed_structure(model, min(d, horizon + 1))
        try:
            value, memo, spent, charges = reference_solve(model, info, self.CAP)
        except ResourceLimitExceeded as exc:
            self.assert_same_limit(model, info, self.CAP, str(exc))
            return
        solution = solve_exact(model, info, self.CAP)
        assert solution.value == value
        assert list(solution.memo.items()) == list(memo.items())
        assert solution.pairs_enumerated == spent
        # a cap one pair short of some final-stage node's charge trips inside it
        finals = [k for k, (t, _) in enumerate(charges) if t == horizon]
        k = finals[pick % len(finals)]
        cap = sum(charge for _, charge in charges[: k + 1]) - 1
        with pytest.raises(ResourceLimitExceeded) as ref_exc:
            reference_solve(model, info, cap)
        assert f" at t={horizon}: " in str(ref_exc.value)
        self.assert_same_limit(model, info, cap, str(ref_exc.value))

    @pytest.mark.parametrize(
        "make, d",
        [
            (lambda: certification_instance(0, 2), 1),
            (lambda: certification_instance(1, 2), 2),
            (lambda: noisy_model(0, 2), 1),
            (lambda: noisy_model(1, 2), 0),
        ],
    )
    def test_refused_node_builds_no_shared_step(self, make, d):
        """A cap one pair short of a non-final node's charge trips there
        before that node's `SharedStep` is built: every table built belongs
        to an earlier non-final node."""
        model = make()
        info = build_delayed_structure(model, d)
        _, _, _, charges = reference_solve(model, info)
        earlier = [k for k, (t, charge) in enumerate(charges) if t < model.horizon and charge]
        assert earlier
        for k in earlier:
            cap = sum(charge for _, charge in charges[: k + 1]) - 1
            built = []

            class Counted(solver_mod.SharedStep):
                def __init__(self, *args):
                    built.append(len(built))
                    super().__init__(*args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver_mod, "SharedStep", Counted)
                with pytest.raises(ResourceLimitExceeded) as exc:
                    solve_exact(model, info, cap)
            assert f" at t={charges[k][0]}: {cap + 1} counted" in str(exc.value)
            assert len(built) == sum(t < model.horizon for t, _ in charges[:k])

    @staticmethod
    def assert_same_limit(model, info, cap, message):
        with pytest.raises(ResourceLimitExceeded) as exc:
            solve_exact(model, info, cap)
        assert str(exc.value) == message


def random_dag(rng, costs):
    """A random candidate DAG for `MemoArgmin`: (roots, {node: (t, charge,
    scale, candidates)}), nodes in layers t = 0..depth, each candidate
    (decision, integer cost, [(integer weight, node one layer down)]).
    Costs are drawn from [-40, 40] ("mixed"), are all 0 ("zero"), or are
    drawn from {-1, 0, 1} ("ties"); weights from [0, 5], so some successors
    count for nothing, and a successor may repeat."""
    draw = {"mixed": lambda: rng.randint(-40, 40), "zero": lambda: 0, "ties": lambda: rng.randint(-1, 1)}[costs]
    depth = rng.randint(0, 4)
    layers, size = [], 0
    for _ in range(depth + 1):
        width = rng.randint(1, 4)
        layers.append(range(size, size + width))
        size += width
    nodes = {}
    for t, layer in enumerate(layers):
        for node in layer:
            candidates = [
                ((k,), draw(), [
                    (rng.randint(0, 5), rng.choice(layers[t + 1])) for _ in range(rng.randint(0, 3) if t < depth else 0)
                ])
                for k in range(rng.randint(1, 4))
            ]
            nodes[node] = (t, rng.randint(0, 3), rng.randint(1, 12), candidates)
    return list(layers[0]), nodes


def fraction_candidates(nodes, charges):
    """`ref_argmin`'s expand over a `random_dag`: each integer over the
    node's scale as a Fraction; every expansion's (t, charge) is appended to
    `charges`."""

    def expand(node):
        t, charge, scale, candidates = nodes[node]
        charges.append((t, charge))
        return t, charge, (
            (decision, Fraction(cost, scale), [(Fraction(w, scale), nxt) for w, nxt in successors])
            for decision, cost, successors in candidates
        )

    return expand


def integer_candidates(nodes, started):
    """`MemoArgmin`'s expand over a `random_dag`: each node's scale, then
    its candidates; each node whose iterator is advanced is appended to
    `started`."""

    def expand(node):
        t, charge, scale, candidates = nodes[node]

        def rows():
            started.append(node)
            yield scale
            yield from candidates

        return t, charge, rows()

    return expand


class TestMemoArgmin:
    """`MemoArgmin` scores candidates as integer ratios over a per-node
    scale; `ref_argmin`, the Fraction loop it replaced, must give equal
    values, memo rows in order, charges and budget messages."""

    @given(seed=st.integers(0, 2**32), costs=st.sampled_from(["mixed", "zero", "ties"]), pick=st.integers(0, 2**16))
    def test_sweep(self, seed, costs, pick):
        roots, nodes = random_dag(random.Random(seed), costs)
        charges = []
        ref = ref_argmin({}, 10**9, "value nodes", fraction_candidates(nodes, charges))
        ours = MemoArgmin({}, 10**9, "value nodes", integer_candidates(nodes, []))
        assert [ours.value(r) for r in roots] == [ref.value(r) for r in roots]
        assert list(ours.memo.items()) == list(ref.memo.items())
        assert all(type(v) is Fraction for v, _ in ours.memo.values())
        assert ours.spent == ref.spent
        # a cap one short of some charged expansion trips there
        charged = [k for k, (_, charge) in enumerate(charges) if charge]
        if not charged:
            return
        k = charged[pick % len(charged)]
        cap = sum(charge for _, charge in charges[: k + 1]) - 1
        with pytest.raises(ResourceLimitExceeded) as ref_exc:
            ref = ref_argmin({}, cap, "value nodes", fraction_candidates(nodes, []))
            for r in roots:
                ref.value(r)
        started = []
        with pytest.raises(ResourceLimitExceeded) as exc:
            ours = MemoArgmin({}, cap, "value nodes", integer_candidates(nodes, started))
            for r in roots:
                ours.value(r)
        assert str(exc.value) == str(ref_exc.value)
        assert f"at t={charges[k][0]}: {cap + 1} counted" in str(exc.value)
        # the refused node's candidates were never started
        assert len(started) == k

    @given(
        seed=st.integers(0, 10**6),
        horizon=st.integers(1, 2),
        d=st.integers(0, 3),
        noisy=st.booleans(),
        resolution=st.sampled_from([None, 1, 2, 3, 5]),
    )
    def test_pbp_memos(self, seed, horizon, d, noisy, resolution):
        model = (noisy_model if noisy else certification_instance)(seed, horizon)
        info = build_delayed_structure(model, min(d, horizon + 1))
        psi2 = HashedPsi2(model, info, seed)
        if resolution is None:
            ours = solve_pbp_exact(model, info, psi2)
        else:
            ours = solve_pbp_approx(model, info, psi2, resolution)
        value, memo = reference_pbp(model, info, psi2, resolution)
        assert ours.value == value
        assert list(ours.memo.items()) == list(memo.items())

    @given(
        seed=st.integers(0, 10**6),
        horizon=st.integers(1, 3),
        d=st.integers(0, 2),
        perfect=st.booleans(),
        noisy=st.booleans(),
    )
    def test_decoupled_memos(self, seed, horizon, d, perfect, noisy):
        perfect = perfect and not noisy  # noisy models observe their own state through noise
        dec = (noisy_decoupled if noisy else decoupled_instance)(seed, horizon, perfect)
        emb = dec_mod.embed(dec)
        info = build_delayed_structure(emb, min(d, horizon + 1))
        psi2 = HashedPsi2(emb, info, seed)
        ours = dec_mod.solve_decoupled_pbp(dec, info, psi2, perfect)
        value, memo = reference_decoupled(dec, info, psi2, perfect)
        assert ours.value == value
        assert list(ours.memo.items()) == list(memo.items())


class TestMeasuredLipschitz:
    """`PbpSolution.measured_lipschitz` compares integer vectors over each
    group's lcm; `ref_lipschitz`, the pairwise Fraction loop, must give the
    same ratio.  A key added with an explicit zero weight off its support
    has the vector of the key it copies, so its group holds a pair at
    distance 0, which both skip."""

    @given(
        seed=st.integers(0, 10**6),
        horizon=st.integers(1, 2),
        d=st.integers(0, 3),
        noisy=st.booleans(),
        n=st.sampled_from([1, 2, 3, 5]),
        pick=st.integers(0, 2**16),
        shift=st.fractions(-3, 3, max_denominator=12),
    )
    def test_matches_pairwise_fractions(self, seed, horizon, d, noisy, n, pick, shift):
        model = (noisy_model if noisy else certification_instance)(seed, horizon)
        info = build_delayed_structure(model, min(d, horizon + 1))
        sol = solve_pbp_approx(model, info, HashedPsi2(model, info, seed), n)
        assert sol.measured_lipschitz() == ref_lipschitz(sol)
        keys = list(sol.memo)
        b1, a2real = keys[pick % len(keys)]
        off = [
            (x, ell)
            for x in range(model.states[b1.t].size)
            for ell in sol.private_lists[b1.t]
            if (x, ell) not in b1.support()
        ]
        if not off:
            return
        twin = Belief1(b1.t, tuple(sorted(b1.entries + ((off[pick % len(off)], Fraction(0)),))))
        value, u1 = sol.memo[(b1, a2real)]
        sol.memo[(twin, a2real)] = (value + shift, u1)
        assert belief1_vector(model, sol.private_lists[b1.t], twin) == belief1_vector(
            model, sol.private_lists[b1.t], b1
        )
        assert sol.measured_lipschitz() == ref_lipschitz(sol)


def uncached_solve(model, info):
    """`solve_exact` with every node's `SharedStep` table on a fresh cache
    and every shared posterior built afresh: no agent-1 step is reused
    across nodes and no posterior is interned."""

    class Uncached(solver_mod.SharedStep):
        def __init__(self, model, info, b2, cache, choices):
            super().__init__(model, info, b2, StepCache(), choices)
            self.interned = None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod, "SharedStep", Uncached)
        return solve_exact(model, info)


def solve_recording(model, info):
    """`solve_exact`, and every posterior its shared steps returned."""
    seen = []

    class Recording(solver_mod.SharedStep):
        def branches(self, parts):
            out = super().branches(parts)
            seen.extend(post for _, post in out.values())
            return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod, "SharedStep", Recording)
        return solve_exact(model, info), seen


def assert_one_object_per_value(objects):
    """Equal objects are one object; returns the number of distinct values."""
    ids = {}
    for obj in objects:
        ids.setdefault(obj, set()).add(id(obj))
    assert all(len(same) == 1 for same in ids.values())
    return len(ids)


class TestInterning:
    """`solve_exact` interns its Bayes-step posteriors in a `StepCache`; the
    memo must equal that of a solve whose shared steps are built afresh."""

    @staticmethod
    def assert_same_memo(model, info):
        ours, ref = solve_exact(model, info), uncached_solve(model, info)
        assert ours.value == ref.value
        assert ours.pairs_enumerated == ref.pairs_enumerated
        assert list(ours.memo.items()) == list(ref.memo.items())

    @pytest.mark.parametrize("d", range(4))
    def test_certification_instance(self, d):
        model = certification_instance(0)
        self.assert_same_memo(model, build_delayed_structure(model, d))

    def test_split_delay_structure(self):
        model = certification_instance(2)
        self.assert_same_memo(model, split_delay_structure(model))

    @pytest.mark.parametrize("d", [1, 2])
    def test_convergence_instance(self, d):
        model = convergence_instance(0)
        self.assert_same_memo(model, build_delayed_structure(model, d))

    @given(
        seed=st.integers(0, 10**6),
        horizon=st.integers(1, 2),
        d=st.integers(0, 3),
        noisy=st.booleans(),
    )
    def test_sweep(self, seed, horizon, d, noisy):
        # noisy models past T=1 take seconds per uncached solve
        model = noisy_model(seed, 1) if noisy else certification_instance(seed, horizon)
        self.assert_same_memo(model, build_delayed_structure(model, min(d, model.horizon + 1)))

    def test_equal_beliefs_are_one_object(self):
        model = certification_instance(0)
        solution, seen = solve_recording(model, split_delay_structure(model))
        distinct = assert_one_object_per_value(seen)
        assert len(seen) > distinct  # posteriors repeat, so the tables are hit
        inner = [b1 for b2 in seen for b1 in b2.belief1_support()]
        assert len(inner) > assert_one_object_per_value(inner)
        # every memo key past the roots is the object a step returned
        assert {id(b2) for b2 in solution.memo if b2.t > 0} <= {id(b2) for b2 in seen}

    def test_solves_share_no_belief(self):
        model = certification_instance(0)
        info = split_delay_structure(model)
        (first, seen), second = solve_recording(model, info), solve_exact(model, info)
        assert list(first.memo.items()) == list(second.memo.items())
        assert not {id(b2) for b2 in second.memo} & {id(b2) for b2 in [*first.memo, *seen]}

    @given(
        nums=st.lists(st.integers(1, 50), min_size=2, max_size=5),
        k=st.integers(2, 9),
        denom=st.integers(1, 10**6),
    )
    def test_signature_is_scale_free(self, nums, k, denom):
        b1 = Belief1.from_weights(1, {(0, ()): Fraction(1)})
        keys = [(x, (), b1) for x in range(len(nums))]
        total = sum(nums)
        denom *= k * total  # room for every branch probability below 1
        make, order = partial(Belief2._of, 1), lambda kv: _belief2_order(kv[0])
        base = dict(zip(keys, nums))
        scaled = dict(zip(reversed(keys), [k * n for n in reversed(nums)]))
        interned = {}
        post = _posterior(base, total, make, order, interned)
        post_scaled = _posterior(scaled, k * total, make, order, interned)
        assert post_scaled is post and len(interned) == 1
        assert post == _posterior(scaled, k * total, make, order)
        assert post == Belief2.from_weights(1, {key: Fraction(n, total) for key, n in base.items()})
        (q, _), = _branches({(): base}, denom, make).values()
        (q_scaled, _), = _branches({(): scaled}, denom, make).values()
        assert (q, q_scaled) == (Fraction(total, denom), Fraction(k * total, denom))
        bumped = {**base, keys[0]: nums[0] + 1}
        post_bumped = _posterior(bumped, total + 1, make, order, interned)
        assert post_bumped != post
        assert len(interned) == 2


class TestScaledForms:
    @given(nums=st.lists(st.integers(0, 50), min_size=1, max_size=6).filter(any))
    def test_dist_scaled_matches_sampler(self, nums):
        total = sum(nums)
        dist = Dist(tuple(Fraction(k, total) for k in nums))
        denom, items = dist.scaled()
        assert denom == _plan_entry(dist)[1]
        assert items == tuple((i, w * denom) for i, w in dist.items())
        assert dist.scaled() is dist.scaled()

    def test_belief_scaled_is_exact(self):
        model = noisy_model(0)
        info = build_delayed_structure(model, 1)
        for _, b2 in StepCache().roots2(model, info).values():
            denom, entries = b2.scaled()
            assert [(k, Fraction(n, denom)) for k, n in entries] == list(b2.entries)
            for b1 in b2.belief1_support():
                d1, e1 = b1.scaled()
                assert [(k, Fraction(n, d1)) for k, n in e1] == list(b1.entries)

    def test_mixture_is_cached_and_read_only(self):
        model = certification_instance(0)
        info = build_delayed_structure(model, 1)
        for _, b2 in StepCache().roots2(model, info).values():
            mix = b2.mixture()
            assert b2.mixture() is mix
            assert dict(mix) == ref_mixture(b2)
            with pytest.raises(TypeError):
                mix[next(iter(mix))] = Fraction(0)
            points = b2.belief1_support()
            assert points == sorted(ref_mixture(b2), key=Belief1.sort_key)
            points.clear()
            assert b2.belief1_support() == sorted(ref_mixture(b2), key=Belief1.sort_key)


class TestValidation:
    """The kernels build beliefs without re-checking them; the public
    constructors still check."""

    B1 = Belief1.from_weights(0, {(0, ()): Fraction(1)})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Belief1.from_weights(0, {}),
            lambda: Belief1.from_weights(0, {(0, ()): Fraction(0)}),
            lambda: Belief1.from_weights(0, {(0, ()): Fraction(1, 2)}),
            lambda: Belief2.from_weights(0, {}),
            lambda: Belief2.from_weights(0, {(0, (), TestValidation.B1): Fraction(2, 3)}),
            lambda: Belief2.from_weights(1, {(0, (), TestValidation.B1): Fraction(1)}),
            lambda: MarginalBelief.from_weights(1, 0, {}),
            lambda: MarginalBelief.from_weights(2, 0, {(0, ()): Fraction(3, 2)}),
        ],
        ids=["b1-empty", "b1-zero", "b1-half", "b2-empty", "b2-two-thirds", "b2-wrong-time",
             "marginal-empty", "marginal-over"],
    )
    def test_from_weights_raises(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize(
        "cls, doc",
        [
            (Belief1, {"t": 0, "entries": []}),
            (Belief1, {"t": 0, "entries": [[[0, []], "1/3"]]}),
            (Belief2, {"t": 0, "entries": []}),
            (Belief2, {"t": 0, "entries": [[[0, [], {"t": 0, "entries": [[[0, []], "1/1"]]}], "1/2"]]}),
            (Belief2, {"t": 1, "entries": [[[0, [], {"t": 0, "entries": [[[0, []], "1/1"]]}], "1/1"]]}),
        ],
        ids=["b1-empty", "b1-third", "b2-empty", "b2-half", "b2-wrong-time"],
    )
    def test_from_json_raises(self, cls, doc):
        with pytest.raises(ValueError):
            cls.from_json(doc)


class TestWorldKernel:
    """`belief1_step` reads `TeamModel.world_kernel`, the draws of a step
    pooled by outcome.  On `pooling_model` distinct draws share an outcome
    in every cell, so the pooling merges weights; each cell must equal the
    Fraction sum over the draws, and the steps the Fraction references."""

    @pytest.mark.parametrize("seed", range(3))
    def test_cells_pool_the_draws(self, seed):
        model = pooling_model(seed)
        for t in range(-1, model.horizon):
            denom, kernel = model.world_kernel(t)
            assert model.world_kernel(t) is model.world_kernel(t)
            n_draws = (1 if t < 0 else len(model.w_dist(t).support())) * len(
                model.v_dist(1, t + 1).support()
            ) * len(model.v_dist(2, t + 1).support())
            cells = [
                (x, u1, u2, kernel[x] if t < 0 else kernel[x][u1][u2])
                for x in range(len(kernel))
                for u1 in range(1 if t < 0 else 2)
                for u2 in range(1 if t < 0 else 2)
            ]
            for x, u1, u2, cell in cells:
                assert {key: Fraction(n, denom) for key, n in cell} == ref_world_cell(model, t, x, u1, u2)
                assert len(cell) < n_draws  # the pooling merged some draws

    @pytest.mark.parametrize("d", range(4))
    def test_steps_equal_the_references(self, d):
        model = pooling_model(0)
        info = build_delayed_structure(model, d)
        prior = _prior1(model)
        assert prior == Belief1.from_weights(-1, {(x, ()): p for x, p in model.x0_dist.items()})
        assert_same_branches(belief1_step(model, info, prior, 0, _NULL2), ref_initial_belief1_roots(model, info))
        assert walk_team(model, info, random.Random(d)) > 0

    @pytest.mark.parametrize("d", range(3))
    def test_memo_equals_reference_and_uncached_solves(self, d):
        model = pooling_model(1, horizon=1)
        info = build_delayed_structure(model, d)
        solution = solve_exact(model, info)
        value, memo, spent, _ = reference_solve(model, info)
        assert (solution.value, list(solution.memo.items()), solution.pairs_enumerated) == (value, list(memo.items()), spent)
        TestInterning.assert_same_memo(model, info)


@st.composite
def numerators(draw, keys):
    """{key: n}, positive integer weights over a non-empty subset of keys."""
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=len(keys), unique=True))
    return {key: draw(st.integers(1, 60)) for key in chosen}


def reduced(t, nums, k, make, order=None):
    """The belief of the weights n / total as the kernels build it: from the
    numerators scaled by k, reduced by their gcd, with no Fraction."""
    return _posterior({key: k * n for key, n in nums.items()}, k * sum(nums.values()), make, order)


def fraction_entries(nums):
    """The canonical Fraction entries of the weights n / total."""
    total = sum(nums.values())
    return tuple((key, Fraction(n, total)) for key, n in sorted(nums.items()))


PLIST = [(0,), (1,), (2,)]
KEYS1 = [(x, ell) for x in range(3) for ell in PLIST]
MARGINAL_KEYS = {1: list(range(4)), 2: KEYS1}  # own state; (own state, private realization)


class TestIntegerBeliefs:
    """`Belief1`, `Belief2` and `MarginalBelief` hold their reduced integer
    form, a `MarginalBelief` its agent too.  A belief built from Fractions
    -- `from_weights`, `from_json`, the constructor, a lattice point
    through `lattice.nearest_point` -- must equal and hash-equal the one
    the kernels build from integer numerators, at any scale; a belief at
    another t, or of another agent, must not; sorting must follow the
    Fraction entry tuples; and `to_json` must round-trip."""

    @given(data=st.data(), k=st.integers(1, 10**6), t=st.integers(-1, 3))
    def test_belief1_from_fractions_equals_reduced_integers(self, data, k, t):
        nums = data.draw(numerators(KEYS1))
        ints = reduced(t, nums, k, partial(Belief1._of, t))
        total = sum(nums.values())
        built = [
            Belief1.from_weights(t, {key: Fraction(n, total) for key, n in nums.items()}),
            Belief1(t, fraction_entries(nums)),
            Belief1.from_json(ints.to_json()),
        ]
        for b1 in built:
            assert b1 == ints and hash(b1) == hash(ints)
            assert b1.scaled() == ints.scaled()
        assert ints.entries == fraction_entries(nums)
        assert all(type(w) is Fraction for _, w in ints.entries)
        assert Belief1._of(t + 1, ints.scaled()) != ints  # the time is part of the value
        assert built[2].to_json() == ints.to_json()
        # a lattice point: the solve's integer snap against the Fraction nearest point
        res = data.draw(st.integers(1, 12))
        model = SimpleNamespace(states={t: FiniteSpace("X", 3)})
        snapped = PbpSolution(model, None, None, Fraction(0), {}, {}, res, {t: PLIST}).snap(ints)
        point = belief1_from_vector(t, PLIST, lat.nearest_point(belief1_vector(model, PLIST, ints), res))
        assert snapped == point and hash(snapped) == hash(point)

    @given(data=st.data(), k=st.integers(1, 10**6))
    def test_belief2_from_fractions_equals_reduced_integers(self, data, k):
        inner = data.draw(st.lists(numerators(KEYS1), min_size=1, max_size=3, unique_by=fraction_entries))
        ints1 = [reduced(1, nums, 1, partial(Belief1._of, 1)) for nums in inner]
        fracs1 = [Belief1.from_weights(1, dict(fraction_entries(nums))) for nums in inner]
        keys = [(x, ell, i) for x in range(2) for ell in PLIST[:2] for i in range(len(inner))]
        nums = data.draw(numerators(keys))
        total = sum(nums.values())
        ints = reduced(
            1,
            {(x, ell, ints1[i]): n for (x, ell, i), n in nums.items()},
            k,
            partial(Belief2._of, 1),
            lambda kv: _belief2_order(kv[0]),
        )
        weights = {(x, ell, fracs1[i]): Fraction(n, total) for (x, ell, i), n in nums.items()}
        for b2 in (Belief2.from_weights(1, weights), Belief2.from_json(ints.to_json())):
            assert b2 == ints and hash(b2) == hash(ints)
            assert b2.scaled() == ints.scaled()
            assert b2.to_json() == ints.to_json()
        assert ints.entries == Belief2.from_weights(1, weights).entries

    @given(
        inner=st.lists(numerators(KEYS1[:4]), min_size=1, max_size=8),
        scales=st.lists(st.integers(1, 50), min_size=8, max_size=8),
        keys=st.lists(st.tuples(st.integers(0, 1), st.sampled_from(PLIST[:2]), st.integers(0, 7)), max_size=12),
    )
    def test_orders_follow_the_fraction_entries(self, inner, scales, keys):
        beliefs = [reduced(0, nums, k, partial(Belief1._of, 0)) for nums, k in zip(inner, scales)]
        old = {id(b1): fraction_entries(nums) for b1, nums in zip(beliefs, inner)}
        by_id = [id(b1) for b1 in sorted(beliefs, key=Belief1.sort_key)]
        assert by_id == [id(b1) for b1 in sorted(beliefs, key=lambda b1: old[id(b1)])]
        triples = [(x, ell, beliefs[i % len(beliefs)]) for x, ell, i in keys]
        ours = sorted(triples, key=_belief2_order)
        ref = sorted(triples, key=lambda key: (key[0], key[1], old[id(key[2])]))
        assert [(x, ell, id(b1)) for x, ell, b1 in ours] == [(x, ell, id(b1)) for x, ell, b1 in ref]

    @given(data=st.data(), agent=st.sampled_from([1, 2]), k=st.integers(1, 10**6), t=st.integers(-1, 3))
    def test_marginal_from_fractions_equals_reduced_integers(self, data, agent, k, t):
        keys = MARGINAL_KEYS[agent]
        nums = data.draw(numerators(keys))
        ints = reduced(t, nums, k, partial(MarginalBelief._of, agent, t))
        total = sum(nums.values())
        for theta in (
            MarginalBelief.from_weights(agent, t, {key: Fraction(n, total) for key, n in nums.items()}),
            MarginalBelief(agent, t, fraction_entries(nums)),
        ):
            assert theta == ints and hash(theta) == hash(ints)
            assert theta.scaled() == ints.scaled()
        # the attributes the benchmark digests
        assert (ints.agent, ints.t, ints.entries) == (agent, t, fraction_entries(nums))
        assert all(type(w) is Fraction for _, w in ints.entries)
        assert MarginalBelief._of(3 - agent, t, ints.scaled()) != ints  # the agent is part of the value
        assert MarginalBelief._of(agent, t + 1, ints.scaled()) != ints
        # sorting by sort_key follows the Fraction entry tuples
        others = data.draw(st.lists(st.tuples(numerators(keys), st.integers(1, 50)), max_size=7))
        thetas = [ints] + [reduced(t, more, scale, partial(MarginalBelief._of, agent, t)) for more, scale in others]
        old = {id(theta): fraction_entries(more) for theta, more in zip(thetas, [nums] + [m for m, _ in others])}
        by_id = [id(theta) for theta in sorted(thetas, key=MarginalBelief.sort_key)]
        assert by_id == [id(theta) for theta in sorted(thetas, key=lambda theta: old[id(theta)])]
