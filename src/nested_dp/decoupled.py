"""Per-agent dynamics: product embedding, marginal filters, factorization.

When each agent's state evolves and is observed through its own tables, the
joint machinery still applies to the product model, but the beliefs factor:
agent 1's information state splits into a filter over its own state given
its own history and a filter over agent 2's (state, private values) given
the shared data.  This module provides the embedding, the two marginal
filters, executable checks of the factorization identities, and a
person-by-person solver that works directly on the factored keys (with a
variant keyed by agent 1's own state when it observes that state
perfectly).

The filters `theta1_step` and `theta2_step` are the only code here that
runs over primitive draws; as in `beliefs`, the time-0 filters are their
steps from the prior at t = -1.

The factorization checks deliberately accept any product-shaped TeamModel
plus a state split, not just genuinely decoupled ones: the test suite ships
a coupled counterexample to demonstrate the checks can fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .beliefs import _NO_DISTURBANCE, _NULL2, MarginalBelief, Prescription, _branches, _joint, _over
from .errors import PerfectObsViolation, ZeroProbabilityObservation
from .info import InfoStructure, extend_a2, merge_realization, step_plan
from .limits import resolve_budget
from .model import (
    Dist,
    FiniteSpace,
    TeamModel,
    _deep_list,
    _dist_to_json,
    _grid,
    _Reader,
    _space_to_json,
    format_ratio,
)
from .oracle import Trajectory, condition_replayed
from .solver import MemoArgmin, _agent1_node, _scaled_costs

__all__ = [
    "DecoupledModel",
    "embed",
    "theta1_step",
    "theta2_step",
    "initial_theta1_roots",
    "initial_theta2_roots",
    "FactorizationCheck",
    "check_factorization_pi1",
    "check_factorization_pi2",
    "reachable_memories",
    "DecoupledPbpSolution",
    "solve_decoupled_pbp",
    "decoupled_from_json",
    "decoupled_to_json",
]


@dataclass(frozen=True)
class DecoupledModel:
    """A team model whose state, disturbance, and observation tables are
    per-agent; only the cost couples the agents.  Cross-agent arguments
    cannot be expressed, so decoupling holds by construction."""

    horizon: int
    states1: tuple[FiniteSpace, ...]
    states2: tuple[FiniteSpace, ...]
    actions1: tuple[FiniteSpace, ...]
    actions2: tuple[FiniteSpace, ...]
    disturbances1: tuple[FiniteSpace, ...]
    disturbances2: tuple[FiniteSpace, ...]
    noises1: tuple[FiniteSpace, ...]
    noises2: tuple[FiniteSpace, ...]
    observations1: tuple[FiniteSpace, ...]
    observations2: tuple[FiniteSpace, ...]
    f1: tuple
    f2: tuple
    obs1: tuple
    obs2: tuple
    cost_table: tuple  # [t][x1][x2][u1][u2]
    x1_dist: Dist
    x2_dist: Dist
    w1_dists: tuple[Dist, ...]
    w2_dists: tuple[Dist, ...]
    v1_dists: tuple[Dist, ...]
    v2_dists: tuple[Dist, ...]

    def cost(self, t, x1, x2, u1, u2) -> Fraction:
        return self.cost_table[t][x1][x2][u1][u2]


def embed(dec: DecoupledModel) -> TeamModel:
    """Product construction: joint state (x1, x2), joint disturbance
    (w1, w2), observations reading only their own component, cost copied.
    All generic machinery applies to the result."""
    T = dec.horizon
    states = tuple(
        FiniteSpace("X", dec.states1[t].size * dec.states2[t].size) for t in range(T + 1)
    )
    disturbances = tuple(
        FiniteSpace("W", dec.disturbances1[t].size * dec.disturbances2[t].size)
        for t in range(T)
    )

    def stages(count, spaces, cell):
        """Per t < count, the `_grid` over the sizes of `spaces` at t with
        cell(t, *index) at each cell."""
        return tuple(_grid(tuple(s[t].size for s in spaces), partial(cell, t)) for t in range(count))

    def move(t, x, u1, u2, w):
        (x1, x2), (w1, w2) = divmod(x, dec.states2[t].size), divmod(w, dec.disturbances2[t].size)
        return dec.f1[t][x1][u1][w1] * dec.states2[t + 1].size + dec.f2[t][x2][u2][w2]

    def seen1(t, x, v):
        return dec.obs1[t][x // dec.states2[t].size][v]

    def seen2(t, x, v):
        return dec.obs2[t][x % dec.states2[t].size][v]

    def cost(t, x, u1, u2):
        return dec.cost(t, *divmod(x, dec.states2[t].size), u1, u2)

    def product_dist(d1: Dist, d2: Dist) -> Dist:
        return Dist(tuple(p1 * p2 for p1 in d1.weights for p2 in d2.weights))

    return TeamModel(
        horizon=T,
        states=states,
        actions1=dec.actions1,
        actions2=dec.actions2,
        disturbances=disturbances,
        noises1=dec.noises1,
        noises2=dec.noises2,
        observations1=dec.observations1,
        observations2=dec.observations2,
        transition=stages(T, (states, dec.actions1, dec.actions2, disturbances), move),
        obs1=stages(T + 1, (states, dec.noises1), seen1),
        obs2=stages(T + 1, (states, dec.noises2), seen2),
        cost_table=stages(T + 1, (states, dec.actions1, dec.actions2), cost),
        x0_dist=product_dist(dec.x1_dist, dec.x2_dist),
        w_dists=tuple(product_dist(dec.w1_dists[t], dec.w2_dists[t]) for t in range(T)),
        v1_dists=dec.v1_dists,
        v2_dists=dec.v2_dists,
    )


# ---------------------------------------------------------------------------
# Marginal filters.
# ---------------------------------------------------------------------------


def initial_theta1_roots(dec: DecoupledModel) -> dict[int, tuple[Fraction, MarginalBelief]]:
    """Agent 1's time-0 observation values -> (probability, own-state
    filter): the `theta1_step` from the prior."""
    return theta1_step(dec, MarginalBelief(1, -1, tuple(dec.x1_dist.items())), 0)


def initial_theta2_roots(
    dec: DecoupledModel, info: InfoStructure
) -> dict[tuple[int, ...], tuple[Fraction, MarginalBelief]]:
    """Time-0 accessible realizations (z2[0] = a2[0]) -> (probability, filter
    over agent 2's (state, private values)): the `theta2_step` from the prior."""
    prior = MarginalBelief(2, -1, tuple(((x2, ()), p) for x2, p in dec.x2_dist.items()))
    return theta2_step(dec, info, prior, _NULL2)


def theta1_step(
    dec: DecoupledModel, theta: MarginalBelief, u1: int
) -> dict[int, tuple[Fraction, MarginalBelief]]:
    """Predict through agent 1's own chain, then condition on each possible
    next observation: y1' -> (branch probability, posterior).  A theta at
    t = -1 is a prior: its step moves nothing and observes time 0."""
    t = theta.t
    dtheta, entries = theta.scaled()
    (dw, ws), f = (_NO_DISTURBANCE, None) if t < 0 else (dec.w1_dists[t].scaled(), dec.f1[t])
    dv, vs = dec.v1_dists[t + 1].scaled()
    acc = _joint()
    for x1, n in entries:
        for w1, nw in ws:
            x1n = x1 if f is None else f[x1][u1][w1]
            for v1, nv in vs:
                acc[dec.obs1[t + 1][x1n][v1]][x1n] += n * nw * nv
    return _over(dtheta * dw * dv, _branches(acc, partial(MarginalBelief._of, 1, t + 1)))


def theta2_step(
    dec: DecoupledModel, info: InfoStructure, theta: MarginalBelief, gamma2: Prescription
) -> dict[tuple[int, ...], tuple[Fraction, MarginalBelief]]:
    """Advance the shared filter on agent 2's chain one step under a
    prescription, branching on the newly shared values.

    Agent 1's filter is driven by its own action and next observation, the
    classic predict-then-condition pair.  This filter conditions on the
    shared data, so it is driven by (the prescription in force, the newly
    shared values): agent 2's own action and next observation are not
    measurable with respect to the shared information and cannot drive a
    filter defined on it."""
    t = theta.t
    plan = step_plan(info, t)
    z2_of, ell_next_of = plan.read_z2, plan.read_l2
    dtheta, entries = theta.scaled()
    (dw, ws), f = (_NO_DISTURBANCE, None) if t < 0 else (dec.w2_dists[t].scaled(), dec.f2[t])
    dv, vs = dec.v2_dists[t + 1].scaled()
    acc = _joint()
    for (x2, ell), n in entries:
        u2 = gamma2(ell)
        for w2, nw in ws:
            x2n = x2 if f is None else f[x2][u2][w2]
            for v2, nv in vs:
                # agent-2 compositions never reference agent-1 data, so the
                # sentinel y1 and u1 slots are never read
                slots = ell + (-1, dec.obs2[t + 1][x2n][v2], -1, u2)
                acc[z2_of(slots)][(x2n, ell_next_of(slots))] += n * nw * nv
    return _over(dtheta * dw * dv, _branches(acc, partial(MarginalBelief._of, 2, t + 1)))


# ---------------------------------------------------------------------------
# Factorization checks, via direct conditioning on the embedded model.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorizationCheck:
    joint: tuple
    product: tuple
    equal: bool


def reachable_memories(info: InfoStructure, replayed: list[tuple[Trajectory, Fraction]]) -> list[tuple[list, list]]:
    """Per t, the sorted realizations of m1[t] and of a2[t] that some
    episode of `replayed` (`oracle.replay` of the joint under a strategy)
    reaches: the histories the factorization checks condition on."""
    seen = [(set(), set()) for _ in range(info.horizon + 1)]
    for traj, _ in replayed:
        for t, (m1s, a2s) in enumerate(seen):
            m1s.add(traj.read(info.m1[t]))
            a2s.add(traj.read(info.a2[t]))
    return [(sorted(m1s), sorted(a2s)) for m1s, a2s in seen]


def _as_check(joint: dict, product: dict, key=None) -> FactorizationCheck:
    keys = sorted(set(joint) | set(product), key=key)
    jt = tuple((k, joint.get(k, Fraction(0))) for k in keys)
    pt = tuple((k, product.get(k, Fraction(0))) for k in keys)
    return FactorizationCheck(jt, pt, jt == pt)


def check_factorization_pi1(
    split: tuple[int, int],
    info: InfoStructure,
    replayed: list[tuple[Trajectory, Fraction]],
    t: int,
    m1real: tuple[int, ...],
) -> FactorizationCheck:
    """Does the conditional over (both states, private values) given agent
    1's memory factor into (own state | own memory) times (other state,
    private values | shared data)?  Exact equality on every support element;
    product-shaped but coupled models are expected to fail.  `replayed` is
    `oracle.replay` of the embedded model's joint under the strategy, run
    once for every check of a sweep."""
    _, n2 = split
    cond = condition_replayed(info, replayed, [(("M1", t), m1real)], [("X", t), ("L2", t)])
    lhs: dict = {}
    own_marg: dict = {}
    for (x, ell), p in cond.items():
        x1, x2 = divmod(x, n2)
        lhs[(x1, x2, ell)] = lhs.get((x1, x2, ell), Fraction(0)) + p
        own_marg[x1] = own_marg.get(x1, Fraction(0)) + p
    a2real = merge_realization(info.a2[t], {info.m1[t]: m1real})
    other = condition_replayed(info, replayed, [(("A2", t), a2real)], [("X", t), ("L2", t)])
    other_marg: dict = {}
    for (x, ell), p in other.items():
        _, x2 = divmod(x, n2)
        other_marg[(x2, ell)] = other_marg.get((x2, ell), Fraction(0)) + p
    product = {
        (x1, x2, ell): p1 * p2
        for x1, p1 in own_marg.items()
        for (x2, ell), p2 in other_marg.items()
    }
    return _as_check(lhs, product)


def check_factorization_pi2(
    split: tuple[int, int],
    info: InfoStructure,
    replayed: list[tuple[Trajectory, Fraction]],
    t: int,
    a2real: tuple[int, ...],
) -> FactorizationCheck:
    """Given the shared data, is (own state, own filter) independent of
    (other state, private values)?  The filter realization per draw is the
    direct conditional of the own state on the realized memory.  `replayed`
    is as for `check_factorization_pi1`."""
    _, n2 = split
    theta_cache: dict[tuple[int, ...], MarginalBelief] = {}

    lhs: dict = {}
    total = Fraction(0)
    for traj, p in replayed:
        a2 = traj.read(info.a2[t])
        if a2 != a2real:
            continue
        m1 = traj.read(info.m1[t])
        theta1 = theta_cache.get(m1)
        if theta1 is None:
            cond = condition_replayed(info, replayed, [(("M1", t), m1)], [("X", t)])
            weights: dict[int, Fraction] = {}
            for (x,), q in cond.items():
                x1, _ = divmod(x, n2)
                weights[x1] = weights.get(x1, Fraction(0)) + q
            theta1 = MarginalBelief.from_weights(1, t, weights)
            theta_cache[m1] = theta1
        x1, x2 = divmod(traj.xs[t], n2)
        ell = traj.read(info.l2[t])
        key = (x1, x2, ell, theta1)
        lhs[key] = lhs.get(key, Fraction(0)) + p
        total += p
    if total == 0:
        raise ZeroProbabilityObservation(f"accessible realization {a2real} unreachable")
    lhs = {k: w / total for k, w in lhs.items()}

    own: dict = {}
    other: dict = {}
    for (x1, x2, ell, theta1), p in lhs.items():
        own[(x1, theta1)] = own.get((x1, theta1), Fraction(0)) + p
        other[(x2, ell)] = other.get((x2, ell), Fraction(0)) + p
    product = {
        (x1, x2, ell, theta1): p1 * p2
        for (x1, theta1), p1 in own.items()
        for (x2, ell), p2 in other.items()
    }

    return _as_check(lhs, product, lambda k: (*k[:3], k[3].sort_key()))


# ---------------------------------------------------------------------------
# Person-by-person solve on the factored keys.
# ---------------------------------------------------------------------------


@dataclass
class DecoupledPbpSolution:
    value: Fraction
    memo: dict
    perfect_obs_1: bool


def _require_identity_obs1(dec: DecoupledModel):
    for t in range(dec.horizon + 1):
        n1 = dec.states1[t].size
        if dec.observations1[t].size != n1:
            raise PerfectObsViolation(
                f"agent-1 observation space at t={t} has size "
                f"{dec.observations1[t].size}, state space {n1}"
            )
        for x1 in range(n1):
            for v1 in range(dec.noises1[t].size):
                if dec.obs1[t][x1][v1] != x1:
                    raise PerfectObsViolation(
                        f"agent-1 observation table at t={t} is not the identity"
                    )


def solve_decoupled_pbp(
    dec: DecoupledModel,
    info: InfoStructure,
    psi2,
    perfect_obs_1: bool = False,
    budget: int | None = None,
) -> DecoupledPbpSolution:
    """Agent 1's best response on the factored keys (own filter, shared
    filter, accessible realization).

    Branch probabilities multiply across the two filters: the next own
    observation depends only on agent 1's chain and the newly shared values
    only on agent 2's chain.  Matching the product-model solve exactly is
    the executable content of the reduction; the test suite asserts it.

    With perfect own observations (`perfect_obs_1`, checked against the
    observation tables) every own filter is a point mass, and equal point
    masses are equal keys, so the solve is the same; its memo is re-keyed
    to (t, own state, shared filter, accessible realization).

    Candidates are scored in `MemoArgmin`'s integers, built by
    `solver._agent1_node`.  A node's stage cost under u1 is the sum of
    n1 * n2 * k(x1, x2, u1, gamma2(ell)) over the filters' entries n1 / D1
    and n2 / D2 and the stage's integer cost table k / K, over the scale
    D1 * D2 * K; a successor's probability is the product of its two
    branch probabilities, given as the product of their numerators over
    the product of their denominators, so no branch pair builds a
    Fraction.  Filter steps are kept for the length of the solve,
    `theta1_step` keyed by (theta1, u1) and `theta2_step` by
    (theta2, gamma2), so nodes that share a filter share its steps.
    """
    if perfect_obs_1:
        _require_identity_obs1(dec)
    T = dec.horizon
    costs = [_scaled_costs(dec.cost_table[t]) for t in range(T + 1)]
    steps1: dict = {}
    steps2: dict = {}

    def expand(node):
        return node[0].t, 1, candidates(*node)

    def candidates(theta1: MarginalBelief, theta2: MarginalBelief, a2real):
        t = theta1.t
        g2 = psi2.prescription(t, a2real)
        # h[u1] / (D1 * D2 * K): the filters' entries n1 / D1 and n2 / D2,
        # stage-t costs k / K
        d1, entries1 = theta1.scaled()
        d2, entries2 = theta2.scaled()
        cost_denom, units = costs[t]
        h = [0] * dec.actions1[t].size
        for (x2, ell), n2 in entries2:
            u2 = g2(ell)
            for x1, n1 in entries1:
                n = n1 * n2
                for u1, row in enumerate(units[x1][x2]):
                    h[u1] += n * row[u2]
        branches = [()] * len(h)
        if t < T:
            # agent 2's side of the step does not depend on agent 1's action
            step2 = steps2.get((theta2, g2))
            if step2 is None:
                step2 = steps2[(theta2, g2)] = theta2_step(dec, info, theta2, g2)
            side2 = [
                (q.numerator, q.denominator, th2n, extend_a2(info, t, a2real, z2real))
                for z2real, (q, th2n) in step2.items()
            ]
            for u1 in range(len(h)):
                step = steps1.get((theta1, u1))
                if step is None:
                    step = steps1[(theta1, u1)] = theta1_step(dec, theta1, u1)
                branches[u1] = [
                    (q.numerator * n2, q.denominator * d2, (th1n, th2n, a2n))
                    for q, th1n in step.values()
                    for n2, d2, th2n, a2n in side2
                ]
        yield from _agent1_node(d1 * d2 * cost_denom, h, branches)

    dp = MemoArgmin({}, resolve_budget(budget), "value nodes", expand)
    total = Fraction(0)
    roots2 = initial_theta2_roots(dec, info)
    for p1, th1 in initial_theta1_roots(dec).values():
        for a2real, (p2, th2) in roots2.items():
            total += p1 * p2 * dp.value((th1, th2, a2real))
    memo = dp.memo
    if perfect_obs_1:
        # each own filter is a point mass, (x1, 1) over 1
        memo = {(th1.t, th1.support()[0], th2, a2real): row for (th1, th2, a2real), row in memo.items()}
    return DecoupledPbpSolution(total, memo, perfect_obs_1)


# ---------------------------------------------------------------------------
# JSON form.
# ---------------------------------------------------------------------------

def decoupled_to_json(dec: DecoupledModel) -> dict:
    # each space is stored once, as in model files; a horizon-0 model has no
    # disturbance space, and any one-element space reads back to none
    def disturbance(spaces):
        return _space_to_json(spaces[0]) if spaces else {"size": 1}

    return {
        "kind": "decoupled",
        "horizon": dec.horizon,
        "spaces": {
            "X1": _space_to_json(dec.states1[0]),
            "X2": _space_to_json(dec.states2[0]),
            "U1": _space_to_json(dec.actions1[0]),
            "U2": _space_to_json(dec.actions2[0]),
            "W1": disturbance(dec.disturbances1),
            "W2": disturbance(dec.disturbances2),
            "V1": _space_to_json(dec.noises1[0]),
            "V2": _space_to_json(dec.noises2[0]),
            "Y1": _space_to_json(dec.observations1[0]),
            "Y2": _space_to_json(dec.observations2[0]),
        },
        "f1": _deep_list(dec.f1),
        "f2": _deep_list(dec.f2),
        "obs1": _deep_list(dec.obs1),
        "obs2": _deep_list(dec.obs2),
        "cost": _deep_list(dec.cost_table, format_ratio),
        "dists": {
            "X1_0": _dist_to_json(dec.x1_dist),
            "X2_0": _dist_to_json(dec.x2_dist),
            "W1": [_dist_to_json(d) for d in dec.w1_dists],
            "W2": [_dist_to_json(d) for d in dec.w2_dists],
            "V1": [_dist_to_json(d) for d in dec.v1_dists],
            "V2": [_dist_to_json(d) for d in dec.v2_dists],
        },
    }


def decoupled_from_json(doc: dict) -> DecoupledModel:
    """The model of a decoupled document, read in field order down to every
    table's dimensions and value range: the product embedding reads every
    entry, and no later check runs on the decoupled model.  A malformed
    document raises NestedDPError "<JSON path>: <rule>"."""
    root = _Reader(doc)
    T = root["horizon"].integer(lambda n: n >= 0, "must be a non-negative integer")
    keys = ("X1", "X2", "U1", "U2", "W1", "W2", "V1", "V2", "Y1", "Y2")
    space = {key: root["spaces"][key].space(key) for key in keys}
    size = {key: s.size for key, s in space.items()}
    tables = {}
    for agent in "12":
        x, u, w, v, y = (size[kind + agent] for kind in "XUWVY")
        tables[f"f{agent}"] = root[f"f{agent}"].table((T, x, u, w), lambda node, n=x: node.index(n))
        tables[f"obs{agent}"] = root[f"obs{agent}"].table((T + 1, x, v), lambda node, n=y: node.index(n))
    cost = root["cost"].table((T + 1, size["X1"], size["X2"], size["U1"], size["U2"]), _Reader.ratio)
    dists = root["dists"]

    def stages(key, count):
        return (space[key],) * count

    def dists_of(key, count):
        return dists[key].table((count,), lambda node: node.dist(size[key]))

    return DecoupledModel(
        horizon=T,
        states1=stages("X1", T + 1),
        states2=stages("X2", T + 1),
        actions1=stages("U1", T + 1),
        actions2=stages("U2", T + 1),
        disturbances1=stages("W1", T),
        disturbances2=stages("W2", T),
        noises1=stages("V1", T + 1),
        noises2=stages("V2", T + 1),
        observations1=stages("Y1", T + 1),
        observations2=stages("Y2", T + 1),
        cost_table=cost,
        x1_dist=dists["X1_0"].dist(size["X1"]),
        x2_dist=dists["X2_0"].dist(size["X2"]),
        w1_dists=dists_of("W1", T),
        w2_dists=dists_of("W2", T),
        v1_dists=dists_of("V1", T + 1),
        v2_dists=dists_of("V2", T + 1),
        **tables,
    )
