"""Certification sweeps: dynamic programming vs brute force, recursive
beliefs vs direct conditioning, belief-weighted costs vs conditional
expectations, lattice solves vs exact solves.

Each function returns a plain report dict with a boolean "ok" plus enough
counters to show the sweep actually covered something.  The test suite
asserts on these reports; the functions themselves never assert, so scripts
can run them on new instances and inspect failures.

Coverage notes for the history sweeps:

  * The agent-1 belief sweep ranges over every enumerable agent-2 strategy
    table and, for each, every memory realization of agent 1 that has
    positive probability for some agent-1 behavior (the realization itself
    pins agent 1's past actions).  Any (team strategy, reachable history)
    pair from the joint enumeration projects into this set, so certifying
    it certifies "every strategy, every positive-probability history".

  * The shared-belief sweep walks the full prescription-decorated tree:
    every prescription pair at every node, every positive-probability
    shared increment.  A (prescription strategy, history) pair is exactly a
    path with decorations, so the tree covers all of them.
"""

from __future__ import annotations

from fractions import Fraction

from . import oracle as orc
from .beliefs import (
    _NULL2,
    Belief1,
    Belief2,
    Prescription,
    StepCache,
    _prior1,
    belief2_step,
    expected_cost1,
    expected_cost2,
)
from .info import InfoStructure, enumerate_private, merge_realization
from .model import TeamModel
from .solver import (
    PolicyRunner,
    TreePsi2,
    _observed,
    alpha_bound,
    all_agent1_prescriptions,
    all_agent2_prescriptions,
    extend_a2,
    extract_pbp_strategy,
    make_alpha_inputs,
    solve_exact,
    solve_pbp_approx,
    solve_pbp_exact,
)

__all__ = [
    "certify_dp_optimality",
    "certify_belief_and_cost_identities",
    "certify_pbp_against_enumeration",
    "convergence_report",
]


def certify_dp_optimality(model: TeamModel, info: InfoStructure, budget: int | None = None) -> dict:
    """Solve by prescription DP and by exhaustive strategy search; exact
    value equality is the pass condition.  The report carries the
    `solution` and `joint` it built, for callers that replay the policy."""
    solution = solve_exact(model, info, budget)
    joint = orc.build_joint(model, budget)
    brute = orc.exhaustive_min(model, info, joint, budget)
    return {
        "ok": solution.value == brute.value,
        "dp_value": solution.value,
        "brute_value": brute.value,
        "strategies_tested": brute.strategies_tested,
        "dp_nodes": len(solution.memo),
        "solution": solution,
        "joint": joint,
    }


# ---------------------------------------------------------------------------
# Belief and cost identities.
# ---------------------------------------------------------------------------


def _gamma2_from_tables(
    model: TeamModel, info: InfoStructure, tables, s: int, a2real
) -> Prescription:
    """The prescription the table strategy induces at (s, a2real): private
    realization -> action, on the realizations the tables cover."""
    mapping = {}
    table = dict(tables[s]) if not isinstance(tables[s], dict) else tables[s]
    for ell in enumerate_private(info, model, s):
        m2real = merge_realization(info.m2[s], {info.l2[s]: ell, info.a2[s]: a2real})
        if m2real in table:
            mapping[ell] = table[m2real]
    return Prescription(2, s, "private", tuple(sorted(mapping.items())))


def _m1_histories(model: TeamModel, info: InfoStructure, joint, tables):
    """Per time t, every agent-1 memory realization with positive
    probability when agent 1's actions range free and agent 2 follows the
    tables."""
    T = model.horizon
    contexts = orc._initial_contexts(model, joint)
    pick2 = orc._table_lookup(info.m2, 2, tables)
    per_t = []
    for t in range(T + 1):
        per_t.append(sorted({tuple(values[v] for v in info.m1[t]) for _, values, _ in contexts}))
        if t < T:
            contexts = [
                orc._step_context(model, ctx, t, u1, pick2(t, ctx[1]))
                for ctx in contexts
                for u1 in range(model.action_space(1, t).size)
            ]
    return per_t


def _chain_belief1(model, info, cache, tables, t, m1real) -> tuple[Belief1, list[Prescription]]:
    """Recompute agent 1's belief at (t, m1real) by chaining the update from
    the prior through `cache`, time 0 included, reading actions and new
    information off the realization."""
    values = dict(zip(info.m1[t], m1real))
    gammas = [
        _gamma2_from_tables(model, info, tables, s, tuple(values[v] for v in info.a2[s]))
        for s in range(t + 1)
    ]
    belief = _prior1(model)
    for s, g2 in enumerate([_NULL2] + gammas[:t]):
        u1, z1 = _observed(info, s, values)
        belief = cache.update1(model, info, belief, u1, g2, z1)
    return belief, gammas


def certify_belief_and_cost_identities(
    model: TeamModel, info: InfoStructure, budget: int | None = None
) -> dict:
    """Certify, with exact rational equality:

      agent-1 beliefs: recursive chain == direct conditioning, for every
        enumerable agent-2 table and every positive-probability memory;
      agent-1 costs: belief-weighted stage cost == conditional expectation;
      shared beliefs: recursive chain == direct conditioning over the full
        prescription-decorated tree, including the layer-consistency
        (marginal and mixture) identities;
      shared costs: prescription-pair stage cost == conditional expectation.
    """
    joint = orc.build_joint(model, budget)
    T = model.horizon
    report = {
        "ok": True,
        "belief1_checks": 0,
        "cost1_checks": 0,
        "belief2_checks": 0,
        "cost2_checks": 0,
        "marginal_checks": 0,
        "failures": [],
    }

    def fail(kind, detail):
        report["ok"] = False
        if len(report["failures"]) < 20:
            report["failures"].append((kind, detail))

    # -- agent-1 side -----------------------------------------------------
    seen: set = set()
    # one Bayes-step memo for the whole sweep: chains, runners and the walk
    cache = StepCache()
    for tables in orc.enumerate_agent2_strategies(model, info, joint):
        strategy2 = orc._Agent2TableOnly(info, tables)
        histories = _m1_histories(model, info, joint, tables)
        for t in range(T + 1):
            for m1real in histories[t]:
                b1, gammas = _chain_belief1(model, info, cache, tables, t, m1real)
                key = (t, m1real, tuple(g.table for g in gammas))
                if key in seen:
                    continue
                seen.add(key)
                cond = orc.condition_on_memory1(joint, model, info, strategy2, t, m1real)
                report["belief1_checks"] += 1
                if cond != {k: w for k, w in b1.items()}:
                    fail("belief1", (t, m1real))
                gamma_t = gammas[t]
                for u1 in range(model.action_space(1, t).size):
                    lhs = expected_cost1(model, b1, u1, gamma_t)
                    rhs = sum(
                        (p * model.cost(t, x, u1, gamma_t(ell)) for (x, ell), p in cond.items()),
                        Fraction(0),
                    )
                    report["cost1_checks"] += 1
                    if lhs != rhs:
                        fail("cost1", (t, m1real, u1))

    # -- shared side ------------------------------------------------------
    b2_roots = cache.roots2(model, info)
    # agent 1's belief at (t, m1real) given agent 2's decorations so far: it
    # does not depend on gamma1, so nodes that differ only there share it
    inner_beliefs: dict = {}

    def certify_node(b2: Belief2, a2real, presc: dict, entries):
        """Check the node's shared belief against direct conditioning and
        return the consistent draws among `entries` and the oracle-side
        distribution of (state, private realization, inner belief), so the
        cost checks can reuse it."""
        t = b2.t
        runner = _path_runner(model, info, cache, presc)
        records = _consistent_draws(model, info, entries, runner, t, a2real)
        # agent 1's actions are replayed off its memory, which can take its
        # belief out of gamma1's domain: only agent 2 follows the decoration
        agent2 = _Agent2Prescribed(info, runner.psi2.prescription)
        gamma2_path = tuple(runner.psi2.entries.items())
        oracle_triples: dict = {}
        total = Fraction(0)
        for omega, p, traj in records:
            m1real = traj.read(info.m1[t])
            b1 = inner_beliefs.get((t, m1real, gamma2_path))
            if b1 is None:
                cond = orc.condition_on_memory1(joint, model, info, agent2, t, m1real)
                b1 = Belief1.from_weights(t, dict(cond))
                inner_beliefs[t, m1real, gamma2_path] = b1
            key = (traj.xs[t], traj.read(info.l2[t]), b1)
            oracle_triples[key] = oracle_triples.get(key, Fraction(0)) + p
            total += p
        oracle_triples = {k: w / total for k, w in oracle_triples.items()}
        report["belief2_checks"] += 1
        if oracle_triples != {k: w for k, w in b2.items()}:
            fail("belief2", (t, a2real))
        marg = {}
        for (x, ell, _), p in oracle_triples.items():
            marg[(x, ell)] = marg.get((x, ell), Fraction(0)) + p
        report["marginal_checks"] += 1
        if b2.marginal_state_private() != marg or b2.mixture_state_private() != marg:
            fail("belief2-marginal", (t, a2real))
        return [(omega, p) for omega, p, _ in records], oracle_triples

    def walk(b2: Belief2, a2real, presc: dict, entries):
        """Certify the subtree at (b2, a2real).  `entries` holds every draw
        consistent with it: a child's decoration adds actions at t only, so
        the runners agree on every action before t, and a2 only grows
        (recall), so a child's consistent draws are among its parent's."""
        t = b2.t
        consistent, oracle_triples = certify_node(b2, a2real, presc, entries)
        points = b2.belief1_support()
        l2_reals = enumerate_private(info, model, t)
        n_u1 = model.action_space(1, t).size
        n_u2 = model.action_space(2, t).size
        for g1 in all_agent1_prescriptions(t, points, n_u1):
            for g2 in all_agent2_prescriptions(t, l2_reals, n_u2):
                lhs = expected_cost2(model, b2, g1, g2)
                rhs = Fraction(0)
                for (x_t, ell, b1), w in oracle_triples.items():
                    rhs += w * model.cost(t, x_t, g1(b1), g2(ell))
                report["cost2_checks"] += 1
                if lhs != rhs:
                    fail("cost2", (t, a2real))
                if t < T:
                    decorated = dict(presc)
                    decorated[(t, a2real)] = (g1, g2)
                    for z2real, (_, nxt) in belief2_step(model, info, b2, g1, g2, cache).items():
                        walk(nxt, extend_a2(info, t, a2real, z2real), decorated, consistent)

    for a2real, (_, b2) in b2_roots.items():
        walk(b2, a2real, {}, joint.entries)
    return report


def _path_runner(model: TeamModel, info: InfoStructure, cache: StepCache, presc: dict) -> PolicyRunner:
    """The runner of a decorated path {(t, accessible realization): (gamma1,
    gamma2)}: both agents play 0 off it, agent 2 by `TreePsi2`."""

    def action1(b1: Belief1, a2real: tuple) -> int:
        pair = presc.get((b1.t, a2real))
        return 0 if pair is None else pair[0](b1)

    psi2 = TreePsi2(model, info, {key: g2 for key, (_, g2) in presc.items()})
    return PolicyRunner(model, info, cache, psi2, action1, lambda b1: b1)


def _consistent_draws(model, info, entries, runner, t, a2real):
    """The (omega, p, trajectory) of the draws among `entries` whose
    accessible realization at t is a2real under `runner`."""
    out = []
    for omega, p in entries:
        traj = orc.trajectory(model, info, runner, omega)
        if traj.read(info.a2[t]) == a2real:
            out.append((omega, p, traj))
    return out


def certify_pbp_against_enumeration(
    model: TeamModel, info: InfoStructure, psi2, budget: int | None = None
) -> dict:
    """solve_pbp_exact against literal enumeration of every agent-1 strategy
    with agent 2 fixed to the prescription family."""
    pbp = solve_pbp_exact(model, info, psi2, budget)
    joint = orc.build_joint(model, budget)
    agent2 = _Agent2Prescribed(info, psi2.prescription)
    brute_value, _ = orc.min_over_agent1(model, info, joint, agent2, budget)
    extracted = extract_pbp_strategy(pbp)
    replay = orc.evaluate_strategy(joint, model, info, extracted)
    return {
        "ok": pbp.value == brute_value and replay == pbp.value,
        "pbp_value": pbp.value,
        "brute_value": brute_value,
        "replay_value": replay,
    }


class _Agent2Prescribed:
    """Agent 2 applies `gamma2_at(t, accessible realization)` to its private
    realization; agent 1 plays 0."""

    def __init__(self, info, gamma2_at):
        self.info = info
        self.gamma2_at = gamma2_at

    def fresh_state(self):
        return None

    def act(self, state, t, values):
        g2 = self.gamma2_at(t, tuple(values[v] for v in self.info.a2[t]))
        return 0, g2(tuple(values[v] for v in self.info.l2[t]))


def convergence_report(
    model: TeamModel,
    info: InfoStructure,
    psi2,
    resolutions: tuple[int, ...] = (1, 2, 4, 8, 16),
    budget: int | None = None,
) -> dict:
    """Sweep lattice resolutions for a fixed agent-2 family: true performance
    of each extracted lattice policy versus the exact best response, the
    first resolution whose lattice holds every reachable exact belief, and
    the loss-bound sequence at each resolution."""
    exact = solve_pbp_exact(model, info, psi2, budget)
    joint = orc.build_joint(model, budget)
    exact_replay = orc.evaluate_strategy(joint, model, info, extract_pbp_strategy(exact))
    # a belief in reduced integer form (D, n) lies on the resolution-r
    # lattice exactly when D divides r
    denoms = {b1.scaled()[0] for b1, _ in exact.memo}
    coverage_n = next((n for n in resolutions if all(n % d == 0 for d in denoms)), None)
    gaps, dp_values, alpha0s = {}, {}, {}
    for n in resolutions:
        approx = solve_pbp_approx(model, info, psi2, n, budget)
        performance = orc.evaluate_strategy(joint, model, info, extract_pbp_strategy(approx))
        gaps[n] = performance - exact.value
        dp_values[n] = approx.value
        alpha0s[n] = alpha_bound(make_alpha_inputs(approx), model.horizon)[0]
    ordered = [gaps[n] for n in resolutions]
    ok = (
        exact_replay == exact.value
        and all(g >= 0 for g in ordered)
        and all(a >= b for a, b in zip(ordered, ordered[1:]))
        and coverage_n is not None
        and gaps[coverage_n] == 0
        and all(gaps[n] <= alpha0s[n] for n in resolutions)
    )
    return {
        "ok": ok,
        "exact_value": exact.value,
        "gaps": gaps,
        "dp_values": dp_values,
        "alpha0": alpha0s,
        "coverage_n": coverage_n,
        "reachable_beliefs": len(exact.memo),
    }
