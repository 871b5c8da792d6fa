"""Dynamic programming over information states.

Three solvers live here:

  solve_exact      -- joint minimization over prescription pairs at every
                      reachable shared-belief realization, by memoized
                      top-down recursion from the positive-probability
                      time-0 roots.  Yields the team optimum.

  solve_pbp_exact  -- agent 1's best response to a fixed agent-2
                      prescription family, recursing over (agent-1 belief,
                      accessible realization) pairs.

  solve_pbp_approx -- the same recursion with every agent-1 belief snapped
                      to a simplex lattice before lookup, so the per-stage
                      key count is bounded by the lattice size times the
                      number of accessible realizations.

Top-down recursion (rather than bottom-up tabulation) is deliberate: the
reachable belief set is tiny compared to the continuum, and only reachable
realizations influence the objective.  Candidate prescriptions are
enumerated in a fixed lexicographic order and ties keep the first minimizer,
so repeated solves return identical policies.

The memo contract for concurrent use: values are idempotent (recomputing a
key yields an equal Fraction), so insert-if-absent with duplicated work is
benign.  Nothing here mutates shared state besides the memo dictionaries.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import lattice as lat
from .beliefs import (
    Belief1,
    Belief2,
    Prescription,
    belief1_from_vector,
    belief1_step,
    belief1_vector,
    belief2_step,
    expected_cost1,
    expected_cost2,
    initial_belief1_roots,
    initial_belief2_roots,
    update_belief1,
)
from .errors import MissingKey, ResourceLimitExceeded
from .info import (  # extend_a2 is re-exported for callers of this module
    InfoStructure,
    VarRef,
    enumerate_private,
    extend_a2,
    merge_picker,
    merge_realization,
)
from .limits import resolve_budget
from .model import TeamModel

__all__ = [
    "ExactSolution",
    "PbpSolution",
    "AlphaBoundInputs",
    "solve_exact",
    "solve_pbp_exact",
    "solve_pbp_approx",
    "alpha_bound",
    "make_alpha_inputs",
    "extract_control_strategy",
    "extract_pbp_strategy",
    "optimal_psi2",
    "TablePsi2",
    "ConstantPsi2",
    "HashedPsi2",
    "all_agent2_prescriptions",
    "all_agent1_prescriptions",
]

A2Real = tuple[int, ...]


def all_agent2_prescriptions(t: int, l2_reals: list[tuple[int, ...]], n_actions: int):
    """Every total map from private realizations to actions, lexicographic."""
    for actions in itertools.product(range(n_actions), repeat=len(l2_reals)):
        yield Prescription.for_agent2(t, dict(zip(l2_reals, actions)))


def all_agent1_prescriptions(t: int, points: list[Belief1], n_actions: int):
    """Every map from the given belief points to actions, lexicographic."""
    for actions in itertools.product(range(n_actions), repeat=len(points)):
        yield Prescription.for_agent1(t, dict(zip(points, actions)))


# ---------------------------------------------------------------------------
# Joint prescription DP.
# ---------------------------------------------------------------------------


@dataclass
class ExactSolution:
    model: TeamModel
    info: InfoStructure
    value: Fraction
    roots: dict[A2Real, tuple[Fraction, Belief2]]
    memo: dict[Belief2, tuple[Fraction, Prescription, Prescription]]
    pairs_enumerated: int

    def prescriptions_at(self, b2: Belief2) -> tuple[Prescription, Prescription]:
        if b2 not in self.memo:
            raise MissingKey(f"no solved entry for the shared belief at t={b2.t}")
        _, g1, g2 = self.memo[b2]
        return g1, g2

    def value_at(self, b2: Belief2) -> Fraction:
        if b2 not in self.memo:
            raise MissingKey(f"no solved entry for the shared belief at t={b2.t}")
        return self.memo[b2][0]


def solve_exact(model: TeamModel, info: InfoStructure, budget: int | None = None) -> ExactSolution:
    """Team optimum over prescription strategies.

    At each reachable shared belief the solver scans the full cross product
    of agent-1 prescriptions (maps from the belief's inner points to
    actions) and agent-2 prescriptions (total maps from private
    realizations to actions); branch weights are the Bayes denominators of
    the shared-belief update.  The root value is the probability-weighted
    sum over time-0 accessible realizations.
    """
    cap = resolve_budget(budget)
    T = model.horizon
    memo: dict[Belief2, tuple[Fraction, Prescription, Prescription]] = {}
    pairs_seen = 0

    def value_of(b2: Belief2) -> Fraction:
        nonlocal pairs_seen
        hit = memo.get(b2)
        if hit is not None:
            return hit[0]
        t = b2.t
        points = b2.belief1_support()
        l2_reals = enumerate_private(info, model, t)
        n_u1 = model.action_space(1, t).size
        n_u2 = model.action_space(2, t).size
        node_pairs = (n_u1 ** len(points)) * (n_u2 ** len(l2_reals))
        pairs_seen += node_pairs
        if pairs_seen > cap:
            raise ResourceLimitExceeded(
                f"prescription-pair enumeration passed the cap of {cap} "
                f"({node_pairs} pairs at a single t={t} node)",
                estimate=pairs_seen,
            )
        best: tuple[Fraction, Prescription, Prescription] | None = None
        for g1 in all_agent1_prescriptions(t, points, n_u1):
            for g2 in all_agent2_prescriptions(t, l2_reals, n_u2):
                v = expected_cost2(model, b2, g1, g2)
                if t < T:
                    for _, (p, nxt) in sorted(belief2_step(model, info, b2, g1, g2).items()):
                        v += p * value_of(nxt)
                if best is None or v < best[0]:
                    best = (v, g1, g2)
        memo[b2] = best
        return best[0]

    roots = initial_belief2_roots(model, info)
    total = Fraction(0)
    for a2real in sorted(roots):
        p, b2 = roots[a2real]
        total += p * value_of(b2)
    return ExactSolution(model, info, total, roots, memo, pairs_seen)


class PrescriptionTeamStrategy:
    """Closed-loop execution of a solved joint policy.

    Tracks both belief layers from realized information, looks up the argmin
    prescription pair at the current shared belief, and lets each agent read
    its action off its own data.  Implements the oracle/simulator strategy
    protocol; update steps are cached so long simulations pay dictionary
    lookups, not Bayes arithmetic.
    """

    def __init__(self, solution: ExactSolution):
        self.solution = solution
        self.model = solution.model
        self.info = solution.info
        self._b1_roots = initial_belief1_roots(self.model, self.info)
        self._step1_cache: dict = {}
        self._step2_cache: dict = {}

    def fresh_state(self):
        return {}

    def _advance(self, st, t, values):
        info = self.info
        if t == 0:
            z1 = tuple(values[v] for v in info.z1[0])
            a2 = tuple(values[v] for v in info.a2[0])
            if z1 not in self._b1_roots:
                raise MissingKey(f"unreachable initial information {z1}")
            st["b1"] = self._b1_roots[z1][1]
            if a2 not in self.solution.roots:
                raise MissingKey(f"unreachable initial accessible realization {a2}")
            st["b2"] = self.solution.roots[a2][1]
            return
        z1 = tuple(values[v] for v in info.z1[t])
        z2 = tuple(values[v] for v in info.z2[t])
        # agent 1's previous action comes straight from the realized history
        u1 = values[VarRef(t - 1, "U1")]
        key1 = (st["b1"], u1, st["g2"], z1)
        b1_next = self._step1_cache.get(key1)
        if b1_next is None:
            b1_next = update_belief1(self.model, info, st["b1"], u1, st["g2"], z1)
            self._step1_cache[key1] = b1_next
        key2 = (st["b2"], st["g1"], st["g2"])
        branches = self._step2_cache.get(key2)
        if branches is None:
            branches = belief2_step(self.model, info, st["b2"], st["g1"], st["g2"])
            self._step2_cache[key2] = branches
        if z2 not in branches:
            raise MissingKey(f"unreachable shared increment {z2} at t={t}")
        st["b1"] = b1_next
        st["b2"] = branches[z2][1]

    def act(self, st, t, values):
        self._advance(st, t, values)
        g1, g2 = self.solution.prescriptions_at(st["b2"])
        st["g1"], st["g2"] = g1, g2
        ell = tuple(values[v] for v in self.info.l2[t])
        return g1(st["b1"]), g2(ell)


def extract_control_strategy(solution: ExactSolution) -> PrescriptionTeamStrategy:
    """Executable team strategy from a solved joint policy."""
    return PrescriptionTeamStrategy(solution)


def optimal_psi2(model: TeamModel, info: InfoStructure, solution: ExactSolution) -> "TablePsi2":
    """Agent-2 prescription family realized by the solved joint policy along
    its own argmin tree, keyed by (t, accessible realization)."""
    entries: dict[tuple[int, A2Real], Prescription] = {}

    def walk(b2: Belief2, a2real: A2Real):
        g1, g2 = solution.prescriptions_at(b2)
        entries[(b2.t, a2real)] = g2
        if b2.t < model.horizon:
            for z2real, (_, nxt) in sorted(belief2_step(model, info, b2, g1, g2).items()):
                walk(nxt, extend_a2(info, b2.t, a2real, z2real))

    for a2real in sorted(solution.roots):
        _, b2 = solution.roots[a2real]
        walk(b2, a2real)
    return TablePsi2(entries)


# ---------------------------------------------------------------------------
# Fixed agent-2 prescription families.
# ---------------------------------------------------------------------------


class TablePsi2:
    """Explicit per-(t, accessible realization) prescription table."""

    def __init__(self, entries: dict[tuple[int, A2Real], Prescription]):
        self.entries = dict(entries)

    def prescription(self, t: int, a2real: A2Real) -> Prescription:
        key = (t, a2real)
        if key not in self.entries:
            raise MissingKey(f"no agent-2 prescription for t={t}, accessible={a2real}")
        return self.entries[key]

    def to_json(self) -> dict:
        return {
            "kind": "table",
            "entries": [
                [t, list(a2real), presc.to_json()] for (t, a2real), presc in sorted(self.entries.items())
            ],
        }


class ConstantPsi2:
    """One fixed action regardless of time, shared data, or private data."""

    def __init__(self, model: TeamModel, info: InfoStructure, action: int):
        self.model = model
        self.info = info
        self.action = action

    def prescription(self, t: int, a2real: A2Real) -> Prescription:
        reals = enumerate_private(self.info, self.model, t)
        return Prescription.for_agent2(t, {ell: self.action for ell in reals})


class HashedPsi2:
    """Deterministic pseudo-random total family: the action at each
    (t, accessible realization, private realization) is a digest of the key.
    Handy as an arbitrary-but-reproducible fixed strategy in experiments."""

    def __init__(self, model: TeamModel, info: InfoStructure, seed: int):
        self.model = model
        self.info = info
        self.seed = seed

    def prescription(self, t: int, a2real: A2Real) -> Prescription:
        reals = enumerate_private(self.info, self.model, t)
        n = self.model.action_space(2, t).size
        table = {}
        for ell in reals:
            digest = hashlib.sha256(repr((self.seed, t, a2real, ell)).encode()).digest()
            table[ell] = digest[0] % n
        return Prescription.for_agent2(t, table)


def psi2_from_json(doc: dict, model: TeamModel, info: InfoStructure):
    if doc["kind"] == "table":
        entries = {
            (t, tuple(a2)): Prescription.from_json(p) for t, a2, p in doc["entries"]
        }
        return TablePsi2(entries)
    if doc["kind"] == "constant":
        return ConstantPsi2(model, info, doc["action"])
    if doc["kind"] == "hashed":
        return HashedPsi2(model, info, doc["seed"])
    raise ValueError(f"unknown psi2 kind {doc['kind']!r}")


# ---------------------------------------------------------------------------
# Person-by-person DPs for agent 1 (exact and lattice-quantized).
# ---------------------------------------------------------------------------


@dataclass
class PbpSolution:
    model: TeamModel
    info: InfoStructure
    psi2: object
    value: Fraction
    roots: dict[tuple[int, ...], tuple[Fraction, Belief1, A2Real]]
    memo: dict[tuple[Belief1, A2Real], tuple[Fraction, int]]
    resolution: int | None  # lattice resolution, None for the exact solve
    lattices: dict[int, lat.Lattice] = field(default_factory=dict)
    private_lists: dict[int, list] = field(default_factory=dict)
    _value_of: object = None

    def action_at(self, b1: Belief1, a2real: A2Real) -> int:
        key = (b1, a2real)
        if key not in self.memo:
            if self._value_of is None:
                raise MissingKey(f"no solved entry for belief at t={b1.t}, accessible={a2real}")
            self._value_of(b1, a2real)  # computes and memoizes on demand
        return self.memo[key][1]

    def snap(self, b1: Belief1) -> Belief1:
        """The lattice point nearest to b1 (b1 itself for the exact solve)."""
        if self.resolution is None:
            return b1
        plist = self.private_lists[b1.t]
        vec = belief1_vector(self.model, plist, b1)
        q = lat.quantize(self.lattices[b1.t], vec)
        return belief1_from_vector(b1.t, plist, q.point())

    def sup_value(self, t: int) -> Fraction:
        """Largest memoized value at stage t (zero beyond the horizon)."""
        best = Fraction(0)
        for (b1, _), (v, _) in self.memo.items():
            if b1.t == t and v > best:
                best = v
        return best

    def measured_lipschitz(self) -> Fraction:
        """Largest finite-difference ratio |dV| / dTV over same-stage,
        same-accessible-realization key pairs.  A conservative stand-in for
        a true Lipschitz bound; reported, never assumed tight."""
        by_group: dict[tuple[int, A2Real], list[tuple[Belief1, Fraction]]] = {}
        for (b1, a2real), (v, _) in self.memo.items():
            by_group.setdefault((b1.t, a2real), []).append((b1, v))
        best = Fraction(0)
        for (t, _), pairs in by_group.items():
            plist = self.private_lists.get(t)
            if plist is None:
                continue
            vecs = [(belief1_vector(self.model, plist, b1), v) for b1, v in pairs]
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    dist = lat.tv_distance(vecs[i][0], vecs[j][0])
                    if dist == 0:
                        continue
                    ratio = abs(vecs[i][1] - vecs[j][1]) / dist
                    if ratio > best:
                        best = ratio
        return best

    def reachable_beliefs(self) -> list[tuple[int, tuple[Fraction, ...]]]:
        out = []
        for (b1, _), _ in self.memo.items():
            plist = self.private_lists[b1.t]
            out.append((b1.t, belief1_vector(self.model, plist, b1)))
        return out


def _pbp_solve(
    model: TeamModel,
    info: InfoStructure,
    psi2,
    resolution: int | None,
    budget: int | None,
) -> PbpSolution:
    cap = resolve_budget(budget)
    T = model.horizon
    private_lists = {t: enumerate_private(info, model, t) for t in range(T + 1)}
    lattices: dict[int, lat.Lattice] = {}
    if resolution is not None:
        for t in range(T + 1):
            m = model.states[t].size * len(private_lists[t])
            lattices[t] = lat.build_lattice(m, resolution, budget)

    sol = PbpSolution(model, info, psi2, Fraction(0), {}, {}, resolution, lattices, private_lists)
    memo = sol.memo
    nodes = 0

    def value_of(b1: Belief1, a2real: A2Real) -> Fraction:
        nonlocal nodes
        key = (b1, a2real)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        nodes += 1
        if nodes > cap:
            raise ResourceLimitExceeded(f"more than {cap} value nodes", estimate=nodes)
        t = b1.t
        g2 = psi2.prescription(t, a2real)
        best: tuple[Fraction, int] | None = None
        for u1 in range(model.action_space(1, t).size):
            v = expected_cost1(model, b1, u1, g2)
            if t < T:
                for z1real, (p, b1_next) in sorted(belief1_step(model, info, b1, u1, g2).items()):
                    z2real = merge_picker(info, info.z2[t + 1], info.z1[t + 1])(z1real)
                    a2_next = extend_a2(info, t, a2real, z2real)
                    v += p * value_of(sol.snap(b1_next), a2_next)
            if best is None or v < best[0]:
                best = (v, u1)
        memo[key] = best
        return best[0]

    b1_roots = initial_belief1_roots(model, info)
    for z1real in sorted(b1_roots):
        p, b1 = b1_roots[z1real]
        a2real = merge_realization(info.a2[0], {info.z1[0]: z1real})
        b1 = sol.snap(b1)
        sol.roots[z1real] = (p, b1, a2real)
        sol.value += p * value_of(b1, a2real)
    sol._value_of = value_of
    return sol


def solve_pbp_exact(model: TeamModel, info: InfoStructure, psi2, budget: int | None = None) -> PbpSolution:
    """Agent 1's exact best-response value and policy against a fixed
    agent-2 prescription family."""
    return _pbp_solve(model, info, psi2, None, budget)


def solve_pbp_approx(
    model: TeamModel, info: InfoStructure, psi2, n: int, budget: int | None = None
) -> PbpSolution:
    """Same recursion with beliefs quantized to the resolution-n lattice
    before every lookup, including the roots."""
    if n < 1:
        raise ValueError("lattice resolution must be >= 1")
    return _pbp_solve(model, info, psi2, n, budget)


class PbpAgent1Strategy:
    """Execute a person-by-person policy: agent 1 tracks its belief chain
    (quantized chain for lattice policies), agent 2 follows the fixed
    prescription family.

    For lattice policies the recursive chain can meet a realized
    observation its quantized prior rules out; the runner then re-anchors by
    quantizing the exact posterior, which it tracks in parallel.  Both
    chains are functions of agent 1's own history, so the executed strategy
    stays feasible.
    """

    def __init__(self, pbp: PbpSolution):
        self.pbp = pbp
        self.model = pbp.model
        self.info = pbp.info
        self._b1_roots = initial_belief1_roots(self.model, self.info)
        self._exact_cache: dict = {}
        self._approx_cache: dict = {}

    def fresh_state(self):
        return {}

    def act(self, st, t, values):
        info = self.info
        if t == 0:
            z1 = tuple(values[v] for v in info.z1[0])
            if z1 not in self._b1_roots:
                raise MissingKey(f"unreachable initial information {z1}")
            st["exact"] = self._b1_roots[z1][1]
            st["b1"] = self.pbp.snap(st["exact"])
            st["a2"] = merge_realization(info.a2[0], {info.z1[0]: z1})
        else:
            z1 = tuple(values[v] for v in info.z1[t])
            u1 = values[VarRef(t - 1, "U1")]
            g2_prev = st["g2"]
            ekey = (st["exact"], u1, g2_prev, z1)
            exact_next = self._exact_cache.get(ekey)
            if exact_next is None:
                exact_next = update_belief1(self.model, info, st["exact"], u1, g2_prev, z1)
                self._exact_cache[ekey] = exact_next
            akey = (st["b1"], u1, g2_prev, z1)
            if akey in self._approx_cache:
                b1_next = self._approx_cache[akey]
            else:
                branches = belief1_step(self.model, info, st["b1"], u1, g2_prev)
                if z1 in branches:
                    b1_next = self.pbp.snap(branches[z1][1])
                else:
                    b1_next = self.pbp.snap(exact_next)
                self._approx_cache[akey] = b1_next
            st["exact"] = exact_next
            st["b1"] = b1_next
            z2 = tuple(values[v] for v in info.z2[t])
            st["a2"] = extend_a2(info, t - 1, st["a2"], z2)
        g2 = self.pbp.psi2.prescription(t, st["a2"])
        st["g2"] = g2
        ell = tuple(values[v] for v in info.l2[t])
        u1_now = self.pbp.action_at(st["b1"], st["a2"])
        return u1_now, g2(ell)


def extract_pbp_strategy(pbp: PbpSolution) -> PbpAgent1Strategy:
    return PbpAgent1Strategy(pbp)


# ---------------------------------------------------------------------------
# Loss-bound recursion for the quantized person-by-person solve.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaBoundInputs:
    """Ingredients of the per-stage loss bound.

    epsilon       worst-case TV quantization radius
    cost_sup      sup-norm of the stage cost
    value_sups    value_sups[t] = sup-norm of the solved stage-t table,
                  indexed 0..T+1 with value_sups[T+1] = 0
    lipschitz     an upper bound on the value tables' Lipschitz constants
    """

    epsilon: Fraction
    cost_sup: Fraction
    value_sups: tuple[Fraction, ...]
    lipschitz: Fraction

    def __post_init__(self):
        if self.epsilon < 0 or self.cost_sup < 0 or self.lipschitz < 0:
            raise ValueError("bound ingredients must be non-negative")
        if any(v < 0 for v in self.value_sups):
            raise ValueError("value sup-norms must be non-negative")
        if self.value_sups and self.value_sups[-1] != 0:
            raise ValueError("the terminal value sup-norm must be 0")


def alpha_bound(inputs: AlphaBoundInputs, T: int) -> list[Fraction]:
    """The backward loss recursion: each stage doubles the accumulated bound
    and adds the quantization penalties.  Returns [a_0, ..., a_{T+1}] with
    a_{T+1} = 0."""
    if len(inputs.value_sups) != T + 2:
        raise ValueError(f"need {T + 2} value sup-norms for horizon {T}")
    alphas = [Fraction(0)] * (T + 2)
    eps = inputs.epsilon
    for t in range(T, -1, -1):
        alphas[t] = 2 * (
            eps * inputs.cost_sup
            + 3 * eps * inputs.value_sups[t + 1]
            + 3 * eps * inputs.lipschitz
            + alphas[t + 1]
        )
    return alphas


def make_alpha_inputs(pbp: PbpSolution, lipschitz: Fraction | None = None) -> AlphaBoundInputs:
    """Assemble bound inputs from a solved lattice policy: epsilon is the
    worst per-stage quantization radius (stages may differ in dimension),
    the value sups are read off the memo, and the Lipschitz bound defaults
    to the measured finite-difference ratio."""
    if pbp.resolution is None:
        raise ValueError("loss bounds apply to lattice solutions")
    model = pbp.model
    T = model.horizon
    eps = Fraction(0)
    for t in range(T + 1):
        m = model.states[t].size * len(pbp.private_lists[t])
        bound = lat.error_bound(m, pbp.resolution)
        if bound > eps:
            eps = bound
    sups = tuple(pbp.sup_value(t) for t in range(T + 1)) + (Fraction(0),)
    jl = pbp.measured_lipschitz() if lipschitz is None else lipschitz
    return AlphaBoundInputs(eps, model.max_cost(), sups, jl)
