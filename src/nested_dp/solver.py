"""Dynamic programming over information states.

Three solvers live here:

  solve_exact      -- joint minimization over prescription pairs at every
                      reachable shared-belief realization, by memoized
                      top-down recursion from the positive-probability
                      time-0 roots, with agent 2's prescriptions scanned
                      only on the belief's private support.  Yields the
                      team optimum.

  solve_pbp_exact  -- agent 1's best response to a fixed agent-2
                      prescription family, recursing over (agent-1 belief,
                      accessible realization) pairs.

  solve_pbp_approx -- the same recursion with every agent-1 belief snapped
                      to the nearest point of a resolution-n simplex
                      lattice before lookup.  The snap is closed-form and
                      never builds the lattice, so the per-stage key count
                      is bounded by the reachable snapped beliefs times the
                      accessible realizations, not by the lattice size.

All three, and `decoupled.solve_decoupled_pbp`, run on `MemoArgmin`, one
memoized top-down argmin that owns the memo, the budget and the tie-break.
Top-down recursion (rather than bottom-up tabulation) is deliberate: the
reachable belief set is tiny compared to the continuum, and only reachable
realizations influence the objective.  Candidates are enumerated in a fixed
lexicographic order and ties keep the first minimizer, so repeated solves
return identical policies.

Solved policies run through two executors.  `PrescriptionTeamStrategy`
executes a table {(t, accessible realization): (gamma1, gamma2)}, the form
`prescription_table` reads off a joint solve; `PbpAgent1Strategy` executes a
person-by-person policy.  Both read the accessible realization straight off
the realized history and share one cached agent-1 belief chain,
`Belief1Chain`.

The memo contract for concurrent use: values are idempotent (recomputing a
key yields an equal Fraction), so insert-if-absent with duplicated work is
benign.  Nothing here mutates shared state besides the memo dictionaries.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import lattice as lat
from .beliefs import (  # expected_cost2 is re-exported for callers of this module
    Belief1,
    Belief2,
    Prescription,
    StepCache,
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
from .model import TeamModel, scale_to_integers

__all__ = [
    "MemoArgmin",
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
    "prescription_table",
    "TablePsi2",
    "ConstantPsi2",
    "HashedPsi2",
    "all_agent2_prescriptions",
    "all_agent1_prescriptions",
]

A2Real = tuple[int, ...]


def all_agent2_prescriptions(
    t: int, l2_reals: list[tuple[int, ...]], n_actions: int, live: list[tuple[int, ...]] | None = None
):
    """Every total map from private realizations to actions, lexicographic.
    With `live`, a sub-list of `l2_reals`, only the maps that play 0
    everywhere off it, in the same relative order."""
    if live is None:
        live = l2_reals
    idle = dict.fromkeys(l2_reals, 0)
    for actions in itertools.product(range(n_actions), repeat=len(live)):
        yield Prescription.for_agent2(t, {**idle, **dict(zip(live, actions))})


def all_agent1_prescriptions(t: int, points: list[Belief1], n_actions: int):
    """Every map from the given belief points to actions, lexicographic."""
    for actions in itertools.product(range(n_actions), repeat=len(points)):
        yield Prescription.for_agent1(t, dict(zip(points, actions)))


# ---------------------------------------------------------------------------
# The memoized argmin shared by every DP solver.
# ---------------------------------------------------------------------------


class MemoArgmin:
    """Memoized top-down argmin over information states.

    For a node missing from the memo, `expand(node)` returns its stage t,
    its charge against the budget, and its candidates: (decision tuple,
    stage cost, weighted successor nodes), in enumeration order.  Successors
    are solved in the order given, so memo insertion order is the visit
    order.  The first minimizer wins and is stored as
    memo[key(node)] = (value, *decision); `key` defaults to the node itself.
    `spent` is the running total of charges.
    """

    def __init__(self, memo: dict, cap: int, unit: str, expand, key=None):
        self.memo = memo
        self.cap = cap
        self.unit = unit
        self.expand = expand
        self.key = key
        self.spent = 0

    def value(self, node) -> Fraction:
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

    @cached_property
    def table(self) -> dict[tuple[int, A2Real], tuple[Prescription, Prescription]]:
        """The solved joint policy as {(t, accessible realization): (gamma1,
        gamma2)}, read along its own argmin tree on first use: one entry per
        tree node.  Shared by every reader; do not mutate."""
        table: dict[tuple[int, A2Real], tuple[Prescription, Prescription]] = {}

        def walk(b2: Belief2, a2real: A2Real):
            g1, g2 = table[(b2.t, a2real)] = self.prescriptions_at(b2)
            if b2.t < self.model.horizon:
                for z2real, (_, nxt) in belief2_step(self.model, self.info, b2, g1, g2).items():
                    walk(nxt, extend_a2(self.info, b2.t, a2real, z2real))

        for a2real, (_, b2) in self.roots.items():
            walk(b2, a2real)
        return table

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

    At each reachable shared belief b2 the solver scans agent-1
    prescriptions (maps from b2's inner points to actions) against agent-2
    prescriptions that vary only on the private realizations in b2's
    support and play 0 off it (each still total on the private
    realizations); branch weights are the Bayes denominators of the
    shared-belief update.  The root value is the probability-weighted sum
    over time-0 accessible realizations.

    The restriction keeps the full scan's first minimizer.  The stage cost
    reads gamma2 only on b2's private support, and so does every agent-1
    step, since each inner belief's support lies inside b2's.  Candidates
    that differ only off the support therefore tie exactly, with equal
    successors, and the one playing 0 there comes first in lexicographic
    order.  Agent-1 steps are cached for the whole solve on (b1, u1, gamma2
    on b1's private support), and one `StepCache` interns the posteriors of
    every Bayes step: an equal belief reached again is found by its integer
    signature and returned as the object first built, so memo lookups on it
    succeed by identity.  The cache is made here and dropped with the solve.

    Stage costs are read off one integer table per node.  With b2's entries
    n / D and stage-t costs k / K over common denominators,
    h[(b1, ell)][u1][u2] = sum over x of n * k(x, u1, u2), and a pair's
    stage cost is the sum of h[(b1, ell)][gamma1(b1)][gamma2(ell)] over the
    support, divided by D * K: exactly `expected_cost2`.
    """
    T = model.horizon
    cache = StepCache()
    costs = [_scaled_costs(model.cost_table[t]) for t in range(T + 1)]

    def expand(b2: Belief2):
        t = b2.t
        points = b2.belief1_support()
        support = {ell for (_, ell, _), _ in b2.items()}
        l2_reals = enumerate_private(info, model, t)
        live = [ell for ell in l2_reals if ell in support]
        n_u1 = model.action_space(1, t).size
        n_u2 = model.action_space(2, t).size
        n_pairs = (n_u1 ** len(points)) * (n_u2 ** len(live))
        return t, n_pairs, candidates(b2, t, points, l2_reals, live, n_u1, n_u2)

    def candidates(b2, t, points, l2_reals, live, n_u1, n_u2):
        denom, entries = b2.scaled()
        cost_denom, units = costs[t]
        scale = denom * cost_denom
        # h[(b1, ell)][u1][u2], keyed by (b1's index in points, ell's in live)
        h: dict = {}
        where1 = {b1: i for i, b1 in enumerate(points)}
        where2 = {ell: j for j, ell in enumerate(live)}
        for (x, ell, b1), n in entries:
            cell = (where1[b1], where2[ell])
            rows = h.get(cell)
            if rows is None:
                rows = h[cell] = [[0] * n_u2 for _ in range(n_u1)]
            for row, ks in zip(rows, units[x]):
                for u2, k in enumerate(ks):
                    row[u2] += n * k
        gammas2 = [
            (g2, [g2(ell) for ell in live])
            for g2 in all_agent2_prescriptions(t, l2_reals, n_u2, live)
        ]
        for g1 in all_agent1_prescriptions(t, points, n_u1):
            acts1 = [g1(b1) for b1 in points]
            # by_ell[j][u2]: the stage cost at live[j] under gamma1, per agent-2 action
            by_ell = [[0] * n_u2 for _ in live]
            for (i, j), rows in h.items():
                total = by_ell[j]
                for u2, v in enumerate(rows[acts1[i]]):
                    total[u2] += v
            for g2, acts2 in gammas2:
                cost = Fraction(sum(row[u2] for row, u2 in zip(by_ell, acts2)), scale)
                branches = belief2_step(model, info, b2, g1, g2, cache).values() if t < T else ()
                yield (g1, g2), cost, branches

    dp = MemoArgmin({}, resolve_budget(budget), "prescription pairs", expand)
    roots = initial_belief2_roots(model, info)
    total = Fraction(0)
    for p, b2 in roots.values():
        total += p * dp.value(b2)
    return ExactSolution(model, info, total, roots, dp.memo, dp.spent)


def _scaled_costs(stage) -> tuple[int, list]:
    """A stage's cost table cost[x][u1][u2] over one common denominator K:
    (K, k) with cost[x][u1][u2] = k[x][u1][u2] / K."""
    denom, nums = scale_to_integers(c for x_row in stage for u1_row in x_row for c in u1_row)
    flat = iter(nums)
    return denom, [[[next(flat) for _ in u1_row] for u1_row in x_row] for x_row in stage]


def prescription_table(solution: ExactSolution) -> dict[tuple[int, A2Real], tuple[Prescription, Prescription]]:
    """The solved joint policy as {(t, accessible realization): (gamma1,
    gamma2)}: `solution.table`, walked once per solution."""
    return solution.table


def optimal_psi2(model: TeamModel, info: InfoStructure, solution: ExactSolution) -> "TablePsi2":
    """Agent-2 prescription family realized by the solved joint policy along
    its own argmin tree, keyed by (t, accessible realization)."""
    return TablePsi2({key: g2 for key, (_, g2) in solution.table.items()})


def extract_control_strategy(solution: ExactSolution) -> "PrescriptionTeamStrategy":
    """Executable team strategy from a solved joint policy."""
    return PrescriptionTeamStrategy(solution.model, solution.info, solution.table)


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
    """One fixed action regardless of time, shared data, or private data.
    Each stage's prescription is built once and then reused."""

    def __init__(self, model: TeamModel, info: InfoStructure, action: int):
        self.model = model
        self.info = info
        self.action = action
        self._built: dict[int, Prescription] = {}

    def prescription(self, t: int, a2real: A2Real) -> Prescription:
        presc = self._built.get(t)
        if presc is None:
            reals = enumerate_private(self.info, self.model, t)
            presc = self._built[t] = Prescription.for_agent2(t, dict.fromkeys(reals, self.action))
        return presc


class HashedPsi2:
    """Deterministic pseudo-random total family: the action at each
    (t, accessible realization, private realization) is a digest of the key.
    Handy as an arbitrary-but-reproducible fixed strategy in experiments.
    Each (t, accessible realization)'s prescription is built once and then
    reused."""

    def __init__(self, model: TeamModel, info: InfoStructure, seed: int):
        self.model = model
        self.info = info
        self.seed = seed
        self._built: dict[tuple[int, A2Real], Prescription] = {}

    def prescription(self, t: int, a2real: A2Real) -> Prescription:
        presc = self._built.get((t, a2real))
        if presc is None:
            reals = enumerate_private(self.info, self.model, t)
            n = self.model.action_space(2, t).size
            table = {}
            for ell in reals:
                digest = hashlib.sha256(repr((self.seed, t, a2real, ell)).encode()).digest()
                table[ell] = digest[0] % n
            presc = self._built[(t, a2real)] = Prescription.for_agent2(t, table)
        return presc


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
    private_lists: dict[int, list] = field(default_factory=dict)
    _value_of: object = None

    def action_at(self, b1: Belief1, a2real: A2Real) -> int:
        key = (b1, a2real)
        if key not in self.memo:
            if self._value_of is None:
                raise MissingKey(f"no solved entry for belief at t={b1.t}, accessible={a2real}")
            self._value_of(key)  # computes and memoizes on demand
        return self.memo[key][1]

    def dimension(self, t: int) -> int:
        """Coordinates of a stage-t belief vector: |X_t| * |L2_t|."""
        return self.model.states[t].size * len(self.private_lists[t])

    def snap(self, b1: Belief1) -> Belief1:
        """The lattice point nearest to b1 (b1 itself for the exact solve)."""
        if self.resolution is None:
            return b1
        plist = self.private_lists[b1.t]
        vec = belief1_vector(self.model, plist, b1)
        return belief1_from_vector(b1.t, plist, lat.nearest_point(vec, self.resolution))

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
    T = model.horizon
    private_lists = {t: enumerate_private(info, model, t) for t in range(T + 1)}
    sol = PbpSolution(model, info, psi2, Fraction(0), {}, {}, resolution, private_lists)

    def expand(node):
        return node[0].t, 1, actions(*node)

    def actions(b1: Belief1, a2real: A2Real):
        t = b1.t
        g2 = psi2.prescription(t, a2real)
        z2_of = merge_picker(info, info.z2[t + 1], info.z1[t + 1]) if t < T else None
        for u1 in range(model.action_space(1, t).size):
            cost = expected_cost1(model, b1, u1, g2)
            branches = belief1_step(model, info, b1, u1, g2).items() if t < T else ()
            yield (u1,), cost, (
                (p, (sol.snap(b1_next), extend_a2(info, t, a2real, z2_of(z1real))))
                for z1real, (p, b1_next) in branches
            )

    dp = MemoArgmin(sol.memo, resolve_budget(budget), "value nodes", expand)
    b1_roots = initial_belief1_roots(model, info)
    for z1real, (p, b1) in b1_roots.items():
        a2real = merge_realization(info.a2[0], {info.z1[0]: z1real})
        b1 = sol.snap(b1)
        sol.roots[z1real] = (p, b1, a2real)
        sol.value += p * dp.value((b1, a2real))
    sol._value_of = dp.value
    return sol


def solve_pbp_exact(model: TeamModel, info: InfoStructure, psi2, budget: int | None = None) -> PbpSolution:
    """Agent 1's exact best-response value and policy against a fixed
    agent-2 prescription family."""
    return _pbp_solve(model, info, psi2, None, budget)


def solve_pbp_approx(
    model: TeamModel, info: InfoStructure, psi2, n: int, budget: int | None = None
) -> PbpSolution:
    """Same recursion with beliefs snapped to the nearest resolution-n
    lattice point before every lookup, including the roots.  The lattice
    itself is never built, so n is limited by the reachable snapped
    beliefs, not by the lattice size."""
    if n < 1:
        raise ValueError("lattice resolution must be >= 1")
    return _pbp_solve(model, info, psi2, n, budget)


# ---------------------------------------------------------------------------
# Executing solved policies.
# ---------------------------------------------------------------------------


class Belief1Chain:
    """Agent 1's exact belief along a realized history, read off agent 1's
    own entries of `values`.  Steps are cached on (b1, u1, gamma2, z1), so
    long simulations pay dictionary lookups, not Bayes arithmetic."""

    def __init__(self, model: TeamModel, info: InfoStructure):
        self.model = model
        self.info = info
        self._roots = initial_belief1_roots(model, info)
        self._cache: dict = {}

    def root(self, values) -> Belief1:
        z1 = tuple(values[v] for v in self.info.z1[0])
        if z1 not in self._roots:
            raise MissingKey(f"unreachable initial information {z1}")
        return self._roots[z1][1]

    def observed(self, t: int, values) -> tuple[int, tuple[int, ...]]:
        """Agent 1's action at t - 1 and its new information at t."""
        return values[VarRef(t - 1, "U1")], tuple(values[v] for v in self.info.z1[t])

    def step(self, b1: Belief1, g2: Prescription, u1: int, z1: tuple[int, ...]) -> Belief1:
        """The belief at b1.t + 1, given agent 2's prescription at b1.t and
        what `observed` reads at b1.t + 1."""
        key = (b1, u1, g2, z1)
        nxt = self._cache.get(key)
        if nxt is None:
            nxt = self._cache[key] = update_belief1(self.model, self.info, b1, u1, g2, z1)
        return nxt


class PrescriptionTeamStrategy:
    """Closed-loop execution of a prescription table {(t, accessible
    realization): (gamma1, gamma2)}: agent 1 applies gamma1 to its belief,
    agent 2 applies gamma2 to its private realization.  Implements the
    oracle/simulator strategy protocol.

    A history outside the table raises MissingKey.  A `partial` table (a
    prescription decoration of some tree paths) instead sends both agents
    to action 0 there, and agent 1 stops tracking its belief from then on.
    `chain` lets several strategies on one (model, info) share one belief
    chain and its step cache.
    """

    def __init__(
        self,
        model: TeamModel,
        info: InfoStructure,
        table: dict,
        partial: bool = False,
        chain: Belief1Chain | None = None,
    ):
        self.info = info
        self.table = table
        self.partial = partial
        self.chain = Belief1Chain(model, info) if chain is None else chain

    def fresh_state(self):
        return {}

    def act(self, st, t, values):
        if t == 0:
            b1 = self.chain.root(values)
        elif st["g2"] is None:
            return 0, 0
        else:
            b1 = self.chain.step(st["b1"], st["g2"], *self.chain.observed(t, values))
        a2 = tuple(values[v] for v in self.info.a2[t])
        pair = self.table.get((t, a2))
        if pair is None:
            if not self.partial:
                raise MissingKey(f"no prescription pair for t={t}, accessible realization {a2}")
            st["g2"] = None
            return 0, 0
        g1, g2 = pair
        st["b1"], st["g2"] = b1, g2
        return g1(b1), g2(tuple(values[v] for v in self.info.l2[t]))


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
        self.chain = Belief1Chain(pbp.model, pbp.info)
        self._approx_cache: dict = {}

    def fresh_state(self):
        return {}

    def act(self, st, t, values):
        info = self.info
        if t == 0:
            st["exact"] = self.chain.root(values)
            st["b1"] = self.pbp.snap(st["exact"])
        else:
            u1, z1 = self.chain.observed(t, values)
            exact_next = self.chain.step(st["exact"], st["g2"], u1, z1)
            akey = (st["b1"], u1, st["g2"], z1)
            if akey in self._approx_cache:
                b1_next = self._approx_cache[akey]
            else:
                branches = belief1_step(self.model, info, st["b1"], u1, st["g2"])
                if z1 in branches:
                    b1_next = self.pbp.snap(branches[z1][1])
                else:
                    b1_next = self.pbp.snap(exact_next)
                self._approx_cache[akey] = b1_next
            st["exact"] = exact_next
            st["b1"] = b1_next
        a2 = tuple(values[v] for v in info.a2[t])
        g2 = st["g2"] = self.pbp.psi2.prescription(t, a2)
        ell = tuple(values[v] for v in info.l2[t])
        return self.pbp.action_at(st["b1"], a2), g2(ell)


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
        bound = lat.error_bound(pbp.dimension(t), pbp.resolution)
        if bound > eps:
            eps = bound
    sups = tuple(pbp.sup_value(t) for t in range(T + 1)) + (Fraction(0),)
    jl = pbp.measured_lipschitz() if lipschitz is None else lipschitz
    return AlphaBoundInputs(eps, model.max_cost(), sups, jl)
