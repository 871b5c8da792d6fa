"""Dynamic programming over information states.

Three solvers live here:

  solve_exact      -- joint minimization over prescription pairs at every
                      reachable shared-belief realization, by memoized
                      top-down recursion from the positive-probability
                      time-0 roots, with agent 2's prescriptions scanned
                      only on the belief's private support.  Yields the
                      team optimum.  The scan runs over action tuples
                      against per-node integer tables -- stage costs, and
                      each agent-1 step's part of the shared step -- and
                      builds prescriptions only for the stored minimizer;
                      the final stage, whose objective is separable across
                      agent 2's private realizations, scores each agent-1
                      tuple once.

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
It scores in exact integers: each node gives its candidates' costs and
successor weights as integers over one per-node scale, a candidate's value
is kept as an integer ratio over the lcm of its successors' denominators
and compared with the best by cross-multiplying, and each node builds one
Fraction, its value.  A node's candidates are built only after its charge
passes the budget.  Every solver reads its stage costs off one integer
table per stage (`_scaled_costs`), summed against the node's belief as
integers over its common denominator (`scaled()`, the belief's data).  The
joint solve's scale is the stage-cost denominator times its shared step's;
a person-by-person node's, here and in `decoupled` alike (`_agent1_node`),
is the stage-cost denominator times the lcm of its branch probabilities'
denominators, each branch weight its numerator over that lcm.  The lattice snap and the measured Lipschitz ratio run in
integers too.

Top-down recursion (rather than bottom-up tabulation) is deliberate: the
reachable belief set is tiny compared to the continuum, and only reachable
realizations influence the objective.  Candidates are enumerated in a fixed
lexicographic order and ties keep the first minimizer, so repeated solves
return identical policies.

Every solved policy runs through one executor, `PolicyRunner`: agent 2
applies a prescription family to its private realization and agent 1 a
rule to its belief, the common-information form of the structural result.
The runner reads the accessible realization straight off the realized
history and steps agent 1's belief through the solve's `beliefs.StepCache`,
kept on the solution: the updates do not depend on the strategy, so the
executed policy's Bayes steps are ones the solve took.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import ChainMap
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import lattice as lat
from .beliefs import (
    _NULL2,
    Belief1,
    Belief2,
    Prescription,
    SharedStep,
    StepCache,
    _prior1,
    belief2_step,
)
from .errors import MissingKey, ResourceLimitExceeded
from .info import (  # extend_a2 is re-exported for callers of this module
    InfoStructure,
    VarRef,
    enumerate_private,
    extend_a2,
    step_plan,
)
from .limits import resolve_budget
from .model import TeamModel, _deep_list, _leaves, _Reader, scale_to_integers

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
    "PolicyRunner",
    "TablePsi2",
    "TreePsi2",
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
# The memoized argmin shared by every DP solver.
# ---------------------------------------------------------------------------


class MemoArgmin:
    """Memoized top-down argmin over information states, in exact integers.

    For a node missing from the memo, `expand(node)` returns its stage t,
    its charge against the budget, and an iterator of its candidates that
    first yields a positive integer `scale` and then each candidate:
    (decision tuple, cost, weighted successor nodes), in enumeration
    order, each cost and successor weight an integer over `scale`.  The
    charge is added to `spent` and checked against the cap before the
    iterator is advanced, so a node the cap refuses does none of the work
    its candidates need.  A candidate's value is (cost + sum of weight *
    value of successor) / scale.  The loop keeps that sum as an integer
    ratio n / d, folding in each successor value's numerator and
    denominator by lcm, and compares it with the best so far by
    cross-multiplying; every candidate shares `scale`, so it drops out of
    the comparison.  Only a strictly smaller value replaces the best, so
    the first minimizer wins, and the node builds one Fraction, its value,
    stored as memo[node] = (value, *decision).  Successors are solved in
    the order given, so memo insertion order is the visit order.  Every
    solver here and in `decoupled` builds its candidates as these integers
    directly, from its integer cost tables and its branch probabilities'
    numerators; the person-by-person ones through `_agent1_node`.

    The recursion runs on an explicit stack, so its depth, the horizon,
    is bounded by memory and not by Python's recursion limit: each node
    being solved is a generator (`_solve`) that yields its successors one
    at a time and is sent back each one's value.
    """

    def __init__(self, memo: dict, cap: int, unit: str, expand):
        self.memo = memo
        self.cap = cap
        self.unit = unit
        self.expand = expand
        self.spent = 0

    def value(self, node) -> Fraction:
        memo, stack = self.memo, []
        while True:
            hit = memo.get(node)
            if hit is None:
                stack.append(self._solve(node))
                v = None
            else:
                v = hit[0]
            while stack:  # send v up the stack until a frame asks for a node
                try:
                    node = stack[-1].send(v)
                    break
                except StopIteration as done:
                    stack.pop()
                    v = done.value
            else:
                return v

    def _solve(self, node):
        """Solve one node: yield each successor in turn, receive its value,
        and return the node's value once it is stored in the memo."""
        t, charge, candidates = self.expand(node)
        self.spent += charge
        if self.spent > self.cap:
            raise ResourceLimitExceeded(
                f"{self.unit} passed the cap of {self.cap} at t={t}: "
                f"{self.spent} counted, {charge} of them at this node",
                estimate=self.spent,
            )
        gcd = math.gcd
        scale = next(candidates)
        best = None
        for decision, n, successors in candidates:
            d = 1  # the candidate's value so far is n / (d * scale)
            for w, nxt in successors:
                v = yield nxt
                b = v.denominator
                g = gcd(d, b)
                n = n * (b // g) + w * v.numerator * (d // g)
                d = d // g * b
            if best is None or n * best_d < best_n * d:
                best, best_n, best_d = decision, n, d
        v = Fraction(best_n, best_d * scale)
        self.memo[node] = (v, *best)
        return v


def _agent1_node(scale: int, h: list[int], branches: list):
    """`MemoArgmin`'s candidates at a node where only agent 1 decides, the
    person-by-person solvers' node: u1's stage cost is h[u1] / scale, and
    branches[u1] lists its successors as (n, d, node), each reached with
    probability n / d (empty at the horizon).  With L the lcm of every
    branch denominator at the node, the node's scale is scale * L, a cost
    h enters as h * L and a branch as n * (L // d) * scale."""
    lcm = math.lcm(*(d for succ in branches for _, d, _ in succ))
    yield scale * lcm
    for u1, (cost, succ) in enumerate(zip(h, branches)):
        yield (u1,), cost * lcm, [(n * (lcm // d) * scale, nxt) for n, d, nxt in succ]


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
    cache: StepCache = field(default_factory=StepCache, compare=False, repr=False)

    @cached_property
    def table(self) -> dict[tuple[int, A2Real], tuple[Prescription, Prescription]]:
        """The solved joint policy as {(t, accessible realization): (gamma1,
        gamma2)}, read along its own argmin tree on first use: one entry per
        tree node, each step found in the solve's cache.  Shared by every
        reader; do not mutate."""
        table: dict[tuple[int, A2Real], tuple[Prescription, Prescription]] = {}

        def walk(b2: Belief2, a2real: A2Real):
            g1, g2 = table[(b2.t, a2real)] = self.memo[b2][1:]
            if b2.t < self.model.horizon:
                for z2real, (_, nxt) in belief2_step(self.model, self.info, b2, g1, g2, self.cache).items():
                    walk(nxt, extend_a2(self.info, b2.t, a2real, z2real))

        for a2real, (_, b2) in self.roots.items():
            walk(b2, a2real)
        return table

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
    order.

    The scan runs over action tuples: a1 holds agent 1's action at each
    inner point, a2 agent 2's at each live private realization, both in
    lexicographic order, and the two `Prescription`s are built once per
    node, for the stored minimizer.  Stage costs are read off one integer
    table per node: with b2's entries n / D and stage-t costs k / K over
    common denominators, h[(b1, ell)][u1][u2] = sum over x of n * k(x, u1,
    u2), and a pair's stage cost is the sum of h[(b1, ell)][a1(b1)][a2(ell)]
    over the support, divided by D * K: exactly `beliefs.expected_cost2`.

    At t = T a pair's value is its stage cost, which for fixed a1 is a sum
    of one term per live realization, r_ell[a2(ell)].  So for fixed a1 the
    minimizing a2 are the product of the argmin sets of the r_ell, whose
    lexicographically first element takes each r_ell's first argmin, and
    the scan's first minimizer is that a2 under the first a1 of least
    total: every pair with an earlier a1 costs more.  Each a1 is scored
    once, with integer comparisons, and the node builds one Fraction.

    At t < T the node's `beliefs.SharedStep` turns each agent-1 step it can
    take -- an inner belief b1, its action, agent 2's actions on b1's
    private support -- into that step's integer part of the shared step,
    once, its entries keyed on the solve's inner-belief ids; the scan reads
    each part under its choice, `parts[b1, u1, acts]`, and a pair's
    `belief2_step` branches are the sum of |points| parts, interned by
    signature.  Every posterior is a belief's reduced integer form: the
    only Fractions a step builds are its branch probabilities, and a
    belief's Fraction entries are built once, when a prescription domain
    is sorted by them (`Belief1.sort_key`).  Agent-1
    steps are cached for the whole solve in one `StepCache`, which interns
    the posteriors of every Bayes step: an equal belief reached again is
    found by its integer hash or signature and returned as the object first
    built, so memo lookups on it succeed by identity.  The cache is kept on
    the solution as `ExactSolution.cache`, where the policy walk and the
    executor reuse its steps.

    Every pair is scored in `MemoArgmin`'s integer loop.  With S = D * K
    the stage-cost denominator and Dn the `SharedStep`'s, a node's scale is
    S * Dn: a pair's cost c / S enters as c * Dn and a branch of integer
    total n (probability n / Dn) as the weight n * S.  The final stage's
    one candidate is its cost over S.  Each node's tables, the shared step
    included, are built only after its pairs are charged and the charge
    passes the budget.
    """
    T = model.horizon
    cache = StepCache()
    costs = [_scaled_costs(model.cost_table[t]) for t in range(T + 1)]
    l2_lists = [enumerate_private(info, model, t) for t in range(T + 1)]

    def expand(b2: Belief2):
        t = b2.t
        points = b2.belief1_support()
        live = _live(b2, l2_lists[t])
        n_u1 = model.action_space(1, t).size
        n_u2 = model.action_space(2, t).size
        n_pairs = (n_u1 ** len(points)) * (n_u2 ** len(live))
        scan = final_stage if t == T else candidates
        return t, n_pairs, scan(b2, t, points, live, n_u1, n_u2)

    def cost_table(b2, t, points, live, n_u1, n_u2):
        """(D * K, h) with h[(i, j)][u1][u2] for points[i] and live[j]."""
        denom, entries = b2.scaled()
        cost_denom, units = costs[t]
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
        return denom * cost_denom, h

    def by_ell(h, a1, n_live, n_u2):
        """r[j][u2]: the stage cost at live[j] under a1, per agent-2 action."""
        r = [[0] * n_u2 for _ in range(n_live)]
        for (i, j), rows in h.items():
            total = r[j]
            for u2, v in enumerate(rows[a1[i]]):
                total[u2] += v
        return r

    def final_stage(b2, t, points, live, n_u1, n_u2):
        scale, h = cost_table(b2, t, points, live, n_u1, n_u2)
        yield scale
        best = None
        for a1 in itertools.product(range(n_u1), repeat=len(points)):
            total, a2 = 0, []
            for r in by_ell(h, a1, len(live), n_u2):
                low = min(r)
                total += low
                a2.append(r.index(low))
            if best is None or total < best[0]:
                best = (total, a1, tuple(a2))
        total, a1, a2 = best
        yield (a1, a2), total, ()

    def candidates(b2, t, points, live, n_u1, n_u2):
        scale, h = cost_table(b2, t, points, live, n_u1, n_u2)
        # each inner belief reads a2 at the live positions of its private support
        where2 = {ell: j for j, ell in enumerate(live)}
        reads = [[where2[ell] for ell in b1.private_support()] for b1 in points]
        all_a2 = list(itertools.product(range(n_u2), repeat=len(live)))
        choices = [
            (b1, u1, acts)
            for b1, read in zip(points, reads)
            for u1 in range(n_u1)
            for acts in itertools.product(range(n_u2), repeat=len(read))
        ]
        step = SharedStep(model, info, b2, cache, choices)
        parts = step.parts
        # on_support[k][i]: agent 2's actions on points[i]'s private support under all_a2[k]
        on_support = [[tuple(a2[j] for j in read) for read in reads] for a2 in all_a2]
        # a pair's value is (c / scale + sum of (total / denom) * value):
        # its cost c * denom and weights total * scale over scale * denom
        denom = step.denom
        yield scale * denom
        for a1 in itertools.product(range(n_u1), repeat=len(points)):
            r = by_ell(h, a1, len(live), n_u2)
            for a2, acts in zip(all_a2, on_support):
                cost = sum(row[u2] for row, u2 in zip(r, a2)) * denom
                branches = step.branches([parts[choice] for choice in zip(points, a1, acts)])
                yield (a1, a2), cost, [(total * scale, b2n) for total, b2n in branches.values()]

    dp = MemoArgmin({}, resolve_budget(budget), "prescription pairs", expand)
    roots = cache.roots2(model, info)
    total = Fraction(0)
    for p, b2 in roots.values():
        total += p * dp.value(b2)
    memo = {b2: (v, *_prescriptions(b2, l2_lists[b2.t], a1, a2)) for b2, (v, a1, a2) in dp.memo.items()}
    return ExactSolution(model, info, total, roots, memo, dp.spent, cache)


def _live(b2: Belief2, l2_reals: list[A2Real]) -> list[A2Real]:
    """The private realizations in b2's support, in `l2_reals` order."""
    support = {ell for (_, ell, _), _ in b2.scaled()[1]}
    return [ell for ell in l2_reals if ell in support]


def _prescriptions(b2: Belief2, l2_reals: list[A2Real], a1: tuple, a2: tuple) -> tuple[Prescription, Prescription]:
    """The prescription pair of the action tuples (a1, a2) at b2: a1 over
    b2's inner points, a2 over its live private realizations, 0 elsewhere."""
    t = b2.t
    table2 = dict.fromkeys(l2_reals, 0)
    table2.update(zip(_live(b2, l2_reals), a2))
    return Prescription.for_agent1(t, dict(zip(b2.belief1_support(), a1))), Prescription.for_agent2(t, table2)


def _scaled_costs(stage) -> tuple[int, list]:
    """A stage's cost table, nested sequences of rationals at any depth
    (cost[x][u1][u2] here, cost[x1][x2][u1][u2] in `decoupled`), over one
    common denominator K: (K, k), k the same nesting of lists of integers,
    each cost k[...] / K."""
    denom, nums = scale_to_integers(_leaves(stage))
    flat = iter(nums)
    return denom, _deep_list(stage, lambda _: next(flat))


def optimal_psi2(model: TeamModel, info: InfoStructure, solution: ExactSolution) -> "TreePsi2":
    """Agent-2 prescription family realized by the solved joint policy along
    its own argmin tree, and the all-0 prescription off it (`TreePsi2`)."""
    return TreePsi2(model, info, {key: g2 for key, (_, g2) in solution.table.items()})


def extract_control_strategy(solution: ExactSolution) -> "PolicyRunner":
    """Executable team strategy from a solved joint policy: gamma1 read off
    the table, then `optimal_psi2`, so a history off the tree raises
    MissingKey."""
    model, info, table = solution.model, solution.info, solution.table

    def action1(b1: Belief1, a2real: A2Real) -> int:
        pair = table.get((b1.t, a2real))
        if pair is None:
            raise MissingKey(f"no prescription pair for t={b1.t}, accessible realization {a2real}")
        return pair[0](b1)

    return PolicyRunner(model, info, solution.cache, optimal_psi2(model, info, solution), action1, lambda b1: b1)


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


class TreePsi2(TablePsi2):
    """A `TablePsi2` that plays the all-0 prescription off its entries, so a
    best response that leaves a solved tree still meets a prescription.  Its
    JSON is the table's, and a loaded table stays strict."""

    def __init__(self, model: TeamModel, info: InfoStructure, entries: dict[tuple[int, A2Real], Prescription]):
        super().__init__(entries)
        self.off_tree = ConstantPsi2(model, info, 0)

    def prescription(self, t: int, a2real: A2Real) -> Prescription:
        presc = self.entries.get((t, a2real))
        return self.off_tree.prescription(t, a2real) if presc is None else presc


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
    """The family of a psi2 document, read against `model` and `info`; a
    malformed document raises NestedDPError "<JSON path>: <rule>", as does
    a repeated [t, accessible] pair or private realization in a table."""
    root = _Reader(doc)
    T = model.horizon
    kind = root["kind"].value
    if kind == "constant":
        n = min(model.action_space(2, t).size for t in range(T + 1))
        return ConstantPsi2(model, info, root["action"].index(n))
    if kind == "hashed":
        return HashedPsi2(model, info, root["seed"].integer())
    if kind != "table":
        root["kind"].fail("must be 'table', 'constant' or 'hashed'")
    entries, pairs = {}, {}
    for entry in root["entries"].items():
        t_node, a2_node, presc = entry.items(3)
        t = t_node.index(T + 1)
        a2real = a2_node.indices([info.var_space_size(model, v) for v in info.a2[t]])
        entry.unique(pairs, (t, a2real), "[t, accessible] pair")
        header = [presc.value.get(k) for k in ("agent", "t", "domain")] if isinstance(presc.value, dict) else None
        presc.require(
            header == [2, t, "private"] and type(header[0]) is type(header[1]) is int,
            f"must be an agent-2 prescription for t={t} on the private domain",
        )
        ell_sizes = [info.var_space_size(model, v) for v in info.l2[t]]
        n = model.action_space(2, t).size
        table, ells = [], {}
        for pair in presc["table"].items():
            ell_node, action = pair.items(2)
            ell = ell_node.indices(ell_sizes)
            pair.unique(ells, ell, "private realization")
            table.append((ell, action.index(n)))
        entries[t, a2real] = Prescription(2, t, "private", tuple(table))
    return TablePsi2(entries)


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
    _on_demand: MemoArgmin | None = field(default=None, compare=False, repr=False)
    cache: StepCache = field(default_factory=StepCache, compare=False, repr=False)
    _snaps: dict[Belief1, Belief1] = field(default_factory=dict, compare=False, repr=False)

    def action_at(self, b1: Belief1, a2real: A2Real) -> int:
        """Agent 1's solved action at (b1, a2real).  A key the solve did not
        reach, which a lattice policy's re-anchored chain can meet, is
        solved on demand into a memo layered over `memo`, so `memo` and the
        loss bound read off it stay as solved."""
        key = (b1, a2real)
        hit = self.memo.get(key)
        if hit is None:
            if self._on_demand is None:
                raise MissingKey(f"no solved entry for belief at t={b1.t}, accessible={a2real}")
            self._on_demand.value(key)
            hit = self._on_demand.memo[key]
        return hit[1]

    def dimension(self, t: int) -> int:
        """Coordinates of a stage-t belief vector: |X_t| * |L2_t|."""
        return self.model.states[t].size * len(self.private_lists[t])

    def snap(self, b1: Belief1) -> Belief1:
        """The lattice point nearest to b1 (b1 itself for the exact solve),
        computed once per belief: `lattice.nearest_point` of b1's vector,
        in integers.  With b1's entries n / D and resolution r, coordinate
        n / D scales to n * r / D, whose floor and fractional part are the
        quotient and remainder of n * r by D; the increments left go to the
        largest remainders, ties to the later coordinate.  Coordinates off
        the support never get one: the support's remainders are each below
        D and sum to D times the increments left, so that many of them are
        positive."""
        res = self.resolution
        if res is None:
            return b1
        point = self._snaps.get(b1)
        if point is None:
            plist = self.private_lists[b1.t]
            where = {ell: i for i, ell in enumerate(plist)}
            denom, entries = b1.scaled()
            counts, order, left = {}, [], res
            for key, n in entries:
                counts[key], rest = divmod(n * res, denom)
                left -= counts[key]
                x, ell = key
                order.append((rest, x * len(plist) + where[ell], key))
            order.sort(reverse=True)
            for _, _, key in order[:left]:
                counts[key] += 1
            # the point's reduced integer form: the counts over res, by their gcd
            g = math.gcd(res, *counts.values())
            point = self._snaps[b1] = Belief1._of(
                b1.t, (res // g, tuple((key, k // g) for key, k in sorted(counts.items()) if k))
            )
        return point

    def sup_value(self, t: int) -> Fraction:
        """Largest memoized |value| at stage t, the sup-norm of the stage-t
        table (zero beyond the horizon)."""
        best = Fraction(0)
        for (b1, _), (v, _) in self.memo.items():
            if b1.t == t and abs(v) > best:
                best = abs(v)
        return best

    def measured_lipschitz(self) -> Fraction:
        """Largest finite-difference ratio |dV| / dTV over same-stage,
        same-accessible-realization key pairs.  A conservative stand-in for
        a true Lipschitz bound; reported, never assumed tight.

        Each group's beliefs are integer vectors over the lcm L of their
        denominators, and its values integers over the lcm M of theirs, so
        a pair's ratio is |dv| * L / (dist * M) with integer |dv| and dist;
        pairs are compared by cross-multiplying |dv| / dist, and the group
        builds one Fraction, its largest ratio."""
        by_group: dict[tuple[int, A2Real], list[tuple[Belief1, Fraction]]] = {}
        for (b1, a2real), (v, _) in self.memo.items():
            by_group.setdefault((b1.t, a2real), []).append((b1, v))
        best = Fraction(0)
        for pairs in by_group.values():
            lcm_b = math.lcm(*(b1.scaled()[0] for b1, _ in pairs))
            lcm_v = math.lcm(*(v.denominator for _, v in pairs))
            # coordinates: the (x, ell) points in some belief's support
            where = {key: i for i, key in enumerate(dict.fromkeys(key for b1, _ in pairs for key in b1.support()))}
            vecs = []
            for b1, v in pairs:
                denom, entries = b1.scaled()
                vec = [0] * len(where)
                for key, n in entries:
                    vec[where[key]] = n * (lcm_b // denom)
                vecs.append((vec, v.numerator * (lcm_v // v.denominator)))
            top, top_dist = 0, 1
            for i, (p, vp) in enumerate(vecs):
                for q, vq in vecs[i + 1:]:
                    dist = sum(abs(a - b) for a, b in zip(p, q))
                    if dist and abs(vp - vq) * top_dist > top * dist:
                        top, top_dist = abs(vp - vq), dist
            ratio = Fraction(top * lcm_b, top_dist * lcm_v)
            if ratio > best:
                best = ratio
        return best


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
    cache = sol.cache
    costs = [_scaled_costs(model.cost_table[t]) for t in range(T + 1)]

    def expand(node):
        return node[0].t, 1, candidates(*node)

    def candidates(b1: Belief1, a2real: A2Real):
        t = b1.t
        g2 = psi2.prescription(t, a2real)
        # h[u1] / (D * K): b1's entries n / D, stage-t costs k / K
        denom, entries = b1.scaled()
        cost_denom, units = costs[t]
        h = [0] * model.action_space(1, t).size
        for (x, ell), n in entries:
            u2 = g2(ell)
            for u1, row in enumerate(units[x]):
                h[u1] += n * row[u2]
        branches = [()] * len(h)
        if t < T:
            acts = tuple(map(g2, b1.private_support()))
            z2_of = step_plan(info, t).z2_of
            for u1 in range(len(h)):
                branches[u1] = [
                    (q.numerator, q.denominator, (sol.snap(nxt), extend_a2(info, t, a2real, z2_of(z1))))
                    for z1, (q, nxt) in cache.step1_on(model, info, b1, u1, acts).items()
                ]
        yield from _agent1_node(denom * cost_denom, h, branches)

    dp = MemoArgmin(sol.memo, resolve_budget(budget), "value nodes", expand)
    a2_of = step_plan(info, -1).z2_of  # a2[0] = z2[0]
    for z1real, (p, b1) in cache.step1(model, info, _prior1(model), 0, _NULL2).items():
        a2real = a2_of(z1real)
        b1 = sol.snap(b1)
        sol.roots[z1real] = (p, b1, a2real)
        sol.value += p * dp.value((b1, a2real))
    dp.memo = ChainMap({}, sol.memo)
    sol._on_demand = dp
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


def _observed(info: InfoStructure, t: int, values) -> tuple[int, tuple[int, ...]]:
    """Agent 1's action at t - 1 and its new information at t, in `values`.
    At t = 0 the action is the null action 0, under which the step from the
    prior is taken and cached."""
    return (values[VarRef(t - 1, "U1")] if t else 0), tuple(values[v] for v in info.z1[t])


class PolicyRunner:
    """Closed-loop execution of a solved policy (the oracle/simulator
    strategy protocol): agent 1 plays `action1(b1, accessible realization)`
    on its belief b1, and agent 2 applies `psi2.prescription(t, accessible
    realization)` to its private realization.

    Agent 1 keeps two chains, both stepped from the prior through `cache`
    (the solve's, so it finds the steps the solve took), time 0 included:
    the exact posterior, and the chain `action1` reads, each step `snap`ped
    (the identity for exact policies, the nearest lattice point for lattice
    ones).  A realized observation the snapped chain rules out re-anchors it
    at the snapped exact posterior.  Both are functions of agent 1's own
    history, so the executed strategy stays feasible.  A time-0 realization
    the prior rules out raises ZeroProbabilityObservation.
    """

    def __init__(self, model: TeamModel, info: InfoStructure, cache: StepCache, psi2, action1, snap):
        self.model = model
        self.info = info
        self.cache = cache
        self.psi2 = psi2
        self.action1 = action1
        self.snap = snap
        self.prior = _prior1(model)

    def fresh_state(self):
        return {"exact": self.prior, "b1": self.prior, "g2": _NULL2}

    def act(self, st, t, values):
        model, info, cache = self.model, self.info, self.cache
        u1, z1 = _observed(info, t, values)
        exact = cache.update1(model, info, st["exact"], u1, st["g2"], z1)
        b1 = cache.step1(model, info, st["b1"], u1, st["g2"]).get(z1, (None, exact))[1]
        st["exact"], st["b1"] = exact, self.snap(b1)
        a2 = tuple(values[v] for v in info.a2[t])
        # the rule first: a history off a table raises the table's MissingKey
        action = self.action1(st["b1"], a2)
        g2 = st["g2"] = self.psi2.prescription(t, a2)
        return action, g2(tuple(values[v] for v in info.l2[t]))


def extract_pbp_strategy(pbp: PbpSolution) -> PolicyRunner:
    return PolicyRunner(pbp.model, pbp.info, pbp.cache, pbp.psi2, pbp.action_at, pbp.snap)


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
