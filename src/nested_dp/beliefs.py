"""Information-state beliefs and their strategy-independent updates.

Two layers of belief are tracked:

  Belief1 -- agent 1's conditional distribution over (state, agent-2 private
  values) given agent 1's memory and the past agent-2 prescriptions.  It is
  also the point that gets quantized onto the simplex lattice.

  Belief2 -- the shared conditional distribution over (state, agent-2
  private values, Belief1) given the accessible information and all past
  prescriptions.  Its support is a finite set of triples because Belief1 has
  finitely many reachable realizations on a finite horizon.

A Belief2 is a mixture of its inner beliefs: every entry factors as
w(b1) * b1(x, ell), because the accessibility rule of `check_nestedness`
puts a2[t] inside m1[t], so conditioning on agent 1's memory refines
conditioning on the accessible information.  The shared step is therefore
computed from agent-1 steps, one per inner belief, and the novelty rule
(z2[t+1] inside z1[t+1]) reads each branch's shared increment off agent 1's
new information.  `SharedStep` is that computation, the only one: each
agent-1 step becomes an integer part of the shared step, and a pair's step
is the sum of its parts.  `belief1_step` is the only Bayes kernel that runs
over the model's primitive draws.  Time 0 is its step from the prior at
t = -1, the initial state law, which moves nothing and observes time 0:
every agent-1 chain starts at that prior, and `StepCache.roots2` is
`belief2_step` from the shared prior.

Both updates are pure Bayes steps driven by realized new information; no
strategy object appears anywhere in the computation, which is the
strategy-independence property the solver relies on.  Conditioning on an
impossible realization raises ZeroProbabilityObservation instead of silently
renormalizing: the solver only ever expands positive-probability branches,
so a zero denominator is a bug signal, not a recoverable state.

All beliefs are immutable, canonically ordered (sorted support, reduced
weights, zero weights dropped), and hashable, so equal distributions are
structurally equal and usable as memoization keys.

The arithmetic of a step is over exact integers.  Every belief -- `Belief1`,
`Belief2` and the decoupled filters' `MarginalBelief`, all `_Scaled` -- is
its reduced integer form, (D, ((key, n), ...)) with each weight n / D
and no common factor in the n, and a primitive distribution is scaled once
to such a form (`Dist.scaled`, cached on the instance).  The agent-1 step
reads the model's compiled world kernel (`TeamModel.world_kernel`): per
stage, state and action pair, the disturbance and noise draws pooled into
integer weights of (x', y1', y2').  The joint weights of a step accumulate
as integers over the product of the denominators, and a posterior is
built with one gcd over its branch's numerators, so the only Fraction a
step builds is each branch probability.  A belief's Fraction entries,
equal to the ones a Fraction accumulator gives, are built on first read,
once, for `entries`, `sort_key` and `to_json`.

A `StepCache(model, info)`, one per solve and kept on its solution, holds
the model and structure it serves and is the one memo of their Bayes
steps; it interns their posteriors (hash-consing): each distinct
agent-1 posterior is one object, found by its integer hash, and a shared
posterior is looked up by its integer signature -- the branch's numerators
divided by their gcd -- before any sort is spent on it, so an equal belief
reached again is the object built the first time.  Nothing is interned
across solves; the world kernel, which reads only the model, is the one
table kept on the model.

The cache also gives each distinct agent-1 posterior a per-solve id, a
dense index in order of first sight.  The shared step keys its integer
entries on (x, ell, id) rather than on the inner belief itself, so summing
parts and signing a branch hash tuples of integers; a new shared posterior
maps each id back to its belief and sorts by `_belief2_order`.  The shared
step's branch totals stay integers over its one denominator, which the
joint solver's integer argmin reads directly; `belief2_step` turns them
into Fraction probabilities.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from types import MappingProxyType

from .errors import DomainGap, ZeroProbabilityObservation
from .info import InfoStructure, step_plan
from .model import TeamModel, format_ratio, scale_to_integers

__all__ = [
    "Belief1",
    "Belief2",
    "MarginalBelief",
    "Prescription",
    "update_belief1",
    "belief1_step",
    "belief2_step",
    "SharedStep",
    "StepCache",
    "expected_cost1",
    "expected_cost2",
    "initial_belief1_roots",
]

PrivateReal = tuple[int, ...]


def _canon_entries(weights: dict, sort_key) -> tuple:
    entries = tuple(
        (key, w) for key, w in sorted(weights.items(), key=lambda kv: sort_key(kv[0])) if w != 0
    )
    if not entries:
        raise ValueError("belief with empty support")
    total = sum(w for _, w in entries)
    if total != 1:
        raise ValueError(f"belief weights sum to {total}, expected 1")
    return entries


def _belief2_order(key) -> tuple:
    x, ell, b1 = key
    return (x, ell, b1.sort_key())


class _Scaled:
    """A belief whose data is its reduced integer form (D, ((key, n), ...)):
    each weight n / D, in entry order, the n without a common factor, so D
    is the lcm of the weights' denominators and equal distributions have
    equal forms.  `__eq__` and `__hash__` read `_key()`: t and these
    integers, and a subclass's own fields (a `MarginalBelief`'s agent).
    `scaled()` returns the form as stored.  `_of(t, form)` takes a reduced
    form as it is, which is how the Bayes steps build their posteriors; the
    constructor takes (key, weight) entries of rationals and scales them.

    The Fraction entries are built from the form on first use, once:
    `entries`, `sort_key` and `to_json` read them, and no Bayes
    step or cost table does.  Beliefs are values: do not assign to one."""

    __slots__ = ("t", "_scaled", "_entries", "_hash")

    def __init__(self, t: int, entries):
        entries = tuple(entries)
        denom, nums = scale_to_integers(w for _, w in entries)
        self.t = t
        self._scaled = (denom, tuple(zip((key for key, _ in entries), nums)))
        self._entries = entries

    @classmethod
    def _of(cls, t: int, scaled: tuple[int, tuple]):
        self = object.__new__(cls)
        self.t = t
        self._scaled = scaled
        return self

    def scaled(self) -> tuple[int, tuple]:
        """The entries over one common denominator D: (D, ((key, n), ...)),
        each weight n / D, in entry order."""
        return self._scaled

    @property
    def entries(self) -> tuple:
        """The (key, Fraction weight) entries, in order.  Built once."""
        try:
            return self._entries
        except AttributeError:
            denom, nums = self._scaled
            entries = self._entries = tuple((key, Fraction(n, denom)) for key, n in nums)
            return entries

    def items(self):
        return self.entries

    def support(self) -> list:
        return [key for key, _ in self._scaled[1]]

    def sort_key(self):
        """The Fraction entries: the order of prescription domains, and so
        of the memo and every digest, is the order of these tuples."""
        return self.entries

    def _key(self) -> tuple:
        """What equality and hashing read: t and the integer form."""
        return self.t, self._scaled

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):  # cached: beliefs are hot memoization keys
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash(self._key())
            return h

    def __repr__(self):
        return f"{type(self).__name__}(t={self.t!r}, entries={self.entries!r})"


class Belief1(_Scaled):
    """Distribution over (state, private realization) pairs at time t."""

    __slots__ = ("_ells",)

    @staticmethod
    def from_weights(t: int, weights: dict[tuple[int, PrivateReal], Fraction]) -> "Belief1":
        return Belief1(t, _canon_entries(weights, lambda k: k))

    def private_support(self) -> tuple[PrivateReal, ...]:
        """Distinct private realizations of the support, in entry order:
        the only arguments an agent-2 prescription is read at by a step or
        a cost from this belief."""
        try:
            return self._ells
        except AttributeError:
            ells = self._ells = tuple(dict.fromkeys(ell for (_, ell), _ in self._scaled[1]))
            return ells

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "entries": [[[x, list(ell)], format_ratio(w)] for (x, ell), w in self.entries],
        }


class Belief2(_Scaled):
    """Distribution over (state, private realization, Belief1) triples."""

    __slots__ = ("_mix", "_mixture", "_points")

    @staticmethod
    def from_weights(t: int, weights: dict[tuple[int, PrivateReal, Belief1], Fraction]) -> "Belief2":
        for (x, ell, b1) in weights:
            if b1.t != t:
                raise ValueError(f"support belief at t={b1.t} inside a t={t} state")
        return Belief2(t, _canon_entries(weights, _belief2_order))

    def mixture_numerators(self) -> tuple[int, MappingProxyType]:
        """The mixture weights over the entries' common denominator D:
        (D, {b1: n}), read-only, in order of first appearance.  Cached."""
        try:
            return self._mix
        except AttributeError:
            denom, entries = self._scaled
            nums: dict[Belief1, int] = {}
            for (_, _, b1), n in entries:
                nums[b1] = nums.get(b1, 0) + n
            mix = self._mix = (denom, MappingProxyType(nums))
            return mix

    def mixture(self) -> MappingProxyType:
        """The weight of each inner belief, read-only: every entry is
        mixture()[b1] * b1(x, ell).  Cached."""
        try:
            return self._mixture
        except AttributeError:
            denom, nums = self.mixture_numerators()
            out = self._mixture = MappingProxyType({b1: Fraction(n, denom) for b1, n in nums.items()})
            return out

    def belief1_support(self) -> list[Belief1]:
        """Distinct inner beliefs, in canonical order (prescription domains).
        The order is sorted once per instance; each call returns a new list."""
        try:
            points = self._points
        except AttributeError:
            points = self._points = tuple(sorted(self.mixture_numerators()[1], key=Belief1.sort_key))
        return list(points)

    def marginal_state_private(self) -> dict[tuple[int, PrivateReal], Fraction]:
        out: dict[tuple[int, PrivateReal], Fraction] = {}
        for (x, ell, _), w in self.entries:
            out[(x, ell)] = out.get((x, ell), Fraction(0)) + w
        return out

    def mixture_state_private(self) -> dict[tuple[int, PrivateReal], Fraction]:
        """Average the inner beliefs by their mixture weights.  Agrees with
        marginal_state_private by the tower property; both are tested against
        direct conditioning."""
        out: dict[tuple[int, PrivateReal], Fraction] = {}
        for b1, w in self.mixture().items():
            for (x, ell), p in b1.items():
                out[(x, ell)] = out.get((x, ell), Fraction(0)) + w * p
        return out

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "entries": [
                [[x, list(ell), b1.to_json()], format_ratio(w)]
                for (x, ell, b1), w in self.entries
            ],
        }


class MarginalBelief(_Scaled):
    """Per-agent filtered belief used under decoupled dynamics.

    Agent 1's version is a distribution over its own state; agent 2's is
    over (own state, private realization), conditioned on the shared data.
    The agent is part of the value: equality and hashing read it too."""

    __slots__ = ("agent",)

    def __init__(self, agent: int, t: int, entries):
        super().__init__(t, entries)
        self.agent = agent

    @classmethod
    def _of(cls, agent: int, t: int, scaled: tuple[int, tuple]) -> "MarginalBelief":
        self = super()._of(t, scaled)
        self.agent = agent
        return self

    @staticmethod
    def from_weights(agent: int, t: int, weights: dict) -> "MarginalBelief":
        return MarginalBelief(agent, t, _canon_entries(weights, lambda k: k))

    def _key(self) -> tuple:
        return self.agent, self.t, self._scaled

    def __repr__(self):
        return f"MarginalBelief(agent={self.agent!r}, t={self.t!r}, entries={self.entries!r})"


@dataclass(frozen=True)
class Prescription:
    """A finite map from locally-held data to an action, chosen centrally.

    Agent 2's prescriptions map private realizations to actions; agent 1's
    map belief points (exact or lattice) to actions.  The table is total on
    its declared domain; queries outside it raise DomainGap.
    """

    agent: int
    t: int
    domain: str  # "private" | "belief"
    table: tuple[tuple[object, int], ...]

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.agent, self.t, self.domain, self.table))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def for_agent2(t: int, mapping: dict[PrivateReal, int]) -> "Prescription":
        table = tuple(sorted(mapping.items()))
        return Prescription(2, t, "private", table)

    @staticmethod
    def for_agent1(t: int, mapping: dict[Belief1, int]) -> "Prescription":
        table = tuple(sorted(mapping.items(), key=lambda kv: kv[0].sort_key()))
        return Prescription(1, t, "belief", table)

    def __call__(self, key) -> int:
        table = self.__dict__.get("_map")
        if table is None:
            table = dict(self.table)
            object.__setattr__(self, "_map", table)
        try:
            return table[key]
        except KeyError:
            raise DomainGap(
                f"prescription (agent {self.agent}, t={self.t}) undefined at {key!r}"
            ) from None

    def to_json(self) -> dict:
        if self.domain == "private":
            table = [[list(k), a] for k, a in self.table]
        else:
            table = [[k.to_json(), a] for k, a in self.table]
        return {"agent": self.agent, "t": self.t, "domain": self.domain, "table": table}


# ---------------------------------------------------------------------------
# The Bayes-branch kernel shared by every one-step update: accumulate the
# joint weight of each (observed key, support point) as an integer numerator
# over one common denominator, then normalize per key.  Each step reads its
# inputs as integers (`scaled()`, `Dist.scaled`, `TeamModel.world_kernel`),
# so the inner loops multiply and add integers; a Fraction is built only for
# each branch probability, and a posterior is its reduced integer form.
# ---------------------------------------------------------------------------


def _joint() -> defaultdict:
    """Accumulator for `{observed key: {support point: n}}`, each joint
    weight n / D over one common denominator D."""
    return defaultdict(lambda: defaultdict(int))


def _branches(acc: dict, make, order=None, interned=None) -> dict:
    """The one branch normalizer of every Bayes step.  Turns `{key:
    {support: n}}`, joint weights over the step's denominator D with every
    n positive, into `{key: (total, posterior)}`: each key's integer Bayes
    total, its branch probability total / D, and its `_posterior`, to
    which `order` and `interned` are passed on.  The result is built in
    sorted key order, so iterating it needs no further sort."""
    out = {}
    for key in sorted(acc):
        nums = acc[key]
        total = sum(nums.values())
        out[key] = (total, _posterior(nums, total, make, order, interned))
    return out


def _over(denom: int, branches: dict) -> dict:
    """`_branches`' result with each total turned into its branch
    probability total / denom, as the public steps return it."""
    return {key: (Fraction(n, denom), post) for key, (n, post) in branches.items()}


def _posterior(nums: dict, total: int, make, order=None, interned=None):
    """The posterior of a branch `{support: n}`, n positive, weights n /
    total: make((total // g, items)), g the gcd of the n and items the
    (support, n // g) pairs sorted by the key function `order` when given.
    That is the posterior's reduced integer form, so no Fraction is built.

    With `interned`, a {signature: posterior} table, the signature of the
    branch is the frozenset of those pairs: a reduced vector of positive
    integers fixes the ratios n / total, so two branches have equal
    signatures exactly when their posteriors are equal.  A branch whose
    signature is in the table takes the stored posterior, and no sort is
    spent on it; a new posterior is built and stored.  A shared step's
    support points are (x, ell, i), i the solve's id of the inner belief
    (`StepCache.ids`), which carries its time, so the signature hashes
    integers only."""
    g = math.gcd(*nums.values())
    reduced = [(k, n // g) for k, n in nums.items()]
    if interned is None:
        return make((total // g, tuple(sorted(reduced, key=order))))
    sig = frozenset(reduced)
    post = interned.get(sig)
    if post is None:
        post = interned[sig] = make((total // g, tuple(sorted(reduced, key=order))))
    return post


# ---------------------------------------------------------------------------
# Agent-1 belief: one-step update, and time 0 as the step from the prior.
# ---------------------------------------------------------------------------


# A prior's step (t = -1) has no disturbance and keeps the state.  No
# action is taken before time 0, so no plan reads a null action.
_NO_DISTURBANCE = (1, ((0, 1),))
_NULL2 = Prescription.for_agent2(-1, {(): 0})


def _prior1(model: TeamModel) -> Belief1:
    """Agent 1's belief at t = -1: the initial state law, nothing private."""
    denom, nums = model.x0_dist.scaled()
    return Belief1._of(-1, (denom, tuple(((x0, ()), n) for x0, n in nums)))


def initial_belief1_roots(
    model: TeamModel, info: InfoStructure
) -> dict[tuple[int, ...], tuple[Fraction, Belief1]]:
    """All positive-probability realizations of agent 1's time-0 new
    information, with their probabilities and conditional beliefs: the
    `belief1_step` from the prior."""
    return belief1_step(model, info, _prior1(model), 0, _NULL2)


def belief1_step(
    model: TeamModel,
    info: InfoStructure,
    b1: Belief1,
    u1: int,
    gamma2: Prescription,
) -> dict[tuple[int, ...], tuple[Fraction, Belief1]]:
    """All one-step continuations of a Belief1 under (own action, agent-2
    prescription): realized new-information tuple -> (probability, posterior).

    The probabilities are the Bayes denominators of each branch; they sum to
    one over the returned keys.  A b1 at t = -1 is a prior: its step moves
    nothing and observes time 0, and the actions it is given are never read.

    The step reads the model's compiled world kernel for the stage
    (`TeamModel.world_kernel`): for each support point (x, ell), the draws
    (w, v1, v2) under (u1, gamma2(ell)) pooled into integer weights of (x',
    y1', y2'), so the loop runs over distinct outcomes, not over draws, and
    reads no table of the model.  Each posterior is its reduced integer
    form, built with one gcd over its branch's numerators.
    """
    t = b1.t
    if t >= model.horizon:
        raise ValueError(f"no transition out of the final time {t}")
    plan = step_plan(info, t)
    z1_of, ell_next_of = plan.read_z1, plan.read_l2
    db, entries = b1.scaled()
    dk, kernel = model.world_kernel(t)
    acc = _joint()
    for (x, ell), n in entries:
        u2 = gamma2(ell)
        for (x_next, y1, y2), k in (kernel[x] if t < 0 else kernel[x][u1][u2]):
            slots = ell + (y1, y2, u1, u2)
            acc[z1_of(slots)][(x_next, ell_next_of(slots))] += n * k
    return _over(db * dk, _branches(acc, partial(Belief1._of, t + 1)))


def update_belief1(
    model: TeamModel,
    info: InfoStructure,
    b1: Belief1,
    u1: int,
    gamma2: Prescription,
    z1: tuple[int, ...],
) -> Belief1:
    """Condition the one-step prediction on the realized new information."""
    return StepCache(model, info).update1(b1, u1, gamma2, z1)


# ---------------------------------------------------------------------------
# Agent-2 (shared) belief: one-step update.
# ---------------------------------------------------------------------------


class StepCache:
    """The Bayes-step memo of one (model, info), which it holds as `model`
    and `info` from its construction on: the steps do not depend on the
    strategy, so the cache is a solve's whole context, and no step is
    given the model or the structure again.  Each distinct agent-1 step
    and posterior is built once and reused as one object.  There is no
    table of time-0 beliefs: time 0 is the step from the prior (`_prior1`,
    under the null action 0 and `_NULL2`), kept among the others, so a
    chain of agent-1 updates starts at the prior and its first update
    finds the step the solve took.

      steps     agent-1 steps, keyed on (b1, u1, gamma2 on b1's private
                support), the step from the prior among them;
      ids       each distinct agent-1 posterior (of the steps), keyed
                by value, to its id: a dense index in order of first sight;
      points    the posteriors by id, each the object first built;
      beliefs2  each distinct shared posterior, keyed on its signature
                (`_posterior`).

    A shared step keys its entries on (x, ell, id), so merging and signing
    them hashes integers only; a new shared posterior maps the ids back
    through `points`.

    The steps run through the module's `belief1_step`, looked up at call
    time, so a rebound function is the one called."""

    __slots__ = ("model", "info", "steps", "ids", "points", "beliefs2")

    def __init__(self, model: TeamModel, info: InfoStructure):
        self.model = model
        self.info = info
        self.steps: dict = {}
        self.ids: dict[Belief1, int] = {}
        self.points: list[Belief1] = []
        self.beliefs2: dict[frozenset, Belief2] = {}

    def _interned(self, branches: dict) -> dict:
        ids, points = self.ids, self.points
        out = {}
        for z1, (q, post) in branches.items():
            i = ids.setdefault(post, len(points))
            if i == len(points):
                points.append(post)
            out[z1] = (q, points[i])
        return out

    def roots2(self) -> dict[tuple[int, ...], tuple[Fraction, Belief2]]:
        """Positive-probability time-0 accessible realizations and their
        shared beliefs, with interned posteriors: `belief2_step` on this
        cache from the shared prior, under null prescriptions."""
        b1 = _prior1(self.model)
        denom, entries = b1.scaled()
        b2 = Belief2._of(-1, (denom, tuple(((x, ell, b1), n) for (x, ell), n in entries)))
        return belief2_step(b2, Prescription.for_agent1(-1, {b1: 0}), _NULL2, self)

    def step1(self, b1: Belief1, u1: int, gamma2: Prescription) -> dict[tuple[int, ...], tuple[Fraction, Belief1]]:
        """`belief1_step`, cached, with interned posteriors."""
        return self.step1_on(b1, u1, tuple(map(gamma2, b1.private_support())))

    def step1_on(self, b1: Belief1, u1: int, acts: tuple[int, ...]) -> dict[tuple[int, ...], tuple[Fraction, Belief1]]:
        """`step1` under agent 2 playing acts[k] at b1.private_support()[k],
        the only arguments the step reads its prescription at; on a miss
        the step runs under that restriction of the prescription."""
        key = (b1, u1, acts)
        hit = self.steps.get(key)
        if hit is None:
            gamma2 = Prescription.for_agent2(b1.t, dict(zip(b1.private_support(), acts)))
            hit = self.steps[key] = self._interned(belief1_step(self.model, self.info, b1, u1, gamma2))
        return hit

    def update1(self, b1: Belief1, u1: int, gamma2: Prescription, z1: tuple[int, ...]) -> Belief1:
        """`update_belief1`, cached: the posterior of `step1`'s branch z1.
        An absent branch had probability 0 and raises
        ZeroProbabilityObservation."""
        branches = self.step1(b1, u1, gamma2)
        if z1 not in branches:
            raise ZeroProbabilityObservation(
                f"new information {z1} impossible at t={b1.t} under the given belief and actions"
            )
        return branches[z1][1]


def belief2_step(
    b2: Belief2, gamma1: Prescription, gamma2: Prescription, cache: StepCache
) -> dict[tuple[int, ...], tuple[Fraction, Belief2]]:
    """All one-step continuations of a Belief2 under a prescription pair:
    realized shared-increment tuple -> (probability, posterior).

    The step is a mixture of agent-1 steps.  Each entry of b2 factors as
    w(b1) * b1(x, ell), with w from `Belief2.mixture_numerators`, so each
    inner belief b1 takes one agent-1 step under its action gamma1(b1), and
    its branch z1 -> (q, b1') adds w * q * b1'(x', ell') to the entry (x',
    ell', b1') under the z2[t+1] part of z1.  This relies on two nestedness
    rules that `check_nestedness` enforces: accessibility (a2[t] inside
    m1[t], which gives the factorization) and novelty (z2[t+1] inside
    z1[t+1]).

    The agent-1 steps come from `cache.step1`, and each posterior equal to
    one the cache has seen is returned as that same object.  The mixture
    is a `SharedStep` over these agent-1 steps, one per inner belief: the
    table the joint solver builds per node, here for one pair, whose
    integer branch totals become Fractions here.
    """
    choices = ((b1, gamma1(b1), tuple(map(gamma2, b1.private_support()))) for b1 in b2.mixture_numerators()[1])
    step = SharedStep(b2, cache, choices)
    return _over(step.denom, step.branches(step.parts.values()))


class SharedStep:
    """Shared steps out of one Belief2 b2, by agent-1 step: the one code
    path of `belief2_step`, and the per-node table of the joint solver's
    scan.

    `choices` yields (b1, u1, acts) triples: an inner belief of b2, its
    agent-1 action, and agent 2's actions on b1.private_support().  Each
    choice's agent-1 step comes from `cache.step1_on` and is turned once
    into its part of the shared step, `parts[b1, u1, acts]`, a table
    {z2: {(x, ell, i): n}} of integers over the one denominator `denom`:
    with b1's mixture weight w / D, a branch z1 -> (q, b1') adds w * q *
    b1'(x, ell) to the entry (x, ell, i) under z1's z2[t+1] part, i the
    cache's id of b1' (`StepCache.ids`).  With b1' scaled as (d, {(x,
    ell): n}) that term is w * q.numerator * n over D * q.denominator * d,
    so every term of every part shares the denominator D * L, L the lcm of
    the q.denominator * d, which is `denom`.

    `branches(parts)` sums the parts of one prescription pair, one per
    inner belief, and returns its branches as {z2: (total, posterior)},
    each branch probability the integer total / `denom`.  A new posterior
    is the branch's reduced integer form (`_branches`), each entry (x,
    ell, i) mapped back to (x, ell, points[i]) and sorted by
    `_belief2_order`, and interned in `interned`, the cache's
    shared-posterior table.
    """

    __slots__ = ("t", "denom", "parts", "points", "interned")

    def __init__(self, b2: Belief2, cache: StepCache, choices):
        denom, mixture = b2.mixture_numerators()
        z2_of, ids = step_plan(cache.info, b2.t).z2_of, cache.ids
        terms = {}
        for b1, u1, acts in choices:
            w, term = mixture[b1], []
            for z1, (q, post) in cache.step1_on(b1, u1, acts).items():
                d, entries = post.scaled()
                term.append((w * q.numerator, q.denominator * d, z2_of(z1), ids[post], entries))
            terms[b1, u1, acts] = term
        common = math.lcm(*(d for term in terms.values() for _, d, *_ in term))
        self.parts = {}
        for choice, term in terms.items():
            part = self.parts[choice] = {}
            for c, d, key, i, entries in term:
                c *= common // d
                weights = part.setdefault(key, {})
                for (x, ell), n in entries:
                    entry = (x, ell, i)
                    weights[entry] = weights.get(entry, 0) + c * n
        self.t, self.denom = b2.t, denom * common
        self.points = cache.points
        self.interned = cache.beliefs2

    def branches(self, parts) -> dict[tuple[int, ...], tuple[int, Belief2]]:
        groups: dict = {}
        summed = set()  # keys whose group is a copy, owned here; a key one part holds is read off it
        for part in parts:
            for key, weights in part.items():
                group = groups.get(key)
                if group is None:
                    groups[key] = weights
                    continue
                if key not in summed:
                    summed.add(key)
                    group = groups[key] = dict(group)
                for entry, n in weights.items():
                    group[entry] = group.get(entry, 0) + n
        t, points = self.t + 1, self.points

        def make(form):
            denom, entries = form
            return Belief2._of(t, (denom, tuple(((x, ell, points[i]), n) for (x, ell, i), n in entries)))

        def order(item):
            x, ell, i = item[0]
            return _belief2_order((x, ell, points[i]))

        return _branches(groups, make, order, self.interned)


# ---------------------------------------------------------------------------
# Belief-conditional expected stage costs.
# ---------------------------------------------------------------------------


def expected_cost1(model: TeamModel, b1: Belief1, u1: int, gamma2: Prescription) -> Fraction:
    """Expected stage cost given agent 1's belief, its action, and the
    prescription agent 2 is operating under."""
    return sum(
        (model.cost(b1.t, x, u1, gamma2(ell)) * p for (x, ell), p in b1.items()),
        Fraction(0),
    )


def expected_cost2(
    model: TeamModel, b2: Belief2, gamma1: Prescription, gamma2: Prescription
) -> Fraction:
    """Expected stage cost given the shared belief and both prescriptions."""
    return sum(
        (model.cost(b2.t, x, gamma1(b1), gamma2(ell)) * p for (x, ell, b1), p in b2.items()),
        Fraction(0),
    )
