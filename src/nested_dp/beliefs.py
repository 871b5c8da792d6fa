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
new information.  `belief1_step` and `initial_belief1_roots` are the only
Bayes kernels that run over the model's primitive draws.

Both updates are pure Bayes steps driven by realized new information; no
strategy object appears anywhere in the computation, which is the
strategy-independence property the solver relies on.  Conditioning on an
impossible realization raises ZeroProbabilityObservation instead of silently
renormalizing: the solver only ever expands positive-probability branches,
so a zero denominator is a bug signal, not a recoverable state.

All beliefs are immutable, canonically ordered (sorted support, reduced
fractions, zero weights dropped), and hashable, so equal distributions are
structurally equal and usable as memoization keys.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import DomainGap, ZeroProbabilityObservation
from .info import InfoStructure, merge_picker, step_plan
from .model import TeamModel, format_ratio, parse_ratio

__all__ = [
    "Belief1",
    "Belief2",
    "MarginalBelief",
    "Prescription",
    "update_belief1",
    "update_belief2",
    "belief1_step",
    "belief2_step",
    "expected_cost1",
    "expected_cost2",
    "initial_belief1",
    "initial_belief2",
    "initial_belief1_roots",
    "initial_belief2_roots",
    "belief1_vector",
    "belief1_from_vector",
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


@dataclass(frozen=True)
class Belief1:
    """Distribution over (state, private realization) pairs at time t."""

    t: int
    entries: tuple[tuple[tuple[int, PrivateReal], Fraction], ...]

    def __hash__(self):  # cached: beliefs are hot memoization keys
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.t, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def from_weights(t: int, weights: dict[tuple[int, PrivateReal], Fraction]) -> "Belief1":
        return Belief1(t, _canon_entries(weights, lambda k: k))

    def items(self):
        return self.entries

    def prob(self, x: int, ell: PrivateReal) -> Fraction:
        for key, w in self.entries:
            if key == (x, ell):
                return w
        return Fraction(0)

    def support(self) -> list[tuple[int, PrivateReal]]:
        return [key for key, _ in self.entries]

    def private_support(self) -> tuple[PrivateReal, ...]:
        """Distinct private realizations of the support, in entry order:
        the only arguments an agent-2 prescription is read at by a step or
        a cost from this belief."""
        ells = self.__dict__.get("_ells")
        if ells is None:
            ells = tuple(dict.fromkeys(ell for (_, ell), _ in self.entries))
            object.__setattr__(self, "_ells", ells)
        return ells

    def sort_key(self):
        return self.entries

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "entries": [[[x, list(ell)], format_ratio(w)] for (x, ell), w in self.entries],
        }

    @staticmethod
    def from_json(doc: dict) -> "Belief1":
        weights = {(x, tuple(ell)): parse_ratio(w) for (x, ell), w in doc["entries"]}
        return Belief1.from_weights(doc["t"], weights)


@dataclass(frozen=True)
class Belief2:
    """Distribution over (state, private realization, Belief1) triples."""

    t: int
    entries: tuple[tuple[tuple[int, PrivateReal, Belief1], Fraction], ...]

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.t, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def from_weights(t: int, weights: dict[tuple[int, PrivateReal, Belief1], Fraction]) -> "Belief2":
        for (x, ell, b1) in weights:
            if b1.t != t:
                raise ValueError(f"support belief at t={b1.t} inside a t={t} state")
        return Belief2(t, _canon_entries(weights, lambda k: (k[0], k[1], k[2].sort_key())))

    def items(self):
        return self.entries

    def support(self):
        return [key for key, _ in self.entries]

    def mixture(self) -> dict[Belief1, Fraction]:
        """The weight of each inner belief: every entry is mixture()[b1] *
        b1(x, ell)."""
        out: dict[Belief1, Fraction] = {}
        for (_, _, b1), w in self.entries:
            out[b1] = out.get(b1, Fraction(0)) + w
        return out

    def belief1_support(self) -> list[Belief1]:
        """Distinct inner beliefs, in canonical order (prescription domains)."""
        return sorted(self.mixture(), key=Belief1.sort_key)

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

    @staticmethod
    def from_json(doc: dict) -> "Belief2":
        weights = {
            (x, tuple(ell), Belief1.from_json(b1)): parse_ratio(w)
            for (x, ell, b1), w in doc["entries"]
        }
        return Belief2.from_weights(doc["t"], weights)


@dataclass(frozen=True)
class MarginalBelief:
    """Per-agent filtered belief used under decoupled dynamics.

    Agent 1's version is a distribution over its own state; agent 2's is
    over (own state, private realization), conditioned on the shared data.
    """

    agent: int
    t: int
    entries: tuple[tuple[object, Fraction], ...]

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.agent, self.t, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def from_weights(agent: int, t: int, weights: dict) -> "MarginalBelief":
        return MarginalBelief(agent, t, _canon_entries(weights, lambda k: k))

    def items(self):
        return self.entries

    def support(self):
        return [key for key, _ in self.entries]

    def sort_key(self):
        return self.entries


@dataclass(frozen=True)
class Prescription:
    """A finite map from locally-held data to an action, chosen centrally.

    Agent 2's prescriptions map private realizations to actions; agent 1's
    map belief points (exact or lattice) to actions.  The table is total on
    its declared domain; queries outside it raise DomainGap.
    """

    agent: int
    t: int
    domain: str  # "private" | "belief" | "lattice"
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
    def for_agent1(t: int, mapping: dict[Belief1, int], domain: str = "belief") -> "Prescription":
        table = tuple(sorted(mapping.items(), key=lambda kv: kv[0].sort_key()))
        return Prescription(1, t, domain, table)

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

    def keys(self):
        return [k for k, _ in self.table]

    def to_json(self) -> dict:
        if self.domain == "private":
            table = [[list(k), a] for k, a in self.table]
        else:
            table = [[k.to_json(), a] for k, a in self.table]
        return {"agent": self.agent, "t": self.t, "domain": self.domain, "table": table}

    @staticmethod
    def from_json(doc: dict) -> "Prescription":
        if doc["domain"] == "private":
            table = tuple((tuple(k), a) for k, a in doc["table"])
        else:
            table = tuple((Belief1.from_json(k), a) for k, a in doc["table"])
        return Prescription(doc["agent"], doc["t"], doc["domain"], table)


# ---------------------------------------------------------------------------
# The Bayes-branch kernel shared by every one-step update: accumulate the
# joint weight of each (observed key, support point), then normalize per key.
# ---------------------------------------------------------------------------


def _joint() -> defaultdict:
    """Accumulator for `{observed key: {support point: joint weight}}`."""
    return defaultdict(lambda: defaultdict(Fraction))


def _branches(acc: dict, make) -> dict:
    """Turn `{key: {support: weight}}` into `{key: (total, make(normalized
    weights))}`: each key's Bayes denominator and posterior.  The result is
    built in sorted key order, so iterating it needs no further sort."""
    out = {}
    for key in sorted(acc):
        weights = acc[key]
        total = sum(weights.values())
        out[key] = (total, make({k: w / total for k, w in weights.items()}))
    return out


def _condition(branches: dict, key, message: str, *args):
    """The posterior of one branch; an absent branch had probability 0 and
    raises ZeroProbabilityObservation with `message.format(key, *args)`."""
    if key not in branches:
        raise ZeroProbabilityObservation(message.format(key, *args))
    return branches[key][1]


# ---------------------------------------------------------------------------
# Agent-1 belief: initialization and one-step update.
# ---------------------------------------------------------------------------


def initial_belief1_roots(
    model: TeamModel, info: InfoStructure
) -> dict[tuple[int, ...], tuple[Fraction, Belief1]]:
    """All positive-probability realizations of agent 1's time-0 new
    information, with their probabilities and conditional beliefs."""
    plan = step_plan(info, -1)
    z1_of = plan.picker(info.z1[0])
    ell_of = plan.picker(info.l2[0])
    acc = _joint()
    for x0, px in model.x0_dist.items():
        for v1, pv1 in model.v_dist(1, 0).items():
            y1 = model.h(1, 0, x0, v1)
            for v2, pv2 in model.v_dist(2, 0).items():
                slots = (y1, model.h(2, 0, x0, v2))
                acc[z1_of(slots)][(x0, ell_of(slots))] += px * pv1 * pv2
    return _branches(acc, partial(Belief1.from_weights, 0))


def initial_belief1(model: TeamModel, info: InfoStructure, z1_0: tuple[int, ...]) -> Belief1:
    return _condition(
        initial_belief1_roots(model, info), z1_0, "initial realization {} has probability 0"
    )


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
    one over the returned keys.
    """
    t = b1.t
    if t >= model.horizon:
        raise ValueError(f"no transition out of the final time {t}")
    plan = step_plan(info, t)
    z1_of = plan.picker(info.z1[t + 1])
    ell_next_of = plan.picker(info.l2[t + 1])
    acc = _joint()
    for (x, ell), p in b1.items():
        u2 = gamma2(ell)
        for w, pw in model.w_dist(t).items():
            x_next = model.f(t, x, u1, u2, w)
            for v1, pv1 in model.v_dist(1, t + 1).items():
                y1_next = model.h(1, t + 1, x_next, v1)
                for v2, pv2 in model.v_dist(2, t + 1).items():
                    slots = ell + (y1_next, model.h(2, t + 1, x_next, v2), u1, u2)
                    acc[z1_of(slots)][(x_next, ell_next_of(slots))] += p * pw * pv1 * pv2
    return _branches(acc, partial(Belief1.from_weights, t + 1))


def update_belief1(
    model: TeamModel,
    info: InfoStructure,
    b1: Belief1,
    u1: int,
    gamma2: Prescription,
    z1: tuple[int, ...],
) -> Belief1:
    """Condition the one-step prediction on the realized new information."""
    return _condition(
        belief1_step(model, info, b1, u1, gamma2),
        z1,
        "new information {} impossible at t={} under the given belief and actions",
        b1.t,
    )


# ---------------------------------------------------------------------------
# Agent-2 (shared) belief: initialization and one-step update.
# ---------------------------------------------------------------------------


def _mixture_branches(t: int, parts, key_of) -> dict[tuple[int, ...], tuple[Fraction, Belief2]]:
    """Shared-belief branches from agent-1 branches.  `parts` yields (w,
    {z1: (q, b1')}) pairs; each branch adds w * q * b1'(x, ell) to the entry
    (x, ell, b1') under the key `key_of(z1)`."""
    acc = _joint()
    for w, branches in parts:
        for z1, (q, b1) in branches.items():
            weights = acc[key_of(z1)]
            for (x, ell), p in b1.items():
                weights[(x, ell, b1)] += w * q * p
    return _branches(acc, partial(Belief2.from_weights, t))


def initial_belief2_roots(
    model: TeamModel, info: InfoStructure
) -> dict[tuple[int, ...], tuple[Fraction, Belief2]]:
    """Positive-probability time-0 accessible realizations and their shared
    beliefs: each agent-1 root z1 -> (q, b1) puts weight q * b1(x, ell) on
    (x, ell, b1) under the a2[0] part of z1 (a2[0] lies inside m1[0] = z1[0])."""
    a2_of = merge_picker(info, info.a2[0], info.z1[0])
    return _mixture_branches(0, [(1, initial_belief1_roots(model, info))], a2_of)


def initial_belief2(model: TeamModel, info: InfoStructure, a2_0: tuple[int, ...]) -> Belief2:
    return _condition(
        initial_belief2_roots(model, info), a2_0, "accessible realization {} has probability 0"
    )


def belief2_step(
    model: TeamModel,
    info: InfoStructure,
    b2: Belief2,
    gamma1: Prescription,
    gamma2: Prescription,
    step1=None,
) -> dict[tuple[int, ...], tuple[Fraction, Belief2]]:
    """All one-step continuations of a Belief2 under a prescription pair:
    realized shared-increment tuple -> (probability, posterior).

    The step is a mixture of agent-1 steps.  Each entry of b2 factors as
    w(b1) * b1(x, ell), with w from `Belief2.mixture`, so each inner belief
    b1 takes one `belief1_step` under its action gamma1(b1), and its branch
    z1 -> (q, b1') adds w * q * b1'(x', ell') to the entry (x', ell', b1')
    under the z2[t+1] part of z1.  This relies on two nestedness rules that
    `check_nestedness` enforces: accessibility (a2[t] inside m1[t], which
    gives the factorization) and novelty (z2[t+1] inside z1[t+1]).

    `step1`, when given, replaces `belief1_step` for the inner steps (the
    solver passes a cached one).  The default is looked up at call time, so
    a rebound `belief1_step` is the one called.
    """
    t = b2.t
    if t >= model.horizon:
        raise ValueError(f"no transition out of the final time {t}")
    z2_of = merge_picker(info, info.z2[t + 1], info.z1[t + 1])
    step = step1 or belief1_step
    parts = ((w, step(model, info, b1, gamma1(b1), gamma2)) for b1, w in b2.mixture().items())
    return _mixture_branches(t + 1, parts, z2_of)


def update_belief2(
    model: TeamModel,
    info: InfoStructure,
    b2: Belief2,
    gamma1: Prescription,
    gamma2: Prescription,
    z2: tuple[int, ...],
) -> Belief2:
    return _condition(
        belief2_step(model, info, b2, gamma1, gamma2),
        z2,
        "shared increment {} impossible at t={} under the given belief and prescriptions",
        b2.t,
    )


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


# ---------------------------------------------------------------------------
# Vector form of Belief1, used by the simplex-lattice quantizer.  Coordinates
# run over (state, private realization) pairs, state-major, private values in
# product order, including zero-probability pairs.
# ---------------------------------------------------------------------------


def belief1_vector(
    model: TeamModel, private_list: list[PrivateReal], b1: Belief1
) -> tuple[Fraction, ...]:
    index = {ell: i for i, ell in enumerate(private_list)}
    n_private = len(private_list)
    nx = model.states[b1.t].size
    vec = [Fraction(0)] * (nx * n_private)
    for (x, ell), p in b1.items():
        vec[x * n_private + index[ell]] = p
    return tuple(vec)


def belief1_from_vector(
    t: int, private_list: list[PrivateReal], vec: tuple[Fraction, ...]
) -> Belief1:
    n_private = len(private_list)
    weights: dict[tuple[int, PrivateReal], Fraction] = {}
    for i, p in enumerate(vec):
        if p != 0:
            weights[(i // n_private, private_list[i % n_private])] = p
    return Belief1.from_weights(t, weights)
