"""Information structures: who knows which observations and actions, when.

The structure is symbolic.  Each of the six per-time sets (each agent's
memory, the part of agent 2's memory that agent 1 can also see, agent 2's
private remainder, and the two per-agent increments) is a tuple of variable
references like (Y2, s) or (U1, s), kept in a canonical order.  The built-in
constructor covers the one-directional d-step delayed-sharing family; any
other structure can be declared explicitly in the model file and checked
with `check_nestedness`.

Naming used throughout the package:
    m1[t], m2[t]   memories of agents 1 and 2 at time t (perfect recall)
    a2[t]          the shared part of agent 2's memory (also inside m1[t])
    l2[t]          agent 2's private part: m2[t] minus a2[t]
    z1[t], z2[t]   the new variables added to m1 / a2 at time t

Belief propagation only supports structures where m2 consists of agent-2
variables and every newly shared variable was either just produced or held
privately one step earlier; `UnsupportedStructure` is raised otherwise.
That matches the declared non-goals (no agent-1 variables inside a2).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .errors import UnsupportedStructure
from .model import TeamModel, _Reader

__all__ = [
    "VarRef",
    "InfoStructure",
    "StructureViolation",
    "build_delayed_structure",
    "check_nestedness",
    "enumerate_private",
    "enumerate_realizations",
    "info_from_json",
    "info_to_json",
]

_KIND_ORDER = {"Y1": 0, "U1": 1, "Y2": 2, "U2": 3}


@dataclass(frozen=True, order=True)
class VarRef:
    """A reference to one trajectory variable: kind in {Y1,U1,Y2,U2}, time s."""

    s: int
    kind: str

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown variable kind {self.kind!r}")

    def __repr__(self):
        return f"{self.kind}@{self.s}"


def _canon(vars: Iterable[VarRef]) -> tuple[VarRef, ...]:
    return tuple(sorted(set(vars), key=lambda v: (v.s, _KIND_ORDER[v.kind])))


@dataclass(frozen=True)
class InfoStructure:
    """Per-time symbolic composition of the six information sets."""

    horizon: int
    delay: int | None
    m1: tuple[tuple[VarRef, ...], ...]
    m2: tuple[tuple[VarRef, ...], ...]
    a2: tuple[tuple[VarRef, ...], ...]
    l2: tuple[tuple[VarRef, ...], ...]
    z1: tuple[tuple[VarRef, ...], ...]
    z2: tuple[tuple[VarRef, ...], ...]
    # Compiled plans: the StepContext of the step t -> t+1, keyed by t.
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def var_space_size(self, model: TeamModel, var: VarRef) -> int:
        if var.kind == "Y1":
            return model.obs_space(1, var.s).size
        if var.kind == "Y2":
            return model.obs_space(2, var.s).size
        if var.kind == "U1":
            return model.action_space(1, var.s).size
        return model.action_space(2, var.s).size


@dataclass(frozen=True)
class StructureViolation:
    t: int
    rule: str
    message: str

    def __str__(self):
        return f"t={self.t} [{self.rule}]: {self.message}"


def build_delayed_structure(model: TeamModel, d: int) -> InfoStructure:
    """One-directional sharing from agent 2 to agent 1 with a d-step delay.

    Agent 1 keeps its own full history and receives agent 2's observations
    and actions d steps late; agent 2 keeps only its own history.  d = 0
    means agent 2's current observation and previous action are shared
    immediately (no private information); d = T+1 means nothing is ever
    shared inside the horizon.
    """
    T = model.horizon
    if not (0 <= d <= T + 1):
        raise ValueError(f"delay {d} outside 0..{T + 1}")
    # the age at which a value enters a memory: agent 2's values reach the
    # shared set d steps late, and no action before the step after it
    own2, shared = {"Y2": 0, "U2": 1}, {"Y2": d, "U2": max(d, 1)}
    var = {(s, kind): VarRef(s, kind) for s in range(T + 1) for kind in _KIND_ORDER}
    m1, z1 = _recall(T, {"Y1": 0, "U1": 1, **shared}, var)
    m2, _ = _recall(T, own2, var)
    a2, z2 = _recall(T, shared, var)
    l2 = tuple(
        _canon(var[s, kind] for kind in own2 for s in range(max(0, t - shared[kind] + 1), t - own2[kind] + 1))
        for t in range(T + 1)
    )
    return InfoStructure(T, d, m1, m2, a2, l2, z1, z2)


def _recall(T: int, ages: dict[str, int], var: dict) -> tuple[tuple, tuple]:
    """(memories, increments) at t = 0..T of the perfect-recall memory that
    holds each value of a kind in `ages` once it is that many steps old:
    the canonical tuples of the VarRef(s, kind) with 0 <= s <= t -
    ages[kind], and of those with s = t - ages[kind] (the set differences
    `_derive` takes), each VarRef the one `var[s, kind]`.  Each memory is a
    slice of one ordered tuple, the values older than every age, plus the
    values near t, so the work past copying is O(T * max age)."""
    kinds = sorted(ages, key=_KIND_ORDER.get)
    order = tuple(var[s, kind] for s in range(T + 1) for kind in kinds)
    oldest = max(ages.values())
    memories, increments = [], []
    for t in range(T + 1):
        cut = len(kinds) * max(0, t - oldest)  # every value before s = t - oldest is held
        near = order[cut : len(kinds) * (t + 1)]
        memories.append(order[:cut] + tuple(v for v in near if v.s <= t - ages[v.kind]))
        increments.append(tuple(v for v in near if v.s == t - ages[v.kind]))
    return tuple(memories), tuple(increments)


def _derive(T: int, delay: int | None, m1, m2, a2) -> InfoStructure:
    """The structure of canonical per-time m1, m2 and a2: l2[t] = m2[t] -
    a2[t], z1[t] = m1[t] - m1[t-1] and z2[t] = a2[t] - a2[t-1], where m1[-1]
    and a2[-1] are empty."""

    def increments(comps):
        return tuple(_canon(set(now) - set(before)) for before, now in zip([()] + comps, comps))

    l2 = tuple(_canon(set(m) - set(a)) for m, a in zip(m2, a2))
    return InfoStructure(T, delay, tuple(m1), tuple(m2), tuple(a2), l2, increments(m1), increments(a2))


def check_nestedness(info: InfoStructure) -> list[StructureViolation]:
    """Verify every structural invariant, per time step; empty == consistent.

    Rules checked:
      window        variables lie in the admissible window (observations up
                    to t, actions up to t-1; memory of agent 2 contains only
                    agent-2 variables)
      recall        memories and the shared set only grow
      accessibility the shared set lies inside both memories
      privacy       the private set is exactly m2 minus a2 and is invisible
                    to agent 1
      novelty       increments are exactly the set differences, agent 2's
                    increment is inside agent 1's, and none of it was known
                    to agent 1 earlier
      freshness     every newly shared variable was privately held at t-1 or
                    was just produced (observation at t, action at t-1)

    The freshness rule is deliberately stated against the private set at
    t-1: a variable shared after a delay has already left the private set
    at t, so containment at t would reject the delayed-sharing family this
    package is built around.
    """
    out: list[StructureViolation] = []
    T = info.horizon

    def sub(t, rule, small, big, small_name, big_name):
        missing = small - big
        if missing:
            out.append(
                StructureViolation(
                    t, rule, f"{small_name} not inside {big_name}: {sorted(missing)}"
                )
            )

    prev_m1 = prev_m2 = prev_a2 = prev_l2 = set()
    for t in range(T + 1):
        for name, comp in (("m1", info.m1[t]), ("m2", info.m2[t])):
            for var in comp:
                if var.kind.startswith("Y") and var.s > t:
                    out.append(StructureViolation(t, "window", f"{name} holds future {var}"))
                if var.kind.startswith("U") and var.s > t - 1:
                    out.append(StructureViolation(t, "window", f"{name} holds future {var}"))
                if var.s < 0:
                    out.append(StructureViolation(t, "window", f"{name} holds {var}"))
        for var in info.m2[t]:
            if var.kind in ("Y1", "U1"):
                out.append(StructureViolation(t, "window", f"m2 holds agent-1 variable {var}"))

        # each composition is hashed once: its set at t is its prev_* at t + 1
        m1_t, m2_t, a2_t, l2_t, z1_t, z2_t = (
            set(comp[t]) for comp in (info.m1, info.m2, info.a2, info.l2, info.z1, info.z2)
        )
        sub(t, "recall", prev_m1, m1_t, "m1[t-1]", "m1[t]")
        sub(t, "recall", prev_m2, m2_t, "m2[t-1]", "m2[t]")
        sub(t, "recall", prev_a2, a2_t, "a2[t-1]", "a2[t]")
        sub(t, "accessibility", a2_t, m2_t, "a2", "m2")
        sub(t, "accessibility", a2_t, m1_t, "a2", "m1")

        if l2_t != m2_t - a2_t:
            out.append(StructureViolation(t, "privacy", "l2 is not m2 minus a2"))
        leaked = l2_t & m1_t
        if leaked:
            out.append(StructureViolation(t, "privacy", f"private variables visible to agent 1: {sorted(leaked)}"))

        if z1_t != m1_t - prev_m1:
            out.append(StructureViolation(t, "novelty", "z1 is not the m1 increment"))
        if z2_t != a2_t - prev_a2:
            out.append(StructureViolation(t, "novelty", "z2 is not the a2 increment"))
        sub(t, "novelty", z2_t, z1_t, "z2", "z1")
        stale = z2_t & prev_m1
        if stale:
            out.append(StructureViolation(t, "novelty", f"z2 already known to agent 1: {sorted(stale)}"))

        fresh = prev_l2 | {VarRef(t, "Y1"), VarRef(t, "Y2"), VarRef(t - 1, "U1"), VarRef(t - 1, "U2")}
        sub(t, "freshness", z2_t, fresh, "z2", "l2[t-1] plus current data")
        prev_m1, prev_m2, prev_a2, prev_l2 = m1_t, m2_t, a2_t, l2_t

    return out


def enumerate_private(info: InfoStructure, model: TeamModel, t: int) -> list[tuple[int, ...]]:
    """All value tuples for the private composition at t, in product order.

    The empty composition yields exactly one empty tuple: a single "nothing
    private" realization.
    """
    return enumerate_realizations(info, model, info.l2[t])


def enumerate_realizations(
    info: InfoStructure, model: TeamModel, vars: tuple[VarRef, ...]
) -> list[tuple[int, ...]]:
    """Cartesian product of the value ranges of a variable composition."""
    ranges = [range(info.var_space_size(model, v)) for v in vars]
    return [tuple(vals) for vals in itertools.product(*ranges)]


# ---------------------------------------------------------------------------
# Compiled index plans for belief propagation.
#
# When stepping from t to t+1 the propagator knows: the private values at t,
# both agents' actions at t, and both fresh observations at t+1.  Which of
# those values fills each variable of l2[t+1], z2[t+1] and z1[t+1] depends on
# the structure alone, so it is resolved once per (structure, t) into slot
# indices and then applied to every primitive draw.  Any variable with no
# source is outside the supported class.  `merge_realization` is the
# symbolic form of the same lookup and the reference the plans are tested
# against.
# ---------------------------------------------------------------------------


def _compile(
    slot_of: Mapping[VarRef, int], vars: tuple[VarRef, ...], missing: Callable[[VarRef], str]
) -> Callable[[tuple], tuple[int, ...]]:
    """Resolve `vars` to slot indices and return the function reading their
    realization off a slot tuple.  A variable with no slot raises
    UnsupportedStructure with the message `missing(var)`."""
    for var in vars:
        if var not in slot_of:
            raise UnsupportedStructure(missing(var))
    indices = [slot_of[v] for v in vars]
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    # itemgetter of one index returns a bare value; a slice keeps the tuple
    start = indices[0] if indices else 0
    return operator.itemgetter(slice(start, start + len(indices)))


def _merge(target_vars: tuple[VarRef, ...], source_vars: tuple[VarRef, ...]) -> Callable[[tuple], tuple[int, ...]]:
    """Compiled `merge_realization`: the function reading a realization of
    `target_vars` off a realization of `source_vars`."""
    slot_of = {var: i for i, var in enumerate(source_vars)}
    return _compile(slot_of, target_vars, lambda var: f"no value for {var} while merging realizations")


class StepContext:
    """Compiled index plan for extending histories from time t to t+1.

    The values available at the step form one slot tuple: the private
    values at t in l2[t] order, then y1[t+1], y2[t+1], u1[t], u2[t].  For
    t = -1, the step from the prior, only y1[0] and y2[0] have slots; the
    prior's null actions that the kernels pass after them are never read.

    Five named readers, each resolved to indices the first time it is
    asked for and then held on the plan, so a step that never reads z2
    never fails on it:
      read_z1, read_z2, read_l2   z1[t+1], z2[t+1] and l2[t+1] off the slot
                                  tuple (at t = -1, z2[0] is a2[0])
      z2_of                       z2[t+1] off a realization of z1[t+1]
      extend_a2                   a2[t+1] off a2[t] + z2[t+1] (the two
                                  realizations concatenated)
    Plans are built once per (structure, t) and cached on the structure:
    get them with `step_plan`.
    """

    __slots__ = ("t", "_info", "_slot_of", "_read_z1", "_read_z2", "_read_l2", "_z2_of", "_extend_a2")

    def __init__(self, info: InfoStructure, t: int):
        self.t = t
        self._info = info
        self._read_z1 = self._read_z2 = self._read_l2 = self._z2_of = self._extend_a2 = None
        private = info.l2[t] if t >= 0 else ()
        fresh = (VarRef(t + 1, "Y1"), VarRef(t + 1, "Y2"))
        if t >= 0:
            fresh += (VarRef(t, "U1"), VarRef(t, "U2"))
        # a fresh value takes precedence over a private variable of the same name
        self._slot_of = {var: i for i, var in enumerate(private + fresh)}

    @property
    def read_z1(self) -> Callable[[tuple], tuple[int, ...]]:
        if self._read_z1 is None:
            self._read_z1 = _compile(self._slot_of, self._info.z1[self.t + 1], self._missing)
        return self._read_z1

    @property
    def read_z2(self) -> Callable[[tuple], tuple[int, ...]]:
        if self._read_z2 is None:
            self._read_z2 = _compile(self._slot_of, self._info.z2[self.t + 1], self._missing)
        return self._read_z2

    @property
    def read_l2(self) -> Callable[[tuple], tuple[int, ...]]:
        if self._read_l2 is None:
            self._read_l2 = _compile(self._slot_of, self._info.l2[self.t + 1], self._missing)
        return self._read_l2

    @property
    def z2_of(self) -> Callable[[tuple], tuple[int, ...]]:
        if self._z2_of is None:
            self._z2_of = _merge(self._info.z2[self.t + 1], self._info.z1[self.t + 1])
        return self._z2_of

    @property
    def extend_a2(self) -> Callable[[tuple], tuple[int, ...]]:
        if self._extend_a2 is None:
            info, t = self._info, self.t
            self._extend_a2 = _merge(info.a2[t + 1], (info.a2[t] if t >= 0 else ()) + info.z2[t + 1])
        return self._extend_a2

    def _missing(self, var: VarRef) -> str:
        t = self.t
        if t < 0:
            return f"variable {var} cannot exist at time 0"
        return f"variable {var} needed at step {t}->{t + 1} is neither fresh nor private"


def step_plan(info: InfoStructure, t: int) -> StepContext:
    """The cached plan for the step t -> t+1 (t = -1 for time 0)."""
    plan = info._plans.get(t)
    if plan is None:
        plan = info._plans[t] = StepContext(info, t)
    return plan


def merge_realization(
    target_vars: tuple[VarRef, ...],
    sources: Mapping[tuple[VarRef, ...], tuple[int, ...]],
) -> tuple[int, ...]:
    """Build a realization of `target_vars` from realizations of other
    compositions (used to extend a2[t] with z2[t+1], split m2 into (l2, a2),
    and so on)."""
    lookup: dict[VarRef, int] = {}
    for vars, values in sources.items():
        lookup.update(zip(vars, values))
    try:
        return tuple(lookup[v] for v in target_vars)
    except KeyError as exc:
        raise UnsupportedStructure(f"no value for {exc.args[0]} while merging realizations") from exc


def extend_a2(
    info: InfoStructure, t: int, a2real: tuple[int, ...], z2real: tuple[int, ...]
) -> tuple[int, ...]:
    """Accessible realization at t+1: the old values plus the increment."""
    return step_plan(info, t).extend_a2(a2real + z2real)


# ---------------------------------------------------------------------------
# JSON form of the `info` field in model files.
# ---------------------------------------------------------------------------


def info_to_json(info: InfoStructure) -> dict:
    if info.delay is not None:
        return {"kind": "delayed", "d": info.delay}
    def dump(comps):
        return [[[v.s, v.kind] for v in comp] for comp in comps]
    return {
        "kind": "explicit",
        "m1": dump(info.m1),
        "m2": dump(info.m2),
        "a2": dump(info.a2),
    }


def info_from_json(model: TeamModel, doc: dict) -> InfoStructure:
    """The structure of a model file's `info` field `doc`; a malformed one
    raises NestedDPError "$.info...: <rule>".  Nestedness is left to
    `check_nestedness`."""
    root = _Reader(doc, "$.info")
    T = model.horizon
    kind = root["kind"].value
    if kind == "delayed":
        return build_delayed_structure(model, root["d"].index(T + 2))
    if kind != "explicit":
        root["kind"].fail("must be 'delayed' or 'explicit'")

    def var(node) -> VarRef:
        time, var_kind = node.items(2)
        s = time.index(T + 1)
        var_kind.require(var_kind.value in ("Y1", "U1", "Y2", "U2"), "must be Y1, U1, Y2 or U2")
        return VarRef(s, var_kind.value)

    def load(key) -> list[tuple[VarRef, ...]]:
        return [_canon(var(node) for node in comp.items()) for comp in root[key].items(T + 1)]

    return _derive(T, None, load("m1"), load("m2"), load("a2"))
