"""Desk-scale ground truth: full joints, strategy enumeration, conditioning.

Everything here works directly on primitive-variable assignments and raw
history tables; none of it touches beliefs, prescriptions, or value
functions.  That separation is the point: the dynamic-programming stack is
certified by comparing its outputs against this module with exact rational
equality.

A "strategy-like" is any object with

    fresh_state() -> state
    act(state, t, values) -> (u1, u2)

where `values` maps VarRef -> realized value for every observation produced
so far and every action already taken.  Implementations must only read the
entries their agent can see; the table-based ExplicitStrategy defined here
does, and the solver's closed-loop policies follow the same contract.  The
accessible realization a2[t] lies in both agents' memories, so either agent
may read it: the solver's executors look their prescriptions up by it.
Every stateless strategy-like is one `_Pair(u1_of, u2_of)` of per-agent
pickers `(t, values) -> action`.  An agent 2 fixed by a strategy-like (the
agent-1 enumeration, its minimum, conditioning on agent 1's memory) must
be stateless: it is read through `act(None, t, values)[1]`.

One world step serves every walk here.  A context (omega, values, x) is a
draw, the realized variables so far and the current state; `_observe`
records both observations of a state, and `_step_context` records a pair of
actions and, before the horizon, moves the state on and observes it.  Each
step returns a new `values` dict, so contexts can branch: `trajectory` folds
the steps over one strategy's actions, while the enumerations and
`exhaustive_min` fan them out over every action assignment.  A
`Trajectory` keeps a read-only view of the final `values` -- the dict the
strategy saw, with its last actions added -- and `read(composition)`
returns a realization.

Enumeration semantics: agent-2 stage tables are enumerated first, on the
memories reachable given agent 2's own earlier assignments with agent 1's
actions left free (agent 2's memory holds no agent-1 variables, so those
free actions never appear inside a table key); agent-1 tables are then
enumerated per agent-2 choice, on the jointly reachable memories.  Any
behavior of any feasible strategy pair is realized by some enumerated pair,
so minimizing over the enumeration is minimizing over all strategies.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .errors import MissingKey, ResourceLimitExceeded, ZeroProbabilityEvent
from .info import InfoStructure, VarRef
from .limits import resolve_budget
from .model import TeamModel, _Reader

__all__ = [
    "Omega",
    "JointTable",
    "ExplicitStrategy",
    "build_joint",
    "trajectory",
    "replay",
    "evaluate_strategy",
    "enumerate_agent2_strategies",
    "enumerate_agent1_strategies",
    "exhaustive_min",
    "min_over_agent1",
    "condition",
    "condition_replayed",
    "condition_on_memory1",
]

Omega = tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class JointTable:
    """Product measure over all primitive assignments with positive mass."""

    entries: tuple[tuple[Omega, Fraction], ...]

    def __len__(self):
        return len(self.entries)


def build_joint(model: TeamModel, budget: int | None = None) -> JointTable:
    T = model.horizon
    count = len(model.x0_dist.support())
    for t in range(T):
        count *= len(model.w_dist(t).support())
    for t in range(T + 1):
        count *= len(model.v_dist(1, t).support())
        count *= len(model.v_dist(2, t).support())
    cap = resolve_budget(budget)
    if count > cap:
        raise ResourceLimitExceeded(
            f"joint table would hold {count} assignments, over the cap of {cap}",
            estimate=count,
        )
    # one support per draw, in omega's order: x0, each w[t], each v1[t], each v2[t]
    supports = [
        model.x0_dist.items(),
        *(model.w_dist(t).items() for t in range(T)),
        *(model.v_dist(1, t).items() for t in range(T + 1)),
        *(model.v_dist(2, t).items() for t in range(T + 1)),
    ]
    entries = []
    for draw in itertools.product(*supports):
        values = [v for v, _ in draw]
        omega = (values[0], tuple(values[1 : T + 1]), tuple(values[T + 1 : 2 * T + 2]), tuple(values[2 * T + 2 :]))
        entries.append((omega, math.prod(q for _, q in draw)))
    return JointTable(tuple(entries))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One episode: the states, the VarRef -> value map the strategy saw
    (with its last actions added; read-only), and the stage costs."""

    xs: tuple[int, ...]
    values: Mapping[VarRef, int]
    stage_costs: tuple[Fraction, ...]

    @property
    def total_cost(self) -> Fraction:
        return sum(self.stage_costs, Fraction(0))

    def value_of(self, atom) -> object:
        kind, t = atom[0], atom[1]
        if kind == "X":
            return self.xs[t]
        if kind not in ("Y1", "Y2", "U1", "U2"):
            raise ValueError(f"unknown atom {atom!r}")
        try:
            return self.values[VarRef(t, kind)]
        except KeyError:
            raise IndexError(f"atom {atom!r} lies outside the trajectory") from None

    def read(self, comp: tuple[VarRef, ...]) -> tuple[int, ...]:
        """The realization of a composition of trajectory variables."""
        return tuple(self.values[v] for v in comp)


def _observe(model: TeamModel, omega: Omega, t: int, x: int, values: dict) -> dict:
    """Record both agents' observations of state x at time t into `values`."""
    values[VarRef(t, "Y1")] = model.h(1, t, x, omega[2][t])
    values[VarRef(t, "Y2")] = model.h(2, t, x, omega[3][t])
    return values


def _initial_context(model: TeamModel, omega: Omega):
    return (omega, _observe(model, omega, 0, omega[0], {}), omega[0])


def _initial_contexts(model: TeamModel, joint: JointTable):
    return [_initial_context(model, omega) for omega, _ in joint.entries]


def _step_context(model: TeamModel, ctx, t: int, u1: int, u2: int):
    """Record the actions at t in a new `values` dict; before the horizon,
    also move the state on and observe it at t + 1."""
    omega, values, x = ctx
    nv = dict(values)
    nv[VarRef(t, "U1")] = u1
    nv[VarRef(t, "U2")] = u2
    if t == model.horizon:
        return (omega, nv, x)
    x_next = model.f(t, x, u1, u2, omega[1][t])
    return (omega, _observe(model, omega, t + 1, x_next, nv), x_next)


def trajectory(model: TeamModel, info: InfoStructure, strategy, omega: Omega) -> Trajectory:
    """Run one episode: the primitive draw plus a strategy force everything."""
    ctx = _initial_context(model, omega)
    xs, costs = [], []
    state = strategy.fresh_state()
    for t in range(model.horizon + 1):
        _, values, x = ctx
        u1, u2 = strategy.act(state, t, values)
        xs.append(x)
        costs.append(model.cost(t, x, u1, u2))
        ctx = _step_context(model, ctx, t, u1, u2)
    return Trajectory(tuple(xs), MappingProxyType(ctx[1]), tuple(costs))


def replay(joint: JointTable, model: TeamModel, info: InfoStructure, strategy) -> list[tuple[Trajectory, Fraction]]:
    """Every joint entry's episode under `strategy`, with its probability,
    in entry order: one `trajectory` per entry, for callers that condition
    the same strategy-closed joint many times (`condition_replayed`)."""
    return [(trajectory(model, info, strategy, omega), p) for omega, p in joint.entries]


def evaluate_strategy(joint: JointTable, model: TeamModel, info: InfoStructure, strategy) -> Fraction:
    """Exact expected total cost of a strategy-like object."""
    total = Fraction(0)
    for omega, p in joint.entries:
        total += p * trajectory(model, info, strategy, omega).total_cost
    return total


# ---------------------------------------------------------------------------
# Stateless strategies: the pair, explicit tables and their enumeration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Pair:
    """The stateless strategy-like: agent 1 plays `u1_of(t, values)` and
    agent 2 `u2_of(t, values)`."""

    u1_of: object
    u2_of: object

    def fresh_state(self):
        return None

    def act(self, state, t, values):
        return self.u1_of(t, values), self.u2_of(t, values)


def _zero(t, values):
    return 0  # the picker of an agent that callers never consult


def _agent2_of(strategy):
    """Agent 2's picker of a stateless strategy-like."""
    return lambda t, values: strategy.act(None, t, values)[1]


def _table_lookup(memories, agent: int, tables):
    """The picker of a stage-table stack: its action on `values` at t; a
    memory outside the tables raises MissingKey, naming the stage as
    `ExplicitStrategy.to_json` writes it (`$.g1[t]`) and the memory."""
    maps = tuple(dict(tbl) for tbl in tables)

    def pick(t, values):
        m = tuple(values[v] for v in memories[t])
        try:
            return maps[t][m]
        except KeyError:
            raise MissingKey(f"$.g{agent}[{t}] has no action for the memory {list(m)}") from None

    return pick


@dataclass(frozen=True)
class ExplicitStrategy:
    """Per-agent, per-time lookup tables from memory realizations to actions.

    Keys are value tuples aligned with the canonical memory compositions of
    the information structure.
    """

    info: InfoStructure
    g1: tuple[tuple[tuple[tuple[int, ...], int], ...], ...]
    g2: tuple[tuple[tuple[tuple[int, ...], int], ...], ...]

    @staticmethod
    def from_tables(info: InfoStructure, g1: list[dict], g2: list[dict]) -> "ExplicitStrategy":
        freeze = lambda tables: tuple(tuple(sorted(tbl.items())) for tbl in tables)
        return ExplicitStrategy(info, freeze(g1), freeze(g2))

    @cached_property
    def _pair(self) -> _Pair:
        return _Pair(_table_lookup(self.info.m1, 1, self.g1), _table_lookup(self.info.m2, 2, self.g2))

    def fresh_state(self):
        return None

    def act(self, state, t, values):
        return self._pair.act(state, t, values)

    def to_json(self) -> dict:
        dump = lambda tables: [[[list(k), a] for k, a in tbl] for tbl in tables]
        return {"g1": dump(self.g1), "g2": dump(self.g2)}

    @staticmethod
    def from_json(doc: dict, model: TeamModel, info: InfoStructure) -> "ExplicitStrategy":
        """The strategy of a document, read against `model` and `info`; a
        malformed document raises NestedDPError "<JSON path>: <rule>", as
        does a memory repeated within a stage."""
        root = _Reader(doc)

        def load(agent: int, memories) -> list[dict]:
            tables = []
            for t, stage in enumerate(root[f"g{agent}"].items(model.horizon + 1)):
                sizes = [info.var_space_size(model, v) for v in memories[t]]
                n = model.action_space(agent, t).size
                table, seen = {}, {}
                for pair in stage.items():
                    memory_node, action = pair.items(2)
                    memory = memory_node.indices(sizes)
                    pair.unique(seen, memory, "memory")
                    table[memory] = action.index(n)
                tables.append(table)
            return tables

        return ExplicitStrategy.from_tables(info, load(1, info.m1), load(2, info.m2))


def _enumerate_tables(model: TeamModel, info: InfoStructure, joint: JointTable, agent: int, advance):
    """Yield every self-consistent stage-table stack of one agent,
    lexicographic.  Per time, the tables range over every action assignment
    to the agent's memories reachable so far; `advance(t, u, values)` gives
    the (u1, u2) pairs a context moves on by when the agent plays u there."""
    T = model.horizon
    memories = info.m1 if agent == 1 else info.m2

    def rec(t, tables, contexts):
        if t > T:
            yield tuple(tuple(sorted(tbl.items())) for tbl in tables)
            return
        keyed = [(tuple(ctx[1][v] for v in memories[t]), ctx) for ctx in contexts]
        infosets = sorted({key for key, _ in keyed})
        for assignment in itertools.product(range(model.action_space(agent, t).size), repeat=len(infosets)):
            table_t = dict(zip(infosets, assignment))
            next_contexts = [] if t == T else [
                _step_context(model, ctx, t, u1, u2)
                for key, ctx in keyed
                for u1, u2 in advance(t, table_t[key], ctx[1])
            ]
            yield from rec(t + 1, tables + [table_t], next_contexts)

    yield from rec(0, [], _initial_contexts(model, joint))


def enumerate_agent2_strategies(model: TeamModel, info: InfoStructure, joint: JointTable):
    """Yield every self-consistent agent-2 stage-table stack, lexicographic.

    Reachability lets agent 1's actions range free; since agent 2's memory
    holds no agent-1 variables, that only widens the set of reachable own
    histories and never adds free entries inside the keys.
    """
    def advance(t, u2, values):
        return ((u1, u2) for u1 in range(model.action_space(1, t).size))

    return _enumerate_tables(model, info, joint, 2, advance)


def enumerate_agent1_strategies(
    model: TeamModel, info: InfoStructure, joint: JointTable, agent2_strategy
):
    """Yield every self-consistent agent-1 stage-table stack against a fixed
    stateless agent-2 strategy-like, read through `act(None, t, values)[1]`,
    lexicographic.  Reachability is joint: agent 2's entries inside agent
    1's memory are pinned by the fixed strategy, so the table domains stay
    small."""
    u2_of = _agent2_of(agent2_strategy)
    return _enumerate_tables(model, info, joint, 1, lambda t, u1, values: ((u1, u2_of(t, values)),))


@dataclass(frozen=True)
class ExhaustiveResult:
    value: Fraction
    strategy: ExplicitStrategy
    strategies_tested: int


def exhaustive_min(
    model: TeamModel, info: InfoStructure, joint: JointTable, budget: int | None = None
) -> ExhaustiveResult:
    """Exact minimum of the expected total cost over every team strategy.

    No structural restriction: the search covers every self-consistent pair
    of history tables (`enumerate_strategies` in `tests/test_oracle.py`
    yields them one by one, the tests' reference), but walks them as a
    depth-first tree over joint stage assignments so shared prefixes are
    simulated once.  Ties resolve to the first minimizer in the stage-major
    enumeration order, i.e. the lexicographically smallest assignment
    sequence (reachable memories sorted, agent 1 before agent 2, actions
    ascending).

    The walk is a branch and bound.  After a stage-t assignment with t < T,
    every completion costs at least

        sum over draws of p * (cost so far + state_min[t+1][x_{t+1}])
            + stage_min[t+2] + ... + stage_min[T],

    where state_min[s][x] is the least stage-s cost over both actions at
    state x and stage_min[s] its least value over x as well; the draws'
    probabilities sum to one.  The bound reads only the cost table, so it
    holds for costs of any sign.  A subtree whose bound is >= the incumbent
    is skipped: none of its leaves is strictly smaller, and a leaf replaces
    the incumbent only when it is strictly smaller, so the value and the
    first minimizer are those of the full walk.  `strategies_tested` counts
    the leaves that were fully evaluated, at most the enumeration length;
    at T = 0 nothing is pruned.

    The budget is charged on those leaves, not on the enumeration length
    (`strategy_count_formula` in `tests/test_oracle.py`), which the bound
    makes a loose estimate of the work: the walk raises
    ResourceLimitExceeded, naming the stage and the count, as soon as one
    leaf more than the cap would be evaluated."""
    cap = resolve_budget(budget)
    T = model.horizon
    best: list = [None, None]  # (value, stage tables)
    tested = [0]
    state_min = [
        [
            min(
                model.cost(t, x, u1, u2)
                for u1 in range(model.action_space(1, t).size)
                for u2 in range(model.action_space(2, t).size)
            )
            for x in range(model.states[t].size)
        ]
        for t in range(T + 1)
    ]
    # tail_min[s]: least total cost of the stages s..T, whatever the states
    tail_min = [Fraction(0)] * (T + 2)
    for s in range(T, -1, -1):
        tail_min[s] = tail_min[s + 1] + min(state_min[s])

    # contexts: (world context, probability, accumulated cost)
    contexts = [
        (ctx, p, Fraction(0)) for ctx, (_, p) in zip(_initial_contexts(model, joint), joint.entries)
    ]

    def stage_assignments(t, keyed):
        infosets1 = sorted({k1 for k1, *_ in keyed})
        infosets2 = sorted({k2 for _, k2, *_ in keyed})
        n1 = model.action_space(1, t).size
        n2 = model.action_space(2, t).size
        for acts1 in itertools.product(range(n1), repeat=len(infosets1)):
            for acts2 in itertools.product(range(n2), repeat=len(infosets2)):
                yield dict(zip(infosets1, acts1)), dict(zip(infosets2, acts2))

    def leaves(keyed, tables):
        """Evaluate every stage-T assignment below `tables` to the end.  The
        last stage's cost reads a draw only through its memories and state,
        so draws are pooled on those."""
        so_far = sum((p * acc for *_, p, acc in keyed), Fraction(0))
        weights: dict = {}
        for k1, k2, (_, _, x), p, _ in keyed:
            weights[k1, k2, x] = weights.get((k1, k2, x), Fraction(0)) + p
        for table1, table2 in stage_assignments(T, keyed):
            tested[0] += 1
            if tested[0] > cap:
                raise ResourceLimitExceeded(
                    f"strategies evaluated passed the cap of {cap} at t={T}: {tested[0]} counted",
                    estimate=tested[0],
                )
            value = so_far
            for (k1, k2, x), w in weights.items():
                value += w * model.cost(T, x, table1[k1], table2[k2])
            if best[0] is None or value < best[0]:
                best[0] = value
                best[1] = tables + [(table1, table2)]

    def rec(t, contexts, tables):
        # each draw's memories at t, read once for all stage-t assignments
        keyed = [
            (tuple(ctx[1][v] for v in info.m1[t]), tuple(ctx[1][v] for v in info.m2[t]), ctx, p, acc)
            for ctx, p, acc in contexts
        ]
        if t == T:
            leaves(keyed, tables)
            return
        for table1, table2 in stage_assignments(t, keyed):
            advanced = []
            bound = tail_min[t + 2]
            for k1, k2, ctx, p, acc in keyed:
                u1, u2 = table1[k1], table2[k2]
                nxt = _step_context(model, ctx, t, u1, u2)
                acc = acc + model.cost(t, ctx[2], u1, u2)
                bound += p * (acc + state_min[t + 1][nxt[2]])
                advanced.append((nxt, p, acc))
            if best[0] is not None and bound >= best[0]:
                continue
            rec(t + 1, advanced, tables + [(table1, table2)])

    rec(0, contexts, [])
    if best[1] is None:
        raise ZeroProbabilityEvent("model admits no strategy (empty joint?)")
    g1 = [stage[0] for stage in best[1]]
    g2 = [stage[1] for stage in best[1]]
    return ExhaustiveResult(best[0], ExplicitStrategy.from_tables(info, g1, g2), tested[0])


def min_over_agent1(
    model: TeamModel,
    info: InfoStructure,
    joint: JointTable,
    agent2_strategy,
    budget: int | None = None,
) -> tuple[Fraction, tuple]:
    """Exact minimum over all agent-1 strategies with agent 2's behavior
    fixed by a stateless strategy-like, read through
    `act(None, t, values)[1]`."""
    cap = resolve_budget(budget)
    u2_of = _agent2_of(agent2_strategy)
    best = best_tables = None
    for tested, g1 in enumerate(enumerate_agent1_strategies(model, info, joint, agent2_strategy), 1):
        if tested > cap:
            raise ResourceLimitExceeded(f"more than {cap} agent-1 strategies", estimate=tested)
        value = evaluate_strategy(joint, model, info, _Pair(_table_lookup(info.m1, 1, g1), u2_of))
        if best is None or value < best:
            best, best_tables = value, g1
    return best, best_tables


# ---------------------------------------------------------------------------
# Conditioning.  Atoms name trajectory variables; composites expand through
# the information structure.
# ---------------------------------------------------------------------------

_COMPOSITES = {"M1": "m1", "M2": "m2", "A2": "a2", "L2": "l2", "Z1": "z1", "Z2": "z2"}


def _atom_value(info: InfoStructure, traj: Trajectory, atom):
    kind, t = atom
    if kind in _COMPOSITES:
        return traj.read(getattr(info, _COMPOSITES[kind])[t])
    return traj.value_of(atom)


def condition(
    joint: JointTable,
    model: TeamModel,
    info: InfoStructure,
    strategy,
    given: list[tuple[tuple, object]],
    query: list[tuple],
) -> dict[tuple, Fraction]:
    """Exact Bayes conditioning of the strategy-closed joint.

    `given` is a list of (atom, value) pairs; `query` a list of atoms; atoms
    are ("X", t), ("Y1", t), ..., or composites ("M1", t), ("L2", t), etc.
    Returns the conditional distribution over query value tuples.
    """
    return condition_replayed(info, replay(joint, model, info, strategy), given, query)


def condition_replayed(
    info: InfoStructure,
    episodes,
    given: list[tuple[tuple, object]],
    query: list[tuple],
) -> dict[tuple, Fraction]:
    """`condition` over episodes already run: (trajectory, probability)
    pairs covering the joint, as `replay` returns them."""
    weights: dict[tuple, Fraction] = {}
    total = Fraction(0)
    for traj, p in episodes:
        if all(_atom_value(info, traj, atom) == val for atom, val in given):
            key = tuple(_atom_value(info, traj, atom) for atom in query)
            weights[key] = weights.get(key, Fraction(0)) + p
            total += p
    if total == 0:
        raise ZeroProbabilityEvent(f"conditioning event {given} has probability 0")
    return {key: w / total for key, w in weights.items()}


def condition_on_memory1(
    joint: JointTable,
    model: TeamModel,
    info: InfoStructure,
    agent2_strategy,
    t: int,
    m1real: tuple[int, ...],
    query: list[tuple] | None = None,
) -> dict[tuple, Fraction]:
    """P(query | agent 1's memory at t equals m1real), with agent 2 played by
    the given stateless strategy-like, read through `act(None, t,
    values)[1]`, and agent 1's past actions read off the memory realization
    itself.  Default query: (state, private values) at t."""
    if query is None:
        query = [("X", t), ("L2", t)]
    u1_by_time = {v.s: u for v, u in zip(info.m1[t], m1real) if v.kind == "U1"}
    runner = _Pair(lambda s, values: u1_by_time.get(s, 0), _agent2_of(agent2_strategy))
    return condition(joint, model, info, runner, [(("M1", t), m1real)], query)
