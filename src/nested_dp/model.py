"""Finite two-agent team models with exact rational probabilities.

A model declares, per time step, the finite spaces of the shared state, each
agent's actions and observations, and the disturbance and noise variables; a
deterministic transition table driven by the disturbance; per-agent
deterministic observation tables driven by the noises; a non-negative stage
cost; and the marginal distributions of the primitive random variables
(initial state, disturbances, noises).

Probabilities are `fractions.Fraction` throughout.  Exactness is load-bearing:
belief realizations are used as memoization keys downstream, and the
brute-force certification compares values with rational equality, so no float
may enter the core.  Primitive variables are independent by construction --
only marginals can be declared, there is no joint to get wrong.

Time convention: decisions and costs happen at t = 0..T inclusive; the state
transitions at t = 0..T-1; observations exist at every decision time.  All
tables are indexed time-major.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "FiniteSpace",
    "Dist",
    "TeamModel",
    "Violation",
    "parse_ratio",
    "format_ratio",
    "scale_to_integers",
    "validate_model",
    "transition_kernel",
    "observation_kernel",
    "model_to_json",
    "model_from_json",
]


def parse_ratio(text: str) -> Fraction:
    """Parse a "p/q" (or bare "p") string into a Fraction."""
    return Fraction(text)


def format_ratio(value: Fraction) -> str:
    """Format a Fraction canonically as "p/q" (denominator always present)."""
    return f"{value.numerator}/{value.denominator}"


def scale_to_integers(weights: Iterable[Fraction]) -> tuple[int, tuple[int, ...]]:
    """Exact integer form of rational weights: their common denominator D
    (the lcm of the denominators) and the numerators w * D, in order."""
    weights = tuple(weights)
    denom = math.lcm(*(w.denominator for w in weights))
    return denom, tuple(w.numerator * (denom // w.denominator) for w in weights)


@dataclass(frozen=True)
class FiniteSpace:
    """A labelled finite set; elements are the indices 0..size-1."""

    label: str
    size: int
    element_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"space {self.label!r} must have size >= 1")
        if self.element_labels is not None:
            if len(self.element_labels) != self.size:
                raise ValueError(
                    f"space {self.label!r}: {len(self.element_labels)} labels "
                    f"for {self.size} elements"
                )
            if len(set(self.element_labels)) != self.size:
                raise ValueError(f"space {self.label!r}: element labels not distinct")


@dataclass(frozen=True)
class Dist:
    """A probability distribution over 0..n-1, stored densely and exactly."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("distribution over an empty set")
        for w in self.weights:
            if not isinstance(w, Fraction):
                raise TypeError("Dist weights must be Fractions")
            if w < 0 or w > 1:
                raise ValueError(f"weight {w} outside [0, 1]")
        if sum(self.weights) != 1:
            raise ValueError(f"weights sum to {sum(self.weights)}, expected 1")

    def __getitem__(self, i: int) -> Fraction:
        return self.weights[i]

    def __len__(self) -> int:
        return len(self.weights)

    def support(self) -> list[int]:
        return [i for i, w in enumerate(self.weights) if w > 0]

    def items(self) -> Iterable[tuple[int, Fraction]]:
        return ((i, w) for i, w in enumerate(self.weights) if w > 0)

    def scaled(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """The weights over one common denominator D: (D, ((i, n), ...)),
        weight i = n / D, for the outcomes of positive weight.  Cached."""
        scaled = self.__dict__.get("_scaled")
        if scaled is None:
            denom, nums = scale_to_integers(self.weights)
            scaled = (denom, tuple((i, n) for i, n in enumerate(nums) if n))
            object.__setattr__(self, "_scaled", scaled)
        return scaled

    @staticmethod
    def point_mass(n: int, at: int) -> "Dist":
        return Dist(tuple(Fraction(1 if i == at else 0) for i in range(n)))

    @staticmethod
    def uniform(n: int) -> "Dist":
        return Dist(tuple(Fraction(1, n) for _ in range(n)))

    @staticmethod
    def from_weights(weights: Sequence[Fraction]) -> "Dist":
        return Dist(tuple(Fraction(w) for w in weights))


@dataclass(frozen=True)
class TeamModel:
    """Immutable container for a validated two-agent team model.

    Spaces are stored per time step so time-varying problems are expressible;
    the on-disk format replicates a single space across all t.

    Table shapes:
        transition[t][x][u1][u2][w] -> next state,       t = 0..T-1
        obs1[t][x][v] -> observation of agent 1,         t = 0..T
        obs2[t][x][v] -> observation of agent 2,         t = 0..T
        cost[t][x][u1][u2] -> Fraction >= 0,             t = 0..T
        w_dists[t], v1_dists[t], v2_dists[t], x0_dist    primitive marginals
    """

    horizon: int
    states: tuple[FiniteSpace, ...]
    actions1: tuple[FiniteSpace, ...]
    actions2: tuple[FiniteSpace, ...]
    disturbances: tuple[FiniteSpace, ...]
    noises1: tuple[FiniteSpace, ...]
    noises2: tuple[FiniteSpace, ...]
    observations1: tuple[FiniteSpace, ...]
    observations2: tuple[FiniteSpace, ...]
    transition: tuple
    obs1: tuple
    obs2: tuple
    cost_table: tuple
    x0_dist: Dist
    w_dists: tuple[Dist, ...]
    v1_dists: tuple[Dist, ...]
    v2_dists: tuple[Dist, ...]

    # -- space accessors -------------------------------------------------
    def action_space(self, agent: int, t: int) -> FiniteSpace:
        return (self.actions1 if agent == 1 else self.actions2)[t]

    def obs_space(self, agent: int, t: int) -> FiniteSpace:
        return (self.observations1 if agent == 1 else self.observations2)[t]

    # -- table accessors -------------------------------------------------
    def f(self, t: int, x: int, u1: int, u2: int, w: int) -> int:
        return self.transition[t][x][u1][u2][w]

    def h(self, agent: int, t: int, x: int, v: int) -> int:
        table = self.obs1 if agent == 1 else self.obs2
        return table[t][x][v]

    def cost(self, t: int, x: int, u1: int, u2: int) -> Fraction:
        return self.cost_table[t][x][u1][u2]

    def w_dist(self, t: int) -> Dist:
        return self.w_dists[t]

    def v_dist(self, agent: int, t: int) -> Dist:
        return (self.v1_dists if agent == 1 else self.v2_dists)[t]

    def world_kernel(self, t: int) -> tuple[int, tuple]:
        """The draws of the step t -> t+1 pooled by what they lead to, over
        one common denominator D: (D, k), k[x][u1][u2] the ((x', y1', y2'),
        n) pairs, n / D the total probability of the draws (w, v1, v2) that
        move x under (u1, u2) to x' and show the agents y1' and y2' at t+1.
        At t = -1, the step from the initial law, no disturbance is drawn
        and the state is kept: k[x] holds the pairs of x's time-0
        observations.  Built once per stage and cached on the model."""
        kernels = self.__dict__.get("_world_kernels")
        if kernels is None:
            kernels = {}
            object.__setattr__(self, "_world_kernels", kernels)
        kernel = kernels.get(t)
        if kernel is None:
            dv1, v1s = self.v_dist(1, t + 1).scaled()
            dv2, v2s = self.v_dist(2, t + 1).scaled()
            obs1, obs2 = self.obs1[t + 1], self.obs2[t + 1]

            def pooled(moves):
                """((x', y1', y2'), n) pairs of (x', n) moves."""
                acc: dict = {}
                for x_next, nw in moves:
                    seen1, seen2 = obs1[x_next], obs2[x_next]
                    for v1, n1 in v1s:
                        for v2, n2 in v2s:
                            key = (x_next, seen1[v1], seen2[v2])
                            acc[key] = acc.get(key, 0) + nw * n1 * n2
                return tuple(acc.items())

            if t < 0:
                kernel = (dv1 * dv2, tuple(pooled(((x, 1),)) for x in range(len(obs1))))
            else:
                dw, ws = self.w_dist(t).scaled()
                kernel = (
                    dw * dv1 * dv2,
                    tuple(
                        tuple(tuple(pooled((f[w], nw) for w, nw in ws) for f in by_u2) for by_u2 in by_u1)
                        for by_u1 in self.transition[t]
                    ),
                )
            kernels[t] = kernel
        return kernel

    def max_cost(self) -> Fraction:
        """Largest |stage cost| across all times (sup-norm of the cost)."""
        best = Fraction(0)
        for t in range(self.horizon + 1):
            for x_row in self.cost_table[t]:
                for u1_row in x_row:
                    for c in u1_row:
                        if abs(c) > best:
                            best = abs(c)
        return best


@dataclass(frozen=True)
class Violation:
    """One validation failure: a path into the model document plus a reason."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def _check_dist(d, path: str, expected_size: int, out: list[Violation]):
    if not isinstance(d, Dist):
        out.append(Violation(path, "not a distribution"))
        return
    if len(d.weights) != expected_size:
        out.append(
            Violation(path, f"{len(d.weights)} weights for a space of size {expected_size}")
        )
        return
    total = sum(d.weights)
    if total != 1:
        out.append(Violation(path, f"weights sum to {format_ratio(Fraction(total))}, expected 1/1"))
    for i, w in enumerate(d.weights):
        if w < 0 or w > 1:
            out.append(Violation(f"{path}[{i}]", f"weight {w} outside [0, 1]"))


def validate_model(model: TeamModel) -> list[Violation]:
    """Collect every invariant violation in the model; empty list == valid.

    Violations are data, not exceptions: a malformed model produced by hand
    or by a file edit is reported in full rather than failing fast.
    """
    out: list[Violation] = []
    T = model.horizon
    if T < 0:
        out.append(Violation("horizon", f"horizon {T} is negative"))
        return out

    def stages(name: str, table, expected: int, noun: str = "stages") -> range:
        if len(table) != expected:
            out.append(Violation(name, f"{len(table)} {noun}, expected {expected}"))
        return range(min(expected, len(table)))

    per_time = {
        "states": (model.states, T + 1),
        "actions1": (model.actions1, T + 1),
        "actions2": (model.actions2, T + 1),
        "disturbances": (model.disturbances, T),
        "noises1": (model.noises1, T + 1),
        "noises2": (model.noises2, T + 1),
        "observations1": (model.observations1, T + 1),
        "observations2": (model.observations2, T + 1),
    }
    for name, (spaces, expected) in per_time.items():
        stages(name, spaces, expected, "spaces declared")
    if out:
        return out

    def entries(path: str, stage, dims: tuple[int, ...], problem) -> None:
        """Report each entry of the index grid `dims` that `stage` lacks, or
        whose value v has a `problem(v)`."""
        for index in itertools.product(*map(range, dims)):
            where = path + "".join(f"[{i}]" for i in index)
            try:
                value = functools.reduce(operator.getitem, index, stage)
            except (IndexError, TypeError):
                out.append(Violation(where, "missing entry"))
                continue
            message = problem(value)
            if message:
                out.append(Violation(where, message))

    # transition table: shape and codomain
    for t in stages("transition", model.transition, T):
        stage, nx, nxn = model.transition[t], model.states[t].size, model.states[t + 1].size
        if len(stage) != nx:
            out.append(Violation(f"transition[{t}]", f"{len(stage)} rows, expected {nx}"))
            continue
        dims = (nx, model.actions1[t].size, model.actions2[t].size, model.disturbances[t].size)
        entries(f"transition[{t}]", stage, dims,
                lambda nxt: None if 0 <= nxt < nxn else f"next state {nxt} outside 0..{nxn - 1}")

    # observation tables
    for agent, table, noises, obs_spaces in (
        (1, model.obs1, model.noises1, model.observations1),
        (2, model.obs2, model.noises2, model.observations2),
    ):
        for t in stages(f"obs{agent}", table, T + 1):
            ny = obs_spaces[t].size
            entries(f"obs{agent}[{t}]", table[t], (model.states[t].size, noises[t].size),
                    lambda y: None if 0 <= y < ny else f"observation {y} outside 0..{ny - 1}")

    # cost table: shape and non-negativity
    for t in stages("cost", model.cost_table, T + 1):
        dims = (model.states[t].size, model.actions1[t].size, model.actions2[t].size)
        entries(f"cost[{t}]", model.cost_table[t], dims, lambda c: f"cost {c} is negative" if c < 0 else None)

    # primitive distributions
    _check_dist(model.x0_dist, "dists.X0", model.states[0].size, out)
    for name, dists, spaces, expected in (
        ("W", model.w_dists, model.disturbances, T),
        ("V1", model.v1_dists, model.noises1, T + 1),
        ("V2", model.v2_dists, model.noises2, T + 1),
    ):
        for t in stages(f"dists.{name}", dists, expected, "distributions"):
            _check_dist(dists[t], f"dists.{name}[{t}]", spaces[t].size, out)

    return out


def _require_time(t: int, low: int, high: int):
    if not (low <= t <= high):
        raise ValueError(f"time {t} outside {low}..{high}")


def transition_kernel(model: TeamModel, t: int, x: int, u1: int, u2: int) -> Dist:
    """One-step state kernel: marginalize the disturbance out of the
    transition table.  Returns an exact distribution over the t+1 states."""
    _require_time(t, 0, model.horizon - 1)
    if not (0 <= x < model.states[t].size):
        raise ValueError(f"state {x} outside space at t={t}")
    if not (0 <= u1 < model.actions1[t].size) or not (0 <= u2 < model.actions2[t].size):
        raise ValueError(f"action pair ({u1},{u2}) outside spaces at t={t}")
    n_next = model.states[t + 1].size
    weights = [Fraction(0)] * n_next
    for w, pw in model.w_dist(t).items():
        weights[model.f(t, x, u1, u2, w)] += pw
    return Dist(tuple(weights))


def observation_kernel(model: TeamModel, t: int, agent: int, x: int) -> Dist:
    """Observation kernel for one agent: marginalize the measurement noise."""
    _require_time(t, 0, model.horizon)
    if agent not in (1, 2):
        raise ValueError(f"agent must be 1 or 2, got {agent}")
    if not (0 <= x < model.states[t].size):
        raise ValueError(f"state {x} outside space at t={t}")
    ny = model.obs_space(agent, t).size
    weights = [Fraction(0)] * ny
    for v, pv in model.v_dist(agent, t).items():
        weights[model.h(agent, t, x, v)] += pv
    return Dist(tuple(weights))


# ---------------------------------------------------------------------------
# JSON round trip.  The file format keeps one space definition per variable
# and replicates it across time; rationals are "p/q" strings; tables are
# nested arrays in the index order documented on TeamModel.
# ---------------------------------------------------------------------------

_SPACE_KEYS = ("X", "U1", "U2", "W", "V1", "V2", "Y1", "Y2")


def _space_to_json(space: FiniteSpace) -> dict:
    doc = {"label": space.label, "size": space.size}
    if space.element_labels is not None:
        doc["labels"] = list(space.element_labels)
    return doc


def _space_from_json(doc: dict, default_label: str) -> FiniteSpace:
    labels = tuple(doc["labels"]) if "labels" in doc else None
    return FiniteSpace(doc.get("label", default_label), doc["size"], labels)


def _dist_to_json(d: Dist) -> list[str]:
    return [format_ratio(w) for w in d.weights]


def _dist_from_json(doc: list[str]) -> Dist:
    return Dist(tuple(parse_ratio(w) for w in doc))


def _deep_tuple(node):
    if isinstance(node, list):
        return tuple(_deep_tuple(child) for child in node)
    return node


def _deep_list(node):
    if isinstance(node, tuple):
        return [_deep_list(child) for child in node]
    return node


def _cost_to_json(cost_table) -> list:
    return [
        [[[format_ratio(c) for c in u1_row] for u1_row in x_row] for x_row in stage]
        for stage in cost_table
    ]


def _cost_from_json(doc) -> tuple:
    return tuple(
        tuple(tuple(tuple(parse_ratio(c) for c in u1_row) for u1_row in x_row) for x_row in stage)
        for stage in doc
    )


def model_to_json(model: TeamModel) -> dict:
    """Serialize to the documented JSON document (bit-exact round trip)."""
    spaces = {
        "X": model.states,
        "U1": model.actions1,
        "U2": model.actions2,
        "W": model.disturbances,
        "V1": model.noises1,
        "V2": model.noises2,
        "Y1": model.observations1,
        "Y2": model.observations2,
    }
    space_docs = {}
    for key, per_time in spaces.items():
        uniform = all(s == per_time[0] for s in per_time)
        if uniform:
            space_docs[key] = _space_to_json(per_time[0])
        else:
            space_docs[key] = {"per_time": [_space_to_json(s) for s in per_time]}
    return {
        "horizon": model.horizon,
        "spaces": space_docs,
        "transition": _deep_list(model.transition),
        "obs1": _deep_list(model.obs1),
        "obs2": _deep_list(model.obs2),
        "cost": _cost_to_json(model.cost_table),
        "dists": {
            "X0": _dist_to_json(model.x0_dist),
            "W": [_dist_to_json(d) for d in model.w_dists],
            "V1": [_dist_to_json(d) for d in model.v1_dists],
            "V2": [_dist_to_json(d) for d in model.v2_dists],
        },
    }


def model_from_json(doc: dict) -> TeamModel:
    T = doc["horizon"]
    # disturbances exist only where transitions do
    counts = {"X": T + 1, "U1": T + 1, "U2": T + 1, "W": T, "V1": T + 1, "V2": T + 1, "Y1": T + 1, "Y2": T + 1}
    per_time: dict[str, tuple[FiniteSpace, ...]] = {}
    for key in _SPACE_KEYS:
        node = doc["spaces"][key]
        n = counts[key]
        if "per_time" in node:
            spaces = tuple(_space_from_json(s, key) for s in node["per_time"])
        else:
            spaces = tuple(_space_from_json(node, key) for _ in range(n))
        per_time[key] = spaces
    dists = doc["dists"]
    return TeamModel(
        horizon=T,
        states=per_time["X"],
        actions1=per_time["U1"],
        actions2=per_time["U2"],
        disturbances=per_time["W"],
        noises1=per_time["V1"],
        noises2=per_time["V2"],
        observations1=per_time["Y1"],
        observations2=per_time["Y2"],
        transition=_deep_tuple(doc["transition"]),
        obs1=_deep_tuple(doc["obs1"]),
        obs2=_deep_tuple(doc["obs2"]),
        cost_table=_cost_from_json(doc["cost"]),
        x0_dist=_dist_from_json(dists["X0"]),
        w_dists=tuple(_dist_from_json(d) for d in dists["W"]),
        v1_dists=tuple(_dist_from_json(d) for d in dists["V1"]),
        v2_dists=tuple(_dist_from_json(d) for d in dists["V2"]),
    )
