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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NestedDPError

__all__ = [
    "FiniteSpace",
    "Dist",
    "TeamModel",
    "Violation",
    "parse_ratio",
    "format_ratio",
    "scale_to_integers",
    "validate_model",
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
        return max(map(abs, _leaves(self.cost_table)), default=Fraction(0))


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

    def walk(path: str, node, dims: tuple[int, ...], problem) -> None:
        """Check `node` against the index grid `dims`, one level at a time:
        a missing entry for each index below the level's size that `node`
        lacks, or for a `node` that is no sequence, and an extra entry for
        each index at or past it; at a leaf, the value v's `problem(v)`."""
        if not dims:
            message = problem(node)
            if message:
                out.append(Violation(path, message))
            return
        if not isinstance(node, (tuple, list)):
            out.append(Violation(path, "missing entry"))
            return
        for i in range(max(dims[0], len(node))):
            where = f"{path}[{i}]"
            if i >= dims[0]:
                out.append(Violation(where, "extra entry"))
            elif i >= len(node):
                out.append(Violation(where, "missing entry"))
            else:
                walk(where, node[i], dims[1:], problem)

    # transition table: shape and codomain
    for t in stages("transition", model.transition, T):
        nxn = model.states[t + 1].size
        dims = (model.states[t].size, model.actions1[t].size, model.actions2[t].size, model.disturbances[t].size)
        walk(f"transition[{t}]", model.transition[t], dims,
             lambda nxt: None if 0 <= nxt < nxn else f"next state {nxt} outside 0..{nxn - 1}")

    # observation tables
    for agent, table, noises, obs_spaces in (
        (1, model.obs1, model.noises1, model.observations1),
        (2, model.obs2, model.noises2, model.observations2),
    ):
        for t in stages(f"obs{agent}", table, T + 1):
            ny = obs_spaces[t].size
            walk(f"obs{agent}[{t}]", table[t], (model.states[t].size, noises[t].size),
                 lambda y: None if 0 <= y < ny else f"observation {y} outside 0..{ny - 1}")

    # cost table: shape and non-negativity
    for t in stages("cost", model.cost_table, T + 1):
        dims = (model.states[t].size, model.actions1[t].size, model.actions2[t].size)
        walk(f"cost[{t}]", model.cost_table[t], dims, lambda c: f"cost {c} is negative" if c < 0 else None)

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


# ---------------------------------------------------------------------------
# JSON round trip.  The file format keeps one space definition per variable
# and replicates it across time; rationals are "p/q" strings; tables are
# nested arrays in the index order documented on TeamModel.  Decoders read
# through `_Reader`, so a malformed document fails at its first violation
# with a NestedDPError "<JSON path>: <rule>".
# ---------------------------------------------------------------------------

_SPACE_KEYS = ("X", "U1", "U2", "W", "V1", "V2", "Y1", "Y2")


class _Reader:
    """A JSON value and its path in the document, such as `$.spaces.X.size`.
    Each read checks the shape it needs and raises NestedDPError
    "<path>: <rule>" where the value breaks it."""

    __slots__ = ("value", "path")

    def __init__(self, value, path: str = "$"):
        self.value, self.path = value, path

    def fail(self, rule: str):
        raise NestedDPError(f"{self.path}: {rule}")

    def require(self, ok, rule: str) -> None:
        if not ok:
            self.fail(rule)

    def _object(self) -> dict:
        self.require(isinstance(self.value, dict), "must be an object")
        return self.value

    def __getitem__(self, key: str) -> "_Reader":
        """The member `key` of an object; an absent one reads as null."""
        return _Reader(self._object().get(key), f"{self.path}.{key}")

    def __contains__(self, key: str) -> bool:
        return key in self._object()

    def items(self, length: int | None = None) -> list["_Reader"]:
        """The elements of a list, of `length` elements where given."""
        value = self.value
        self.require(isinstance(value, list), "must be a list")
        if length is not None:
            self.require(len(value) == length, f"must have {length} elements, not {len(value)}")
        return [_Reader(child, f"{self.path}[{i}]") for i, child in enumerate(value)]

    def table(self, shape: tuple, leaf) -> tuple:
        """A nested list as nested tuples of `leaf(reader)` values: one
        length per level of `shape`, None where any length will do."""
        if not shape:
            return leaf(self)
        return tuple(child.table(shape[1:], leaf) for child in self.items(shape[0]))

    def integer(self, ok=None, rule: str = "must be an integer") -> int:
        """An integer (not a boolean) for which `ok`, where given, holds."""
        value = self.value
        self.require(type(value) is int and (ok is None or ok(value)), rule)
        return value

    def index(self, n: int) -> int:
        """An integer in 0..n-1."""
        value = self.value
        if type(value) is not int or not 0 <= value < n:
            self.fail(f"must be an integer in 0..{n - 1}")
        return value

    def indices(self, sizes) -> tuple[int, ...]:
        """A list whose i-th element is an integer in 0..sizes[i]-1."""
        return tuple(item.index(n) for item, n in zip(self.items(len(sizes)), sizes))

    def unique(self, seen: dict, key, what: str) -> None:
        """Record `key`, read here; one read before in the same list is an
        error, since a later entry would silently replace the earlier one."""
        first = seen.setdefault(key, self.path)
        self.require(first == self.path, f"repeats the {what} of {first}")

    def ratio(self) -> Fraction:
        try:
            if isinstance(self.value, str):
                return parse_ratio(self.value)
        except (ValueError, ZeroDivisionError):
            pass
        self.fail("must be a 'p/q' string")

    def dist(self, length: int | None = None) -> Dist:
        weights = tuple(item.ratio() for item in self.items(length))
        ok = weights and all(0 <= w <= 1 for w in weights) and sum(weights) == 1
        self.require(ok, "must be probabilities in [0, 1] that sum to 1")
        return Dist(weights)

    def space(self, default_label: str) -> FiniteSpace:
        """A space: a positive `size`, and optional distinct scalar `labels`."""
        size = self["size"].integer(lambda n: n >= 1, "must be a positive integer")
        labels = None
        if "labels" in self:
            items, seen = self["labels"].items(size), {}
            for item in items:
                item.require(not isinstance(item.value, (list, dict)), "must be a string, number, boolean or null")
                item.unique(seen, item.value, "label")
            labels = tuple(item.value for item in items)
        return FiniteSpace(self.value.get("label", default_label), size, labels)


def _grid(dims: tuple[int, ...], leaf) -> tuple:
    """The nested tuple over the index grid `dims` with `leaf(*index)` at
    each cell, built (and `leaf` called) in lexicographic index order, the
    last index fastest."""

    def build(index: tuple[int, ...]):
        if len(index) == len(dims):
            return leaf(*index)
        return tuple(build((*index, i)) for i in range(dims[len(index)]))

    return build(())


def _leaves(node):
    """A table's values, nested tuples or lists at any depth, in index order."""
    if isinstance(node, (tuple, list)):
        for child in node:
            yield from _leaves(child)
    else:
        yield node


def _deep_list(node, leaf=lambda value: value) -> list:
    """A table as nested lists of `leaf(value)`, in index order."""
    if isinstance(node, (tuple, list)):
        return [_deep_list(child, leaf) for child in node]
    return leaf(node)


def _space_to_json(space: FiniteSpace) -> dict:
    doc = {"label": space.label, "size": space.size}
    if space.element_labels is not None:
        doc["labels"] = list(space.element_labels)
    return doc


def _dist_to_json(d: Dist) -> list[str]:
    return [format_ratio(w) for w in d.weights]


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
        # a horizon-0 model has no disturbance space: an empty per_time list
        if per_time and all(s == per_time[0] for s in per_time):
            space_docs[key] = _space_to_json(per_time[0])
        else:
            space_docs[key] = {"per_time": [_space_to_json(s) for s in per_time]}
    return {
        "horizon": model.horizon,
        "spaces": space_docs,
        "transition": _deep_list(model.transition),
        "obs1": _deep_list(model.obs1),
        "obs2": _deep_list(model.obs2),
        "cost": _deep_list(model.cost_table, format_ratio),
        "dists": {
            "X0": _dist_to_json(model.x0_dist),
            "W": [_dist_to_json(d) for d in model.w_dists],
            "V1": [_dist_to_json(d) for d in model.v1_dists],
            "V2": [_dist_to_json(d) for d in model.v2_dists],
        },
    }


def model_from_json(doc: dict) -> TeamModel:
    """The model of a document, read in field order; a malformed document
    raises NestedDPError "<JSON path>: <rule>".  Only the shape is read
    here: `validate_model` checks the tables against the declared spaces."""
    root = _Reader(doc)
    T = root["horizon"].integer(lambda n: n >= 0, "must be a non-negative integer")
    # disturbances exist only where transitions do
    counts = {"X": T + 1, "U1": T + 1, "U2": T + 1, "W": T, "V1": T + 1, "V2": T + 1, "Y1": T + 1, "Y2": T + 1}
    per_time: dict[str, tuple[FiniteSpace, ...]] = {}
    for key in _SPACE_KEYS:
        node = root["spaces"][key]
        if "per_time" in node:
            per_time[key] = node["per_time"].table((None,), lambda s, key=key: s.space(key))
        else:
            per_time[key] = (node.space(key),) * counts[key]
    dists = root["dists"]
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
        transition=root["transition"].table((None,) * 5, _Reader.integer),
        obs1=root["obs1"].table((None,) * 3, _Reader.integer),
        obs2=root["obs2"].table((None,) * 3, _Reader.integer),
        cost_table=root["cost"].table((None,) * 4, _Reader.ratio),
        x0_dist=dists["X0"].dist(),
        w_dists=dists["W"].table((None,), _Reader.dist),
        v1_dists=dists["V1"].table((None,), _Reader.dist),
        v2_dists=dists["V2"].table((None,), _Reader.dist),
    )
