"""Seeded random instances for tests, certification, and experiments.

Three templates, chosen so each certification criterion gets instances it
can afford:

  certification_instance -- both agents see an informative (identity or
      flipped) deterministic observation at t=0 and constants afterwards.
      Observation reachability is then action-independent and tiny, which
      keeps the full strategy enumeration of the brute-force oracle in the
      tens of thousands instead of the astronomically many strategies a
      fully noisy horizon-2 instance would need.

  convergence_instance -- agent 2 observes the state perfectly at every t,
      agent 1 sees nothing; the disturbance is uniform over four values so
      every reachable belief coordinate is a multiple of 1/4.  Lattice
      sweeps then hit exact coverage at a finite resolution.

  decoupled_instance / coupled_counterexample -- per-agent chains for the
      factorization checks, plus a product-shaped but genuinely coupled
      model on which the factorization provably fails.

All randomness is drawn from `random.Random(seed)`, one draw per random
table cell in `model._grid`'s index order; identical seeds yield identical
instances on any platform.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from .decoupled import DecoupledModel
from .info import InfoStructure
from .model import Dist, FiniteSpace, TeamModel, _grid
from .oracle import _Pair

__all__ = [
    "certification_instance",
    "convergence_instance",
    "decoupled_instance",
    "coupled_counterexample",
    "random_full_support_dist",
    "HashedTeamStrategy",
]


def random_full_support_dist(rng: random.Random, n: int, denom: int = 4) -> Dist:
    """A full-support distribution with all weights multiples of 1/denom."""
    if denom < n:
        raise ValueError("denominator too small for full support")
    units = [1] * n
    for _ in range(denom - n):
        units[rng.randrange(n)] += 1
    return Dist(tuple(Fraction(u, denom) for u in units))


def _obs_table(kind: str, nx: int, rng: random.Random) -> tuple:
    """Deterministic single-noise observation column for one time step."""
    if kind == "identity":
        return tuple((x,) for x in range(nx))
    if kind == "flip":
        return tuple(((x + 1) % nx,) for x in range(nx))
    if kind == "const":
        c = rng.randrange(nx)
        return tuple((c,) for _ in range(nx))
    if kind == "informative":
        return _obs_table(rng.choice(["identity", "flip"]), nx, rng)
    raise ValueError(f"unknown observation kind {kind!r}")


def _spaces(label, size, count):
    return tuple(FiniteSpace(label, size) for _ in range(count))


def certification_instance(seed: int, horizon: int = 2) -> TeamModel:
    """Template for the oracle-vs-solver certifications: 2-element state,
    action, and observation spaces; agent 1 sees the state at t=0 through a
    binary channel that flips with probability 1/4 (so its beliefs are
    genuinely mixed), agent 2 sees it exactly; both go dark afterwards,
    which keeps the brute-force strategy space in the tens of thousands.
    Distributions and costs live on the quarter grid."""
    rng = random.Random(f"cert:{seed}")
    T, nx, nu, nw = horizon, 2, 2, 2
    # t=0: noisy channel for agent 1 (v=1 flips the reading), exact for 2
    obs1 = (_grid((nx, 2), lambda x, v: (x + v) % nx),) + tuple(
        _obs_table("const", nx, rng) for _ in range(T)
    )
    obs2 = (_obs_table("informative", nx, rng),) + tuple(
        _obs_table("const", nx, rng) for _ in range(T)
    )
    noises1 = (FiniteSpace("V1", 2),) + tuple(FiniteSpace("V1", 1) for _ in range(T))
    return TeamModel(
        horizon=T,
        states=_spaces("X", nx, T + 1),
        actions1=_spaces("U1", nu, T + 1),
        actions2=_spaces("U2", nu, T + 1),
        disturbances=_spaces("W", nw, T),
        noises1=noises1,
        noises2=_spaces("V2", 1, T + 1),
        observations1=_spaces("Y1", nx, T + 1),
        observations2=_spaces("Y2", nx, T + 1),
        transition=_grid((T, nx, nu, nu, nw), lambda *_: rng.randrange(nx)),
        obs1=obs1,
        obs2=obs2,
        cost_table=_grid((T + 1, nx, nu, nu), lambda *_: Fraction(rng.randrange(13), 4)),
        x0_dist=random_full_support_dist(rng, nx),
        w_dists=tuple(random_full_support_dist(rng, nw) for _ in range(T)),
        v1_dists=(Dist.from_weights([Fraction(3, 4), Fraction(1, 4)]),)
        + tuple(Dist.point_mass(1, 0) for _ in range(T)),
        v2_dists=tuple(Dist.point_mass(1, 0) for _ in range(T + 1)),
    )


def convergence_instance(seed: int, horizon: int = 2) -> TeamModel:
    """Template for lattice-resolution sweeps: agent 2 sees the state, agent
    1 sees a constant, and the uniform four-valued disturbance keeps every
    reachable belief on the quarter grid."""
    rng = random.Random(f"conv:{seed}")
    T, nx, nu, nw = horizon, 2, 2, 4
    return TeamModel(
        horizon=T,
        states=_spaces("X", nx, T + 1),
        actions1=_spaces("U1", nu, T + 1),
        actions2=_spaces("U2", nu, T + 1),
        disturbances=_spaces("W", nw, T),
        noises1=_spaces("V1", 1, T + 1),
        noises2=_spaces("V2", 1, T + 1),
        observations1=_spaces("Y1", nx, T + 1),
        observations2=_spaces("Y2", nx, T + 1),
        transition=_grid((T, nx, nu, nu, nw), lambda *_: rng.randrange(nx)),
        obs1=tuple(_obs_table("const", nx, rng) for _ in range(T + 1)),
        obs2=tuple(_obs_table("identity", nx, rng) for _ in range(T + 1)),
        cost_table=_grid((T + 1, nx, nu, nu), lambda *_: Fraction(rng.randrange(13), 4)),
        x0_dist=random_full_support_dist(rng, nx),
        w_dists=tuple(Dist.uniform(nw) for _ in range(T)),
        v1_dists=tuple(Dist.point_mass(1, 0) for _ in range(T + 1)),
        v2_dists=tuple(Dist.point_mass(1, 0) for _ in range(T + 1)),
    )


def decoupled_instance(seed: int, horizon: int = 2, perfect_obs_1: bool = False) -> DecoupledModel:
    """Per-agent chains with binary everything; agent 1's observations are
    the identity at every t when perfect_obs_1 is set, otherwise informative
    at t=0 and constant afterwards (same shape for agent 2)."""
    rng = random.Random(f"dec:{seed}:{int(perfect_obs_1)}")
    T, nx, nu, nw = horizon, 2, 2, 2

    if perfect_obs_1:
        obs1 = tuple(_obs_table("identity", nx, rng) for _ in range(T + 1))
    else:
        obs1 = tuple(
            _obs_table("informative" if t == 0 else "const", nx, rng) for t in range(T + 1)
        )
    obs2 = tuple(
        _obs_table("identity" if t == 0 else "const", nx, rng) for t in range(T + 1)
    )
    cost = _grid((T + 1, nx, nx, nu, nu), lambda *_: Fraction(rng.randrange(13), 4))
    return DecoupledModel(
        horizon=T,
        states1=_spaces("X1", nx, T + 1),
        states2=_spaces("X2", nx, T + 1),
        actions1=_spaces("U1", nu, T + 1),
        actions2=_spaces("U2", nu, T + 1),
        disturbances1=_spaces("W1", nw, T),
        disturbances2=_spaces("W2", nw, T),
        noises1=_spaces("V1", 1, T + 1),
        noises2=_spaces("V2", 1, T + 1),
        observations1=_spaces("Y1", nx, T + 1),
        observations2=_spaces("Y2", nx, T + 1),
        f1=_grid((T, nx, nu, nw), lambda *_: rng.randrange(nx)),
        f2=_grid((T, nx, nu, nw), lambda *_: rng.randrange(nx)),
        obs1=obs1,
        obs2=obs2,
        cost_table=cost,
        x1_dist=random_full_support_dist(rng, nx),
        x2_dist=random_full_support_dist(rng, nx),
        w1_dists=tuple(random_full_support_dist(rng, nw) for _ in range(T)),
        w2_dists=tuple(random_full_support_dist(rng, nw) for _ in range(T)),
        v1_dists=tuple(Dist.point_mass(1, 0) for _ in range(T + 1)),
        v2_dists=tuple(Dist.point_mass(1, 0) for _ in range(T + 1)),
    )


def coupled_counterexample() -> tuple[TeamModel, tuple[int, int]]:
    """A product-shaped model whose agent-1 component copies agent 2's state:
    the factorization of the conditional beliefs fails on it.  Agent 1 sees
    a constant, agent 2 sees its own component; returns (model, state split).
    """
    T, n1, n2 = 2, 2, 2
    nx = n1 * n2

    def f(x, _u1, u2, w):
        x1, x2 = divmod(x, n2)
        x1_next = x2  # the coupling: agent 1's chain reads agent 2's state
        x2_next = (x2 + u2 + w) % n2
        return x1_next * n2 + x2_next

    transition = _grid((nx, 2, 2, 2), f)
    obs1 = tuple((0,) for _ in range(nx))
    obs2 = tuple((divmod(x, n2)[1],) for x in range(nx))
    cost = _grid((nx, 2, 2), lambda x, u1, u2: Fraction(x % n2 + u1 + u2, 4))
    return (
        TeamModel(
            horizon=T,
            states=_spaces("X", nx, T + 1),
            actions1=_spaces("U1", 2, T + 1),
            actions2=_spaces("U2", 2, T + 1),
            disturbances=_spaces("W", 2, T),
            noises1=_spaces("V1", 1, T + 1),
            noises2=_spaces("V2", 1, T + 1),
            observations1=_spaces("Y1", 2, T + 1),
            observations2=_spaces("Y2", 2, T + 1),
            transition=tuple(transition for _ in range(T)),
            obs1=tuple(obs1 for _ in range(T + 1)),
            obs2=tuple(obs2 for _ in range(T + 1)),
            cost_table=tuple(cost for _ in range(T + 1)),
            x0_dist=Dist.uniform(nx),
            w_dists=tuple(Dist.uniform(2) for _ in range(T)),
            v1_dists=tuple(Dist.point_mass(1, 0) for _ in range(T + 1)),
            v2_dists=tuple(Dist.point_mass(1, 0) for _ in range(T + 1)),
        ),
        (n1, n2),
    )


def HashedTeamStrategy(model: TeamModel, info: InfoStructure, seed: int) -> _Pair:
    """Deterministic pseudo-random memory-based strategy: the action of each
    agent is a digest of (seed, agent, t, memory realization).  Total on all
    realizations, so it can drive any sweep without reachability bookkeeping.
    """

    def digest(agent, memories):
        def pick(t, values):
            key = (seed, agent, t, tuple(values[v] for v in memories[t]))
            return hashlib.sha256(repr(key).encode()).digest()[0] % model.action_space(agent, t).size

        return pick

    return _Pair(digest(1, info.m1), digest(2, info.m2))
