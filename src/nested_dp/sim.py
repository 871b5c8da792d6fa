"""Seeded Monte Carlo rollouts of executable strategies.

Primitive draws are exact: each marginal is sampled by drawing an integer
uniformly below the common denominator and walking the cumulative
numerators, so the sampled law equals the declared rational law and no
float enters the episode itself.  Floats appear only in the report, where
exact Fractions are rounded to the nearest double.

Determinism contract: episode e reseeds one generator with the string
`f"{seed}:{e}"`, so its stream is the one `random.Random(f"{seed}:{e}")`
gives; string seeding is the stable SHA-512 based scheme.  Each draw equals
`randrange(denom)`, a rejection draw on `getrandbits(denom.bit_length())`,
followed by the threshold walk.  Identical (seed, episodes, strategy,
model) therefore produce byte-identical reports on any platform, and
episodes can be generated independently without changing the stream.
`tests/test_rollout_bytes.py` pins the report bytes.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .info import InfoStructure
from .model import Dist, TeamModel, format_ratio, scale_to_integers
from .oracle import trajectory

__all__ = ["RolloutConfig", "Report", "rollout"]


@dataclass(frozen=True)
class RolloutConfig:
    seed: int
    episodes: int

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")


@dataclass(frozen=True)
class Report:
    episodes: int
    seed: int
    mean_cost: float
    stderr: float
    exact_value: Fraction | None
    per_time_mean: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "episodes": self.episodes,
            "seed": self.seed,
            "mean_cost": self.mean_cost,
            "stderr": self.stderr,
            "exact_value": None if self.exact_value is None else format_ratio(self.exact_value),
            "per_time_mean": list(self.per_time_mean),
        }

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()


def _plan_entry(dist: Dist) -> tuple[int, int, tuple[int, ...]]:
    """The `(k, denom, thresholds)` triple of an exact categorical draw that
    `_draw_plan` consumes: the cumulative integer numerators of `dist` over
    one common denominator, and `k = denom.bit_length()`."""
    denom, nums = scale_to_integers(dist.weights)
    return denom.bit_length(), denom, tuple(accumulate(nums))


def _draw_plan(plan, getrandbits) -> tuple[int, ...]:
    """One outcome index per plan entry, in plan order.

    Each draw is `randrange(denom)` as CPython computes it: k random bits,
    redrawn while they reach denom (so a denominator of 1 still consumes
    the stream), then the first threshold above the integer."""
    draws = []
    for k, denom, thresholds in plan:
        r = getrandbits(k)
        while r >= denom:
            r = getrandbits(k)
        draws.append(bisect_right(thresholds, r))
    return tuple(draws)


def rollout(
    model: TeamModel,
    info: InfoStructure,
    strategy,
    config: RolloutConfig,
    exact_value: Fraction | None = None,
) -> Report:
    """Estimate the expected total cost of a strategy-like object.

    Draw order within an episode is fixed (initial state, time-0 noises,
    then disturbance and next noises per step) so seeds pin trajectories.
    """
    T = model.horizon
    dists = [model.x0_dist, model.v_dist(1, 0), model.v_dist(2, 0)]
    for t in range(T):
        dists += [model.w_dist(t), model.v_dist(1, t + 1), model.v_dist(2, t + 1)]
    plan = tuple(map(_plan_entry, dists))

    # trajectories are deterministic given (strategy, draw), so tally how
    # often each draw occurs and do the exact arithmetic once per draw
    rng = random.Random()
    reseed, getrandbits = rng.seed, rng.getrandbits
    counts: dict = {}
    for episode in range(config.episodes):
        reseed(f"{config.seed}:{episode}")
        draws = _draw_plan(plan, getrandbits)
        counts[draws] = counts.get(draws, 0) + 1

    n = config.episodes
    per_time_sum = [Fraction(0)] * (T + 1)
    total_sum = Fraction(0)
    squares = Fraction(0)
    for draws, count in counts.items():
        # draws is (x0, v1_0, v2_0, w_0, v1_1, v2_1, w_1, ...)
        omega = (draws[0], draws[3::3], draws[1::3], draws[2::3])
        costs = trajectory(model, info, strategy, omega).stage_costs
        total = sum(costs, Fraction(0))
        total_sum += count * total
        squares += count * total * total
        for t, c in enumerate(costs):
            per_time_sum[t] += count * c
    mean_exact = total_sum / n
    if n > 1:
        var_exact = (squares - n * mean_exact * mean_exact) / (n * (n - 1))
        stderr = math.sqrt(var_exact)
    else:
        stderr = 0.0
    return Report(
        episodes=n,
        seed=config.seed,
        mean_cost=float(mean_exact),
        stderr=stderr,
        exact_value=exact_value,
        per_time_mean=tuple(float(s / n) for s in per_time_sum),
    )
