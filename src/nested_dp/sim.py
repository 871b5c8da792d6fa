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

That is how the draws are tallied: the episodes are cut into contiguous
ranges, one per CPU the process may run on (each of at least `_MIN_CHUNK`
episodes), a forked child tallies each range after the first, and the
parts are merged in range order, which reproduces the one-process tally's
counts and their order.  Children only draw and count: every trajectory
and all exact arithmetic run in the calling process, so the report bytes
do not depend on the CPU count.  There is no fork where `os.fork` is
missing or another thread is alive, and a range whose child fails is
tallied by the caller.  `tests/test_rollout_bytes.py` pins the report bytes.
"""

from __future__ import annotations

import json
import marshal
import math
import os
import random
import signal
import threading
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


# Fewest episodes worth a process of their own.  Forking a process with a
# few tens of MB of heap and collecting its part take about 3 ms on a 2-vCPU
# VM; tallying 2000 episodes of a nine-draw plan takes about 20 ms.
_MIN_CHUNK = 2000


def _tally(plan, seed: int, lo: int, hi: int) -> dict:
    """How often each draw occurs in episodes lo..hi-1, keyed in order of
    first occurrence."""
    rng = random.Random()
    reseed, getrandbits = rng.seed, rng.getrandbits
    counts: dict = {}
    for episode in range(lo, hi):
        reseed(f"{seed}:{episode}")
        draws = _draw_plan(plan, getrandbits)
        counts[draws] = counts.get(draws, 0) + 1
    return counts


def _workers(n: int) -> int:
    """One range per usable CPU, each of at least `_MIN_CHUNK` episodes; a
    single range where there is no fork, or where another thread is alive
    and forking would copy its locks mid-use."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n // _MIN_CHUNK))


def _fork_tally(plan, seed: int, lo: int, hi: int):
    """`(pid, pipe)` of a child that sends the marshalled items of
    `_tally(plan, seed, lo, hi)` down the pipe and exits, or None if it
    could not be started.  The child leaves through `os._exit`, so no
    exit handler, buffer or span of the parent's is run or flushed twice."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(list(_tally(plan, seed, lo, hi).items())))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _collect(pid: int, pipe) -> list | None:
    """The items the child sent, once it has been reaped; None unless it
    exited 0 and sent a whole payload."""
    payload = pipe.read()
    pipe.close()
    try:
        items = marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        items = None
    _, status = os.waitpid(pid, 0)
    return items if status == 0 else None


def _split_tally(plan, seed: int, n: int) -> dict:
    """`_tally(plan, seed, 0, n)`, over contiguous ranges of episodes in
    parallel: a forked child tallies each range after the first, the caller
    tallies the first, and the parts are merged in range order, which gives
    the serial dict's counts and its insertion order.  A range whose child
    could not start or did not report is tallied here instead."""
    k = _workers(n)
    bounds = [n * i // k for i in range(k + 1)]
    children = {}
    try:
        for i in range(1, k):
            child = _fork_tally(plan, seed, bounds[i], bounds[i + 1])
            if child is not None:
                children[i] = child
        counts = _tally(plan, seed, bounds[0], bounds[1])
        for i in range(1, k):
            part = None
            if i in children:
                part = _collect(*children[i])
                del children[i]
            if part is None:
                part = _tally(plan, seed, bounds[i], bounds[i + 1]).items()
            for draws, count in part:
                counts[draws] = counts.get(draws, 0) + count
    finally:
        # only reached with children left when this process raised
        for pid, pipe in children.values():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    return counts


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
    n = config.episodes
    counts = _split_tally(plan, config.seed, n)

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
