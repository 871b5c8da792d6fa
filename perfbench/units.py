"""One benchmark unit, run in a fresh interpreter.

    python3 perfbench/units.py '<spec json>'

A unit is one generated instance seed of one workload.  The child builds
its instances (set-up), runs the timed phase through the public
`nested_dp` API, checks every result against the package's own ground
truth, digests every value and policy, and prints one JSON line.  The
parent (`run.py`) compares the digests with the stored reference.

Every solver call goes through a module attribute (`solver.solve_exact`),
so the traced run's wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from nested_dp import decoupled, generators, info as info_mod, oracle, sim, solver  # noqa: E402
from nested_dp.beliefs import MarginalBelief  # noqa: E402
from nested_dp.model import format_ratio  # noqa: E402

# ---------------------------------------------------------------------------
# Canonical digests.
# ---------------------------------------------------------------------------


def _canon(obj):
    """JSON-ready canonical form of solver keys and values."""
    if isinstance(obj, Fraction):
        return format_ratio(obj)
    if isinstance(obj, MarginalBelief):
        return {"agent": obj.agent, "t": obj.t, "entries": _canon(obj.entries)}
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if isinstance(obj, (tuple, list)):
        return [_canon(x) for x in obj]
    return obj


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _memo_digest(value: Fraction, rows) -> str:
    """SHA-256 of the solve value and its memo, rows sorted canonically."""
    lines = sorted(json.dumps(_canon(row), sort_keys=True, separators=(",", ":")) for row in rows)
    return _sha([format_ratio(value), lines])


def exact_digest(sol) -> str:
    return _memo_digest(sol.value, ([b2, v, g1, g2] for b2, (v, g1, g2) in sol.memo.items()))


def pbp_digest(sol) -> str:
    return _memo_digest(sol.value, ([b1, list(a2), v, u1] for (b1, a2), (v, u1) in sol.memo.items()))


def decoupled_digest(sol) -> str:
    return _memo_digest(sol.value, ([key, v, u1] for key, (v, u1) in sol.memo.items()))


# ---------------------------------------------------------------------------
# The unit runner: stage timers, checks and digests.
# ---------------------------------------------------------------------------


class Unit:
    """Collects stage times, digests and failures of one unit."""

    def __init__(self):
        self.stage_s = {"solve": 0.0, "check": 0.0, "rollout": 0.0}
        self.digests: dict[str, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.episodes = 0

    def timed(self, stage: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.stage_s[stage] += time.perf_counter() - start

    def op(self, name: str, body):
        """Run one operation; an exception is a failed operation.  `body`
        returns the operation's digest, or None when it has none."""
        self.attempted += 1
        try:
            digest = body()
        except Exception:  # a failed operation must not stop the unit
            self.failed += 1
            self.errors.append(f"{name}: {traceback.format_exc(limit=4)}")
            self.digests[name] = None
            return
        if digest is not None:
            self.digests[name] = digest

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{name}: check failed {detail}")

    def rollout(self, name, model, info, strategy, seed, episodes, exact_value=None):
        config = sim.RolloutConfig(seed=seed, episodes=episodes)

        def body():
            report = self.timed("rollout", sim.rollout, model, info, strategy, config, exact_value)
            self.episodes += episodes
            return hashlib.sha256(report.to_bytes()).hexdigest()

        self.op(name, body)

    def solve_and_certify(self, tag, model, info, joint):
        """solve_exact, then replay the extracted closed-loop policy through
        the oracle and check that agent 1's best response to the solved
        agent-2 family recovers the team value.  Returns the solution."""
        out = {}

        def solve():
            out["sol"] = sol = self.timed("solve", solver.solve_exact, model, info)
            return exact_digest(sol)

        self.op(f"{tag}.solve_exact", solve)
        sol = out.get("sol")
        if sol is None:
            return None
        strategy = solver.extract_control_strategy(sol)

        def replay():
            value = self.timed("check", oracle.evaluate_strategy, joint, model, info, strategy)
            self.check(f"{tag}.replay", value == sol.value, f"{value} != {sol.value}")

        self.op(f"{tag}.replay", replay)

        def best_response():
            psi2 = solver.optimal_psi2(model, info, sol)
            br = self.timed("solve", solver.solve_pbp_exact, model, info, psi2)
            self.check(f"{tag}.pbp_recovers_optimum", br.value == sol.value, f"{br.value} != {sol.value}")
            return pbp_digest(br)

        self.op(f"{tag}.pbp_optimal_psi2", best_response)
        return sol


# ---------------------------------------------------------------------------
# Workloads.  Each has a set-up (instance generation and info structures,
# untimed) and a timed phase.  `smoke` shrinks every instance so the whole
# code path runs in about a second.
# ---------------------------------------------------------------------------


def split_delay_structure(model):
    """Agent 2's observations reach agent 1 two steps late, its actions one
    step late: the delayed-sharing structure at d=2 with actions shared as
    soon as d=1 would share them."""
    T = model.horizon
    m1, m2, a2 = [], [], []
    for t in range(T + 1):
        shared = [[s, "Y2"] for s in range(t - 1)] + [[s, "U2"] for s in range(t)]
        a2.append(shared)
        m2.append([[s, "Y2"] for s in range(t + 1)] + [[s, "U2"] for s in range(t)])
        m1.append([[s, "Y1"] for s in range(t + 1)] + [[s, "U1"] for s in range(t)] + shared)
    info = info_mod.info_from_json(model, {"kind": "explicit", "m1": m1, "m2": m2, "a2": a2})
    violations = info_mod.check_nestedness(info)
    if violations:
        raise ValueError(f"split-delay structure is not nested: {violations[0]}")
    return info


def setup_exact_d2(seed, smoke):
    model = generators.certification_instance(seed, horizon=1 if smoke else 2)
    return model, split_delay_structure(model)


def timed_exact_d2(unit, seed, smoke, data):
    model, info = data
    joint = unit.timed("check", oracle.build_joint, model)
    sol = unit.solve_and_certify("d2", model, info, joint)
    if sol is not None:
        strategy = solver.extract_control_strategy(sol)
        unit.rollout("d2.rollout", model, info, strategy, seed, 500 if smoke else 5000, sol.value)


# (horizon, delay) of the small solves; the rollout executes the second one's
# policy (T=2, d=1 at full size).
TEAM_SHAPES = ((2, 0), (2, 1), (3, 0), (3, 1))
TEAM_SHAPES_SMOKE = ((1, 0), (1, 1))


def setup_team_certify(seed, smoke):
    shapes = TEAM_SHAPES_SMOKE if smoke else TEAM_SHAPES
    cases = []
    for T, d in shapes:
        model = generators.certification_instance(seed, horizon=T)
        cases.append((f"T{T}d{d}", model, info_mod.build_delayed_structure(model, d)))
    brute = generators.certification_instance(seed, horizon=1)
    brute_info = info_mod.build_delayed_structure(brute, 1 if smoke else 0)
    return cases, (brute, brute_info)


def timed_team_certify(unit, seed, smoke, data):
    cases, (brute, brute_info) = data
    rollout_case = None
    for tag, model, info in cases:
        joint = unit.timed("check", oracle.build_joint, model)
        sol = unit.solve_and_certify(tag, model, info, joint)
        if tag == cases[1][0] and sol is not None:
            rollout_case = (model, info, sol)

    joint = unit.timed("check", oracle.build_joint, brute)
    out = {}

    def solve_small():
        out["sol"] = sol = unit.timed("solve", solver.solve_exact, brute, brute_info)
        return exact_digest(sol)

    def brute_force():
        res = unit.timed("check", oracle.exhaustive_min, brute, brute_info, joint)
        sol = out.get("sol")
        unit.check("T1.exhaustive_equals_dp", sol is not None and res.value == sol.value,
                   f"{res.value} vs {sol and sol.value}")
        return _sha([format_ratio(res.value), res.strategy.to_json()])

    unit.op("T1.solve_exact", solve_small)
    unit.op("T1.exhaustive_min", brute_force)

    if rollout_case is not None:
        model, info, sol = rollout_case
        strategy = solver.extract_control_strategy(sol)
        unit.rollout("rollout", model, info, strategy, seed, 1000 if smoke else 20000, sol.value)


RESOLUTIONS = (1, 2, 4, 5)
RESOLUTIONS_SMOKE = (1, 2)


def setup_pbp_sweep(seed, smoke):
    model = generators.convergence_instance(seed)
    info = info_mod.build_delayed_structure(model, 1 if smoke else 2)
    psi2 = solver.HashedPsi2(model, info, 7)
    reductions = []
    for perfect in (False, True):
        dec = generators.decoupled_instance(seed, horizon=2 if smoke else 5, perfect_obs_1=perfect)
        emb = decoupled.embed(dec)
        emb_info = info_mod.build_delayed_structure(emb, 1)
        reductions.append((perfect, dec, emb, emb_info, solver.HashedPsi2(emb, emb_info, 7)))
    team_dec = generators.decoupled_instance(seed, horizon=1 if smoke else 2)
    team_emb = decoupled.embed(team_dec)
    team_info = info_mod.build_delayed_structure(team_emb, 1)
    return model, info, psi2, reductions, (team_dec, team_emb, team_info)


def timed_pbp_sweep(unit, seed, smoke, data):
    model, info, psi2, reductions, (team_dec, team_emb, team_info) = data
    joint = unit.timed("check", oracle.build_joint, model)
    out = {}

    def exact():
        out["exact"] = sol = unit.timed("solve", solver.solve_pbp_exact, model, info, psi2)
        value = unit.timed("check", oracle.evaluate_strategy, joint, model, info,
                           solver.extract_pbp_strategy(sol))
        unit.check("pbp.exact_replay", value == sol.value, f"{value} != {sol.value}")
        return pbp_digest(sol)

    unit.op("pbp.exact", exact)
    if "exact" in out:
        # Executed before the sweep, so the rollout runs on a heap without lattices.
        unit.rollout("pbp.rollout", model, info, solver.extract_pbp_strategy(out["exact"]), seed,
                     500 if smoke else 20000)
    for n in RESOLUTIONS_SMOKE if smoke else RESOLUTIONS:

        def approx(n=n):
            sol = unit.timed("solve", solver.solve_pbp_approx, model, info, psi2, n)
            digest = pbp_digest(sol)
            alphas = unit.timed("solve", lambda: solver.alpha_bound(solver.make_alpha_inputs(sol), model.horizon))
            value = unit.timed("check", oracle.evaluate_strategy, joint, model, info,
                               solver.extract_pbp_strategy(sol))
            best = out.get("exact")
            unit.check(f"pbp.n{n}.gap_nonnegative", best is not None and value >= best.value,
                       f"{value} vs {best and best.value}")
            return _sha([digest, format_ratio(value), [format_ratio(a) for a in alphas]])

        unit.op(f"pbp.n{n}", approx)

    for perfect, dec, emb, emb_info, dec_psi2 in reductions:

        def reduced(perfect=perfect, dec=dec, emb=emb, emb_info=emb_info, dec_psi2=dec_psi2):
            red = unit.timed("solve", decoupled.solve_decoupled_pbp, dec, emb_info, dec_psi2, perfect)
            generic = unit.timed("solve", solver.solve_pbp_exact, emb, emb_info, dec_psi2)
            unit.check(f"decoupled.po{int(perfect)}.matches_generic", red.value == generic.value,
                       f"{red.value} != {generic.value}")
            return decoupled_digest(red)

        unit.op(f"decoupled.po{int(perfect)}", reduced)

    def team_optimum():
        team = unit.timed("solve", solver.solve_exact, team_emb, team_info)
        psi = solver.optimal_psi2(team_emb, team_info, team)
        red = unit.timed("solve", decoupled.solve_decoupled_pbp, team_dec, team_info, psi)
        unit.check("decoupled.recovers_team_optimum", red.value == team.value,
                   f"{red.value} != {team.value}")
        return _sha([exact_digest(team), decoupled_digest(red)])

    unit.op("decoupled.team_optimum", team_optimum)


WORKLOADS = {
    "exact_d2": (setup_exact_d2, timed_exact_d2),
    "team_certify": (setup_team_certify, timed_team_certify),
    "pbp_sweep": (setup_pbp_sweep, timed_pbp_sweep),
}


def _calibration_loop() -> Fraction:
    acc = Fraction(0)
    table = {}
    for k in range(1, 2000):
        acc += Fraction(k % 7 + 1, k % 13 + 3) * Fraction(3, k % 5 + 2)
        table[(k % 97, acc.denominator % 11)] = acc
    return acc


def calibrate(repeats: int = 5) -> tuple[float, float]:
    """Median time of a fixed pure-Python Fraction workload that uses no
    `nested_dp` code, and the wall time spent measuring it.  The machine's
    speed drifts by tens of percent over minutes; run.py divides every
    time by the mean of this figure before and after the timed phase."""
    start = time.perf_counter()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2], time.perf_counter() - start


def main(spec: dict) -> int:
    calibration_before, calibration_cost = calibrate()
    setup, timed = WORKLOADS[spec["workload"]]
    seed, smoke = spec["instance"], spec["smoke"]
    tracer = None
    data = setup(seed, smoke)
    if spec["trace"]:
        from tracer import Tracer  # only traced runs import the wrappers

        tracer = Tracer(spec["run_id"])
        tracer.install()
    unit = Unit()
    setup_s = time.time() - spec["spawned_at"] - calibration_cost
    start = time.perf_counter()
    timed(unit, seed, smoke, data)
    total_s = time.perf_counter() - start
    calibration_after, _ = calibrate()
    result = {
        "calibration_s": (calibration_before + calibration_after) / 2,
        "setup_s": setup_s,
        "total_s": total_s,
        "solve_s": unit.stage_s["solve"],
        "check_s": unit.stage_s["check"] + unit.stage_s["rollout"],
        "rollout_s": unit.stage_s["rollout"],
        "episodes": unit.episodes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": unit.attempted,
        "failed": unit.failed,
        "digests": unit.digests,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if spec.get("span_file"):
            tracer.write_spans(spec["span_file"])
    for err in unit.errors:
        print(err, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
