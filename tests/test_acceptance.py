"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every numeric comparison is exact rational equality unless the criterion is
itself statistical (the Monte Carlo consistency check, which uses its stated
3-standard-error window).  Instance seeds are frozen; the suites they drive
are deterministic end to end.
"""

import math
import random
from fractions import Fraction

import pytest

from nested_dp import oracle as orc
from nested_dp.certify import (
    certify_belief_and_cost_identities,
    certify_dp_optimality,
    convergence_report,
)
from nested_dp.decoupled import (
    check_factorization_pi1,
    check_factorization_pi2,
    embed,
    solve_decoupled_pbp,
)
from nested_dp.generators import (
    HashedTeamStrategy,
    certification_instance,
    convergence_instance,
    coupled_counterexample,
    decoupled_instance,
)
from nested_dp.info import build_delayed_structure
from nested_dp.lattice import (
    build_lattice,
    error_bound,
    lattice_size,
    quantize,
    tv_distance,
)
from nested_dp.sim import RolloutConfig, rollout
from nested_dp.solver import (
    HashedPsi2,
    extract_control_strategy,
    optimal_psi2,
    solve_exact,
    solve_pbp_exact,
)
from test_lattice import exhaustive_nearest

CERT_SEEDS = (0, 1, 2, 3, 4)
CONV_SEEDS = (1, 3, 4)
DECOUPLED_SEEDS = (0, 1, 2)
RESOLUTIONS = (1, 2, 4, 8, 16)


def announce(index: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {index} {name}: {status}{suffix}")
    assert ok, f"criterion {index} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def cert_setups():
    out = []
    for seed in CERT_SEEDS:
        model = certification_instance(seed)
        info = build_delayed_structure(model, 1)
        out.append((seed, model, info))
    return out


@pytest.fixture(scope="module")
def cert_solutions(cert_setups):
    return {seed: solve_exact(model, info) for seed, model, info in cert_setups}


@pytest.fixture(scope="module")
def conv_reports():
    out = {}
    for seed in CONV_SEEDS:
        model = convergence_instance(seed)
        info = build_delayed_structure(model, 1)
        psi2 = HashedPsi2(model, info, 7)
        out[seed] = convergence_report(model, info, psi2, RESOLUTIONS)
    return out


def test_criterion_1_dp_optimality(cert_setups, cert_solutions):
    """Prescription DP equals the exhaustive strategy minimum, exactly, and
    each instance certifies within the five-minute budget."""
    import time

    details = []
    ok = True
    for seed, model, info in cert_setups:
        start = time.perf_counter()
        report = certify_dp_optimality(model, info)
        elapsed = time.perf_counter() - start
        ok = ok and report["ok"] and cert_solutions[seed].value == report["dp_value"] and elapsed < 300
        details.append(
            f"seed {seed}: {report['dp_value']} over {report['strategies_tested']} strategies in {elapsed:.1f}s"
        )
    announce(1, "dp-optimality", ok, "; ".join(details))


def test_criterion_2_and_3_belief_and_cost_identities(cert_setups):
    """Recursive beliefs equal direct conditionals on every reachable
    history under every enumerated strategy; belief-weighted costs equal
    conditional expectations on every (belief, prescription) pair."""
    belief_ok = cost_ok = True
    b_checks = c_checks = 0
    for seed, model, info in cert_setups:
        report = certify_belief_and_cost_identities(model, info)
        belief_ok = belief_ok and not any(k.startswith("belief") for k, _ in report["failures"])
        cost_ok = cost_ok and not any(k.startswith("cost") for k, _ in report["failures"])
        b_checks += report["belief1_checks"] + report["belief2_checks"] + report["marginal_checks"]
        c_checks += report["cost1_checks"] + report["cost2_checks"]
    announce(2, "belief-identities", belief_ok, f"{b_checks} exact comparisons")
    announce(3, "cost-identities", cost_ok, f"{c_checks} exact comparisons")


def test_criterion_4_lattice_counts():
    ok = True
    for m in range(1, 6):
        for n in range(1, 7):
            lat = build_lattice(m, n)
            ok = ok and len(lat.points) == lattice_size(m, n) == math.comb(m + n - 1, m - 1)
    half = Fraction(1, 2)
    ok = ok and set(build_lattice(2, 2).points) == {
        (Fraction(0), Fraction(1)),
        (half, half),
        (Fraction(1), Fraction(0)),
    }
    ok = ok and set(build_lattice(3, 2).points) == {
        (Fraction(1), Fraction(0), Fraction(0)),
        (half, half, Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), half, half),
        (Fraction(0), Fraction(0), Fraction(1)),
        (half, Fraction(0), half),
    }
    announce(4, "lattice-counts", ok, "m in 1..5, n in 1..6 plus the two listed point sets")


def _random_simplex_point(rng: random.Random, m: int, denom: int = 360):
    cuts = sorted(rng.randrange(denom + 1) for _ in range(m - 1))
    parts, prev = [], 0
    for c in cuts:
        parts.append(Fraction(c - prev, denom))
        prev = c
    parts.append(Fraction(denom - prev, denom))
    return tuple(parts)


def test_criterion_5_quantizer_bound_and_exactness():
    rng = random.Random("acceptance-quantizer")
    ok = True
    checked = 0
    for m in (2, 3, 4):
        for n in (1, 2, 4, 8):
            lat = build_lattice(m, n)
            bound = error_bound(m, n)
            for _ in range(10_000):
                point = _random_simplex_point(rng, m)
                q = quantize(lat, point)
                best_idx, best_dist = exhaustive_nearest(lat, point)
                dist = tv_distance(point, q.point())
                if q.index != best_idx or dist != best_dist or dist > bound:
                    ok = False
                checked += 1
    announce(5, "quantizer-bound", ok, f"{checked} points, zero violations")


def test_criterion_6_approximate_dp_convergence(conv_reports):
    ok = True
    details = []
    for seed, report in conv_reports.items():
        gaps = [report["gaps"][n] for n in RESOLUTIONS]
        nonneg = all(g >= 0 for g in gaps)
        mono = all(a >= b for a, b in zip(gaps, gaps[1:]))
        at_cover = report["coverage_n"] is not None and report["gaps"][report["coverage_n"]] == 0
        ok = ok and nonneg and mono and at_cover
        details.append(
            f"seed {seed}: gaps {[str(g) for g in gaps]}, coverage at n={report['coverage_n']}"
        )
    announce(6, "approx-dp-convergence", ok, "; ".join(details))


def test_criterion_7_alpha_bound_validity(conv_reports):
    ok = True
    for report in conv_reports.values():
        for n in RESOLUTIONS:
            if report["gaps"][n] > report["alpha0"][n]:
                ok = False
    announce(7, "loss-bound-validity", ok, "measured gap <= recursive bound at every resolution")


def test_criterion_8_decoupled_reductions():
    ok = True
    details = []
    for seed in DECOUPLED_SEEDS:
        dec = decoupled_instance(seed)
        emb = embed(dec)
        info = build_delayed_structure(emb, 1)
        joint = orc.build_joint(emb)
        strategy = HashedTeamStrategy(emb, info, seed + 21)
        replayed = orc.replay(joint, emb, info, strategy)
        for t in range(emb.horizon + 1):
            m1s, a2s = set(), set()
            for omega, _ in joint.entries:
                traj = orc.trajectory(emb, info, strategy, omega)
                m1s.add(traj.read(info.m1[t]))
                a2s.add(traj.read(info.a2[t]))
            for m1real in sorted(m1s):
                ok = ok and check_factorization_pi1((2, 2), info, replayed, t, m1real).equal
            for a2real in sorted(a2s):
                ok = ok and check_factorization_pi2((2, 2), info, replayed, t, a2real).equal
        for d in (0, 1, 2):
            info_d = build_delayed_structure(emb, d)
            psi2 = HashedPsi2(emb, info_d, 13)
            if solve_decoupled_pbp(dec, info_d, psi2).value != solve_pbp_exact(emb, info_d, psi2).value:
                ok = False
        details.append(f"seed {seed}: all histories factor, d in 0..2 match")

    # the solved-team cross-check and the perfect-observation variant
    dec = decoupled_instance(0)
    emb = embed(dec)
    info = build_delayed_structure(emb, 1)
    team = solve_exact(emb, info)
    if solve_decoupled_pbp(dec, info, optimal_psi2(emb, info, team)).value != team.value:
        ok = False
    dec_po = decoupled_instance(0, perfect_obs_1=True)
    emb_po = embed(dec_po)
    info_po = build_delayed_structure(emb_po, 1)
    psi2_po = HashedPsi2(emb_po, info_po, 2)
    if solve_decoupled_pbp(dec_po, info_po, psi2_po, perfect_obs_1=True).value != solve_pbp_exact(
        emb_po, info_po, psi2_po
    ).value:
        ok = False

    # the shipped coupled counterexample must break the factorization
    cm, split = coupled_counterexample()
    cinfo = build_delayed_structure(cm, 2)
    cjoint = orc.build_joint(cm)
    cstrategy = HashedTeamStrategy(cm, cinfo, 0)
    creplayed = orc.replay(cjoint, cm, cinfo, cstrategy)
    broken = 0
    for t in range(cm.horizon + 1):
        m1s = set()
        for omega, _ in cjoint.entries:
            traj = orc.trajectory(cm, cinfo, cstrategy, omega)
            m1s.add(traj.read(cinfo.m1[t]))
        for m1real in sorted(m1s):
            if not check_factorization_pi1(split, cinfo, creplayed, t, m1real).equal:
                broken += 1
    ok = ok and broken > 0
    details.append(f"coupled counterexample breaks {broken} histories")
    announce(8, "decoupled-reductions", ok, "; ".join(details))


def test_criterion_9_simulator_consistency(cert_setups, cert_solutions):
    ok = True
    details = []
    for seed, model, info in cert_setups:
        solution = cert_solutions[seed]
        strategy = extract_control_strategy(solution)
        config = RolloutConfig(seed=1000 + seed, episodes=100_000)
        report = rollout(model, info, strategy, config, solution.value)
        again = rollout(model, info, strategy, config, solution.value)
        within = abs(report.mean_cost - float(solution.value)) <= 3 * report.stderr
        ok = ok and within and report.to_bytes() == again.to_bytes()
        details.append(f"seed {seed}: mean {report.mean_cost:.4f} vs {float(solution.value):.4f}")
    announce(9, "simulator-consistency", ok, "; ".join(details))
