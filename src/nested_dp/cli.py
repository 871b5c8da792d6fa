"""Command-line interface.

Every subcommand prints one machine-readable JSON document on stdout;
diagnostics go to stderr.  Exit codes: 0 success, 1 domain errors (missing
or invalid files, impossible conditioning, blown budgets), 2 usage errors.

    validate FILE                  report model invariant violations
    solve FILE                     joint prescription optimum
    pbp FILE --psi2 PSI2           agent-1 best response, exact beliefs
    pbp-approx FILE --psi2 --n N   same on the resolution-N lattice
    alpha FILE --psi2 --n N        loss-bound sequence for the lattice solve
    oracle FILE                    brute-force strategy minimum
    simulate FILE --seed --episodes   Monte Carlo rollout
    lattice --m M --n N            emit the lattice point list
    quantize --vector V --n N      nearest lattice point, distance, bound
    check-factorization FILE       belief factorization report (decoupled)

The NESTED_DP_BUDGET environment variable overrides default resource caps;
explicit --budget flags override both.  A negative cap, from a flag or the
variable, is refused before any work, and so is a `solve` flag its route
ignores: --policy-out with --decoupled, --perfect-obs-1 without it.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import decoupled as dec_mod
from . import lattice as lat
from . import oracle as oracle_mod
from . import sim as sim_mod
from . import solver as solver_mod
from .errors import DomainGap, MissingKey, NestedDPError
from .info import build_delayed_structure, check_nestedness, info_from_json
from .limits import resolve_budget
from .model import format_ratio, model_from_json, parse_ratio, validate_model

__all__ = ["main", "cli_main"]


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _reject(path: str, violations: list) -> None:
    """Name the first violation of a model file, if there is one."""
    if violations:
        more = f" (and {len(violations) - 1} more)" if len(violations) > 1 else ""
        raise NestedDPError(f"model file {path} is invalid: {violations[0]}{more}")


def _decode_model(doc):
    """A decoupled document's DecoupledModel, any other document's TeamModel."""
    if isinstance(doc, dict) and doc.get("kind") == "decoupled":
        return dec_mod.decoupled_from_json(doc)
    return model_from_json(doc)


def _load_model(path: str):
    """(model, document) of a model file; a decoupled file yields its
    product embedding."""
    model, doc = _load_checked(path, "model", _decode_model)
    return (dec_mod.embed(model) if isinstance(model, dec_mod.DecoupledModel) else model), doc


def _load_decoupled(args, command: str):
    """(decoupled model, product embedding, info structure) of `args.model`."""
    dec, doc = _load_checked(args.model, "model", _decode_model)
    if not isinstance(dec, dec_mod.DecoupledModel):
        raise NestedDPError(f"{command} expects a decoupled model file, and model file {args.model} is not one")
    model = dec_mod.embed(dec)
    return dec, model, _load_info(args.model, doc, model, args.delay)


def _load(path: str, delay_override: int | None):
    model, doc = _load_model(path)
    _reject(path, validate_model(model))
    return model, doc, _load_info(path, doc, model, delay_override)


def _load_info(path: str, doc: dict, model, delay_override: int | None):
    """The info structure: the --delay override, else the file's `info`
    field, decoded and, when declared explicitly, checked for every
    nestedness rule (a delayed structure is nested by construction)."""
    if delay_override is not None:
        if not 0 <= delay_override <= model.horizon + 1:
            raise NestedDPError(f"--delay must be an integer in 0..{model.horizon + 1}, got {delay_override}")
        return build_delayed_structure(model, delay_override)
    if "info" not in doc:
        raise NestedDPError(f"model file {path} has no 'info' field; pass --delay")
    try:
        info = info_from_json(model, doc["info"])
    except NestedDPError as exc:
        raise NestedDPError(f"model file {path} is invalid: {exc}") from None
    if info.delay is None:
        _reject(path, [f"$.info: {v}" for v in check_nestedness(info)])
    return info


def _load_checked(path: str, what: str, decode, *context):
    """(decode(doc, *context), doc) of a JSON file; a file that is not UTF-8
    JSON, a repeated key or a document that `decode` refuses becomes a
    NestedDPError naming the file (and a violation's JSON path and rule)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_distinct_keys)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise NestedDPError(f"{what} file {path} is not valid JSON: {exc}") from None
    except NestedDPError as exc:
        raise NestedDPError(f"{what} file {path} is invalid: {exc}") from None
    try:
        return decode(doc, *context), doc
    except NestedDPError as exc:
        raise NestedDPError(f"{what} file {path} is invalid: {exc}") from None


def _distinct_keys(pairs: list) -> dict:
    """A JSON object as a dict; `json.load` would keep a repeated key's last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise NestedDPError(f"repeats the key {key!r}")
        doc[key] = value
    return doc


def _load_with_psi2(args):
    """(model, info, family) of `args.model` and the psi2 file `args.psi2`."""
    model, _, info = _load(args.model, args.delay)
    psi2, _ = _load_checked(args.psi2, "psi2", solver_mod.psi2_from_json, model, info)
    return model, info, (_TableFile(args.psi2, psi2.entries) if isinstance(psi2, solver_mod.TablePsi2) else psi2)


class _TableFile:
    """A psi2 table file's family: a [t, accessible] pair or a private
    realization that a run reaches and the file leaves out is an error
    naming the file and the key.  Keys no run reaches may stay out."""

    def __init__(self, path: str, entries: dict):
        self.path, self.entries = path, entries

    def prescription(self, t: int, a2real: tuple):
        entry = [t, list(a2real)]
        if (t, a2real) not in self.entries:
            raise NestedDPError(f"psi2 file {self.path} has no entry for the [t, accessible] pair {entry}")

        def action(ell):
            try:
                return self.entries[t, a2real](ell)
            except DomainGap:
                raise NestedDPError(
                    f"psi2 file {self.path}: entry {entry} has no action for the private realization {list(ell)}"
                ) from None

        return action


def _ratio_option(text: str, where: str) -> Fraction:
    """A 'p/q' command-line value; anything else is a located error."""
    try:
        return parse_ratio(text)
    except (ValueError, ZeroDivisionError):
        raise NestedDPError(f"{where} ({text!r}) is not a p/q ratio") from None


def _cmd_validate(args) -> int:
    model, _ = _load_model(args.model)  # no info structure needed to validate
    violations = validate_model(model)
    _emit({"violations": [{"path": v.path, "message": v.message} for v in violations]})
    return 0


def _cmd_solve(args) -> int:
    if args.decoupled:
        return _solve_decoupled(args)
    model, _, info = _load(args.model, args.delay)
    solution = solver_mod.solve_exact(model, info, args.budget)
    doc = {
        "value": format_ratio(solution.value),
        "roots": [
            {"accessible": list(a2), "probability": format_ratio(p), "value": format_ratio(solution.value_at(b2))}
            for a2, (p, b2) in solution.roots.items()
        ],
        "nodes": len(solution.memo),
        "pairs_enumerated": solution.pairs_enumerated,
    }
    if args.policy_out:
        policy_doc = {
            "value": format_ratio(solution.value),
            "stages": [
                {
                    "belief": b2.to_json(),
                    "value": format_ratio(v),
                    "gamma1": g1.to_json(),
                    "gamma2": g2.to_json(),
                }
                for b2, (v, g1, g2) in solution.memo.items()
            ],
        }
        with open(args.policy_out, "w") as fh:
            json.dump(policy_doc, fh, sort_keys=True)
    _emit(doc)
    return 0


def _solve_decoupled(args) -> int:
    """Team optimum on the product embedding, then the same value recovered
    through the reduced-key solver with the extracted optimal prescription
    family: the executable content of the decoupled reduction."""
    dec, model, info = _load_decoupled(args, "--decoupled")
    solution = solver_mod.solve_exact(model, info, args.budget)
    psi2 = solver_mod.optimal_psi2(model, info, solution)
    reduced = dec_mod.solve_decoupled_pbp(
        dec, info, psi2, perfect_obs_1=args.perfect_obs_1, budget=args.budget
    )
    _emit(
        {
            "value": format_ratio(solution.value),
            "reduced_value": format_ratio(reduced.value),
            "match": solution.value == reduced.value,
            "perfect_obs_1": args.perfect_obs_1,
            "reduced_nodes": len(reduced.memo),
        }
    )
    return 0


def _write_pbp_policy(pbp, path: str) -> None:
    doc = {
        "value": format_ratio(pbp.value),
        "resolution": pbp.resolution,
        "entries": [
            {
                "belief": b1.to_json(),
                "accessible": list(a2),
                "value": format_ratio(v),
                "action": u1,
            }
            for (b1, a2), (v, u1) in pbp.memo.items()
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def _cmd_pbp(args) -> int:
    model, info, psi2 = _load_with_psi2(args)
    pbp = solver_mod.solve_pbp_exact(model, info, psi2, args.budget)
    if args.policy_out:
        _write_pbp_policy(pbp, args.policy_out)
    _emit(
        {
            "value": format_ratio(pbp.value),
            "nodes": len(pbp.memo),
            "roots": [
                {"new_info": list(z1), "probability": format_ratio(p)}
                for z1, (p, _, _) in pbp.roots.items()
            ],
        }
    )
    return 0


def _cmd_pbp_approx(args) -> int:
    model, info, psi2 = _load_with_psi2(args)
    pbp = solver_mod.solve_pbp_approx(model, info, psi2, args.n, args.budget)
    if args.policy_out:
        _write_pbp_policy(pbp, args.policy_out)
    _emit(
        {
            "value": format_ratio(pbp.value),
            "n": args.n,
            "nodes": len(pbp.memo),
            "lattice_sizes": {str(t): lat.lattice_size(pbp.dimension(t), args.n) for t in pbp.private_lists},
        }
    )
    return 0


def _cmd_alpha(args) -> int:
    jl = _ratio_option(args.jl, "--jl") if args.jl else None
    if jl is not None and jl < 0:
        raise NestedDPError(f"--jl ({args.jl!r}) must be non-negative")
    model, info, psi2 = _load_with_psi2(args)
    pbp = solver_mod.solve_pbp_approx(model, info, psi2, args.n, args.budget)
    inputs = solver_mod.make_alpha_inputs(pbp, jl)
    alphas = solver_mod.alpha_bound(inputs, model.horizon)
    _emit(
        {
            "n": args.n,
            "epsilon": format_ratio(inputs.epsilon),
            "cost_sup": format_ratio(inputs.cost_sup),
            "lipschitz": format_ratio(inputs.lipschitz),
            "alphas": [format_ratio(a) for a in alphas],
        }
    )
    return 0


def _cmd_oracle(args) -> int:
    model, _, info = _load(args.model, args.delay)
    joint = oracle_mod.build_joint(model, args.budget)
    result = oracle_mod.exhaustive_min(model, info, joint, args.max_strategies)
    doc = {
        "value": format_ratio(result.value),
        "strategies_tested": result.strategies_tested,
        "strategy": result.strategy.to_json(),
    }
    if args.with_solve:
        solution = solver_mod.solve_exact(model, info, args.budget)
        doc["solve_value"] = format_ratio(solution.value)
        doc["gap"] = format_ratio(solution.value - result.value)
    _emit(doc)
    return 0


def _cmd_simulate(args) -> int:
    model, _, info = _load(args.model, args.delay)
    config = sim_mod.RolloutConfig(args.seed, args.episodes)
    if args.strategy:
        strategy, _ = _load_checked(args.strategy, "strategy", oracle_mod.ExplicitStrategy.from_json, model, info)
        try:
            report = sim_mod.rollout(model, info, strategy, config)
        except MissingKey as exc:  # a memory the run reaches and the file leaves out
            raise NestedDPError(f"strategy file {args.strategy}: {exc}") from None
    else:
        solution = solver_mod.solve_exact(model, info, args.budget)
        report = sim_mod.rollout(model, info, solver_mod.extract_control_strategy(solution), config, solution.value)
    _emit(report.to_json())
    return 0


def _cmd_lattice(args) -> int:
    built = lat.build_lattice(args.m, args.n, args.budget)
    _emit(
        {
            "m": args.m,
            "n": args.n,
            "count": len(built.points),
            "points": [[format_ratio(c) for c in p] for p in built.points],
        }
    )
    return 0


def _cmd_quantize(args) -> int:
    vector = tuple(
        _ratio_option(part, f"--vector: coordinate {k}") for k, part in enumerate(args.vector.split(","), 1)
    )
    if min(vector) < 0 or sum(vector) != 1:
        raise NestedDPError("--vector must be a probability vector")
    bound = lat.error_bound(len(vector), args.n)
    point = lat.nearest_point(vector, args.n)
    _emit(
        {
            "point": [format_ratio(c) for c in point],
            "index": lat.lattice_rank(point, args.n),
            "distance": format_ratio(lat.tv_distance(vector, point)),
            "bound": format_ratio(bound),
        }
    )
    return 0


def _cmd_check_factorization(args) -> int:
    dec, model, info = _load_decoupled(args, "check-factorization")
    split = (dec.states1[0].size, dec.states2[0].size)
    joint = oracle_mod.build_joint(model, args.budget)
    from .generators import HashedTeamStrategy

    replayed = oracle_mod.replay(joint, model, info, HashedTeamStrategy(model, info, args.strategy_seed))
    checks = []
    for t, (m1_seen, a2_seen) in enumerate(dec_mod.reachable_memories(info, replayed)):
        for m1real in m1_seen:
            res = dec_mod.check_factorization_pi1(split, info, replayed, t, m1real)
            checks.append({"kind": "state-and-private", "t": t, "history": list(m1real), "equal": res.equal})
        for a2real in a2_seen:
            res = dec_mod.check_factorization_pi2(split, info, replayed, t, a2real)
            checks.append({"kind": "with-filter", "t": t, "history": list(a2real), "equal": res.equal})
    _emit({"checks": checks, "all_equal": all(c["equal"] for c in checks)})
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nested-dp",
        description="Exact solvers for two-agent teams with one-directional delayed sharing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_cmd(name, fn, **extra):
        p = sub.add_parser(name)
        p.add_argument("model", help="model JSON file")
        p.add_argument("--delay", type=int, default=None, help="override the sharing delay")
        p.add_argument("--budget", type=int, default=None, help="resource cap override")
        p.set_defaults(fn=fn)
        return p

    add_model_cmd("validate", _cmd_validate)
    p = add_model_cmd("solve", _cmd_solve)
    p.add_argument("--policy-out", default=None, help="write the solved policy as JSON")
    p.add_argument("--decoupled", action="store_true", help="route a decoupled file through the reduced solver")
    p.add_argument("--perfect-obs-1", action="store_true", help="use the perfect-own-observation reduction")
    p = add_model_cmd("pbp", _cmd_pbp)
    p.add_argument("--psi2", required=True, help="agent-2 prescription family JSON")
    p.add_argument("--policy-out", default=None)
    p = add_model_cmd("pbp-approx", _cmd_pbp_approx)
    p.add_argument("--psi2", required=True)
    p.add_argument("--n", type=int, required=True, help="lattice resolution")
    p.add_argument("--policy-out", default=None)
    p = add_model_cmd("alpha", _cmd_alpha)
    p.add_argument("--psi2", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jl", default=None, help="override the Lipschitz bound (p/q)")
    p = add_model_cmd("oracle", _cmd_oracle)
    p.add_argument("--max-strategies", type=int, default=None)
    p.add_argument("--with-solve", action="store_true")
    p = add_model_cmd("simulate", _cmd_simulate)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--strategy", default=None, help="explicit strategy JSON file")
    p = sub.add_parser("lattice")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_lattice)
    p = sub.add_parser("quantize")
    p.add_argument("--vector", required=True, help="comma-separated p/q coordinates")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_quantize)
    p = add_model_cmd("check-factorization", _cmd_check_factorization)
    p.add_argument("--strategy-seed", type=int, default=0)
    return parser


def _check_caps(args) -> None:
    """Refuse a negative cap before any work: each cap option the command
    takes, and NESTED_DP_BUDGET where the option is not given; a count
    (--n, --m, --episodes) below 1; and a `solve` flag that the chosen
    route would ignore."""
    for dest, flag in (("budget", "--budget"), ("max_strategies", "--max-strategies")):
        if hasattr(args, dest):
            resolve_budget(getattr(args, dest), flag)
    for dest in ("n", "m", "episodes"):
        if getattr(args, dest, 1) < 1:
            raise NestedDPError(f"--{dest} must be a positive integer, got {getattr(args, dest)}")
    if getattr(args, "decoupled", False) and args.policy_out:
        raise NestedDPError("--policy-out cannot be used with --decoupled")
    if getattr(args, "perfect_obs_1", False) and not args.decoupled:
        raise NestedDPError("--perfect-obs-1 needs --decoupled")


def cli_main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_caps(args)
        return args.fn(args)
    except (NestedDPError, OSError, ValueError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
