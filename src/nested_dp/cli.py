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
variable, is refused before any work.
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
from .model import (
    _SPACE_KEYS,
    format_ratio,
    model_from_json,
    parse_ratio,
    validate_model,
)

__all__ = ["main", "cli_main"]


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _reject(path: str, violations: list) -> None:
    """Name the first violation of a model file, if there is one."""
    if violations:
        more = f" (and {len(violations) - 1} more)" if len(violations) > 1 else ""
        raise NestedDPError(f"model file {path} is invalid: {violations[0]}{more}")


def _load_model(path: str):
    """(model, document) of a model file whose shape `_check_model` accepts;
    a decoupled file yields its product embedding."""
    doc = _load_checked(path, "model", _check_model)
    if doc.get("kind") == "decoupled":
        return dec_mod.embed(dec_mod.decoupled_from_json(doc)), doc
    return model_from_json(doc), doc


def _load_decoupled(args, command: str):
    """(decoupled model, product embedding, info structure) of `args.model`."""
    doc = _load_checked(args.model, "model", _check_model)
    if doc.get("kind") != "decoupled":
        raise NestedDPError(f"{command} expects a decoupled model file")
    dec = dec_mod.decoupled_from_json(doc)
    model = dec_mod.embed(dec)
    return dec, model, _load_info(args.model, doc, model, args.delay)


def _load(path: str, delay_override: int | None):
    model, doc = _load_model(path)
    _reject(path, validate_model(model))
    return model, doc, _load_info(path, doc, model, delay_override)


def _load_info(path: str, doc: dict, model, delay_override: int | None):
    """The info structure: the --delay override, else the file's `info`
    field, checked for shape and then for every nestedness rule."""
    if delay_override is not None:
        return build_delayed_structure(model, delay_override)
    if "info" not in doc:
        raise NestedDPError(f"model file {path} has no 'info' field; pass --delay")
    try:
        _check_info(doc["info"], model)
    except NestedDPError as exc:
        raise NestedDPError(f"model file {path} is invalid: {exc}") from None
    info = info_from_json(model, doc["info"])
    _reject(path, [f"$.info: {v}" for v in check_nestedness(info)])
    return info


def _load_checked(path: str, what: str, check, *context):
    """A JSON document whose shape `check(doc, *context)` accepts; a file
    that is not UTF-8 JSON, a repeated key or a violation becomes a
    NestedDPError naming the file (and a violation's JSON path and rule)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_distinct_keys)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise NestedDPError(f"{what} file {path} is not valid JSON: {exc}") from None
    except NestedDPError as exc:
        raise NestedDPError(f"{what} file {path} is invalid: {exc}") from None
    try:
        check(doc, *context)
    except NestedDPError as exc:
        raise NestedDPError(f"{what} file {path} is invalid: {exc}") from None
    return doc


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
    doc = _load_checked(args.psi2, "psi2", _check_psi2, model, info)
    psi2 = solver_mod.psi2_from_json(doc, model, info)
    return model, info, (_TableFile(args.psi2, psi2.entries) if doc["kind"] == "table" else psi2)


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


# Shape checks for model, info, psi2 and strategy documents: each raises
# NestedDPError "<JSON path>: <rule>" at the first violation.


def _expect(ok: bool, where: str, rule: str) -> None:
    if not ok:
        raise NestedDPError(f"{where}: {rule}")


def _int_below(node, n: int, where: str) -> None:
    _expect(type(node) is int and 0 <= node < n, where, f"must be an integer in 0..{n - 1}")


def _list_of(node, where: str, length: int | None = None) -> list:
    _expect(isinstance(node, list), where, "must be a list")
    if length is not None:
        _expect(len(node) == length, where, f"must have {length} elements, not {len(node)}")
    return node


def _unique(seen: dict, key, where: str, what: str) -> None:
    """Record `key`, met at `where`; one met before is a located error,
    since a later entry would silently replace the earlier one."""
    first = seen.setdefault(key, where)
    _expect(first == where, where, f"repeats the {what} of {first}")


def _realization(node, vars, where: str, model, info) -> None:
    for i, (value, var) in enumerate(zip(_list_of(node, where, len(vars)), vars)):
        _int_below(value, info.var_space_size(model, var), f"{where}[{i}]")


def _leaves(node, where: str, shape: tuple, check) -> None:
    """`check(value, path)` on every value of a nested list of the given
    shape: one length per level, None where any length will do."""
    if not shape:
        return check(node, where)
    for i, child in enumerate(_list_of(node, where, shape[0])):
        _leaves(child, f"{where}[{i}]", shape[1:], check)


def _ratio(node, where: str) -> Fraction:
    try:
        if isinstance(node, str):
            return parse_ratio(node)
    except (ValueError, ZeroDivisionError):
        pass
    raise NestedDPError(f"{where}: must be a 'p/q' string")


def _ratio_option(text: str, where: str) -> Fraction:
    """A 'p/q' command-line value; anything else is a located error."""
    try:
        return parse_ratio(text)
    except (ValueError, ZeroDivisionError):
        raise NestedDPError(f"{where} ({text!r}) is not a p/q ratio") from None


def _dist(node, where: str) -> None:
    weights = [_ratio(w, f"{where}[{i}]") for i, w in enumerate(_list_of(node, where))]
    ok = weights and all(0 <= w <= 1 for w in weights) and sum(weights) == 1
    _expect(ok, where, "must be probabilities in [0, 1] that sum to 1")


def _space(node, where: str) -> None:
    _expect(isinstance(node, dict), where, "must be an object")
    size = node.get("size")
    _expect(type(size) is int and size >= 1, f"{where}.size", "must be a positive integer")
    if "labels" in node:
        _list_of(node["labels"], f"{where}.labels", size)


def _check_model(doc) -> None:
    """The shape `model_from_json` reads, or `_check_decoupled`'s for a
    decoupled document; `validate_model` then checks a team model against
    the declared spaces."""
    _expect(isinstance(doc, dict), "$", "must be an object")
    if doc.get("kind") == "decoupled":
        return _check_decoupled(doc)
    T = doc.get("horizon")
    _expect(type(T) is int and T >= 0, "$.horizon", "must be a non-negative integer")
    spaces = doc.get("spaces")
    _expect(isinstance(spaces, dict), "$.spaces", "must be an object")
    for key in _SPACE_KEYS:
        node = spaces.get(key)
        _expect(isinstance(node, dict), f"$.spaces.{key}", "must be an object")
        if "per_time" in node:
            _leaves(node["per_time"], f"$.spaces.{key}.per_time", (None,), _space)
        else:
            _space(node, f"$.spaces.{key}")
    for key, depth in (("transition", 5), ("obs1", 3), ("obs2", 3)):
        _leaves(doc.get(key), f"$.{key}", (None,) * depth, lambda v, where: _expect(type(v) is int, where, "must be an integer"))
    _leaves(doc.get("cost"), "$.cost", (None,) * 4, _ratio)
    dists = doc.get("dists")
    _expect(isinstance(dists, dict), "$.dists", "must be an object")
    for key, depth in (("X0", 0), ("W", 1), ("V1", 1), ("V2", 1)):
        _leaves(dists.get(key), f"$.dists.{key}", (None,) * depth, _dist)


def _check_decoupled(doc) -> None:
    """The shape `decoupled_from_json` reads, down to every table's
    dimensions and value range: the product embedding reads every entry,
    and no later check runs on the decoupled model."""
    T = doc.get("horizon")
    _expect(type(T) is int and T >= 0, "$.horizon", "must be a non-negative integer")
    spaces = doc.get("spaces")
    _expect(isinstance(spaces, dict), "$.spaces", "must be an object")
    size = {}
    for key in ("X1", "X2", "U1", "U2", "W1", "W2", "V1", "V2", "Y1", "Y2"):
        _space(spaces.get(key), f"$.spaces.{key}")
        size[key] = spaces[key]["size"]
    for agent in "12":
        x, u, w, v, y = (size[kind + agent] for kind in "XUWVY")
        _leaves(doc.get(f"f{agent}"), f"$.f{agent}", (T, x, u, w), lambda node, where, n=x: _int_below(node, n, where))
        _leaves(doc.get(f"obs{agent}"), f"$.obs{agent}", (T + 1, x, v), lambda node, where, n=y: _int_below(node, n, where))
    _leaves(doc.get("cost"), "$.cost", (T + 1, size["X1"], size["X2"], size["U1"], size["U2"]), _ratio)
    dists = doc.get("dists")
    _expect(isinstance(dists, dict), "$.dists", "must be an object")
    for key, stages, space in (
        ("X1_0", (), "X1"), ("X2_0", (), "X2"), ("W1", (T,), "W1"), ("W2", (T,), "W2"),
        ("V1", (T + 1,), "V1"), ("V2", (T + 1,), "V2"),
    ):
        n = size[space]
        _leaves(dists.get(key), f"$.dists.{key}", stages, lambda node, where, n=n: _dist(_list_of(node, where, n), where))


def _check_info(doc, model) -> None:
    _expect(isinstance(doc, dict), "$.info", "must be an object")
    T = model.horizon
    kind = doc.get("kind")
    if kind == "delayed":
        _expect(type(doc.get("d")) is int, "$.info.d", "must be an integer")
    elif kind == "explicit":
        for key in ("m1", "m2", "a2"):
            for t, comp in enumerate(_list_of(doc.get(key), f"$.info.{key}", T + 1)):
                for i, var in enumerate(_list_of(comp, f"$.info.{key}[{t}]")):
                    where = f"$.info.{key}[{t}][{i}]"
                    s, var_kind = _list_of(var, where, 2)
                    _int_below(s, T + 1, f"{where}[0]")
                    _expect(var_kind in ("Y1", "U1", "Y2", "U2"), f"{where}[1]", "must be Y1, U1, Y2 or U2")
    else:
        raise NestedDPError("$.info.kind: must be 'delayed' or 'explicit'")


def _check_psi2(doc, model, info) -> None:
    _expect(isinstance(doc, dict), "$", "must be an object")
    T = model.horizon
    kind = doc.get("kind")
    if kind == "constant":
        n = min(model.action_space(2, t).size for t in range(T + 1))
        _int_below(doc.get("action"), n, "$.action")
    elif kind == "hashed":
        _expect(type(doc.get("seed")) is int, "$.seed", "must be an integer")
    elif kind == "table":
        seen: dict = {}
        for i, entry in enumerate(_list_of(doc.get("entries"), "$.entries")):
            where = f"$.entries[{i}]"
            t, a2real, presc = _list_of(entry, where, 3)
            _int_below(t, T + 1, f"{where}[0]")
            _realization(a2real, info.a2[t], f"{where}[1]", model, info)
            _unique(seen, (t, tuple(a2real)), where, "[t, accessible] pair")
            _expect(
                isinstance(presc, dict) and [presc.get(k) for k in ("agent", "t", "domain")] == [2, t, "private"],
                f"{where}[2]",
                f"must be an agent-2 prescription for t={t} on the private domain",
            )
            ells: dict = {}
            for j, pair in enumerate(_list_of(presc.get("table"), f"{where}[2].table")):
                ell, action = _list_of(pair, f"{where}[2].table[{j}]", 2)
                _realization(ell, info.l2[t], f"{where}[2].table[{j}][0]", model, info)
                _unique(ells, tuple(ell), f"{where}[2].table[{j}]", "private realization")
                _int_below(action, model.action_space(2, t).size, f"{where}[2].table[{j}][1]")
    else:
        raise NestedDPError("$.kind: must be 'table', 'constant' or 'hashed'")


def _check_strategy(doc, model, info) -> None:
    _expect(isinstance(doc, dict), "$", "must be an object")
    for agent, key, memories in ((1, "g1", info.m1), (2, "g2", info.m2)):
        for t, stage in enumerate(_list_of(doc.get(key), f"$.{key}", model.horizon + 1)):
            seen: dict = {}
            for j, pair in enumerate(_list_of(stage, f"$.{key}[{t}]")):
                where = f"$.{key}[{t}][{j}]"
                memory, action = _list_of(pair, where, 2)
                _realization(memory, memories[t], f"{where}[0]", model, info)
                _unique(seen, tuple(memory), where, "memory")
                _int_below(action, model.action_space(agent, t).size, f"{where}[1]")


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
        doc = _load_checked(args.strategy, "strategy", _check_strategy, model, info)
        try:
            report = sim_mod.rollout(model, info, oracle_mod.ExplicitStrategy.from_json(info, doc), config)
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
    takes, and NESTED_DP_BUDGET where the option is not given; and a count
    (--n, --m, --episodes) below 1."""
    for dest, flag in (("budget", "--budget"), ("max_strategies", "--max-strategies")):
        if hasattr(args, dest):
            resolve_budget(getattr(args, dest), flag)
    for dest in ("n", "m", "episodes"):
        if getattr(args, dest, 1) < 1:
            raise NestedDPError(f"--{dest} must be a positive integer, got {getattr(args, dest)}")


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
