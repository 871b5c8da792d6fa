import json
import math
from dataclasses import replace

import pytest

from nested_dp import oracle as orc
from nested_dp import cli as cli_mod
from nested_dp.cli import cli_main
from nested_dp.generators import certification_instance, convergence_instance, decoupled_instance
from nested_dp.decoupled import decoupled_to_json
from nested_dp.info import build_delayed_structure, enumerate_private
from nested_dp.lattice import lattice_size
from nested_dp.model import Dist, FiniteSpace, format_ratio, model_to_json
from nested_dp.sim import RolloutConfig, rollout
from nested_dp.solver import HashedPsi2, extract_control_strategy, optimal_psi2, solve_exact, solve_pbp_exact, TablePsi2


@pytest.fixture(scope="module")
def solved():
    model = certification_instance(0)
    info = build_delayed_structure(model, 1)
    solution = solve_exact(model, info)
    return model, info, solution


def write_model(tmp_path, model, d=1, name="model.json"):
    doc = model_to_json(model)
    doc["info"] = {"kind": "delayed", "d": d}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestRollout:
    def test_deterministic_world_has_zero_stderr(self, solved):
        model, info, solution = solved
        pinned = replace(
            model,
            x0_dist=Dist.point_mass(2, 1),
            v1_dists=(Dist.point_mass(2, 0),) + model.v1_dists[1:],
            disturbances=tuple(FiniteSpace("W", 1) for _ in range(model.horizon)),
            w_dists=tuple(Dist.point_mass(1, 0) for _ in range(model.horizon)),
            transition=tuple(
                tuple(tuple(tuple((stage[x][u1][u2][0],) for u2 in range(2)) for u1 in range(2)) for x in range(2))
                for stage in model.transition
            ),
        )
        dinfo = build_delayed_structure(pinned, 1)
        dsol = solve_exact(pinned, dinfo)
        strategy = extract_control_strategy(dsol)
        report = rollout(pinned, dinfo, strategy, RolloutConfig(seed=5, episodes=64), dsol.value)
        assert report.stderr == 0.0
        assert report.mean_cost == float(dsol.value)

    def test_same_seed_same_bytes(self, solved):
        model, info, solution = solved
        strategy = extract_control_strategy(solution)
        a = rollout(model, info, strategy, RolloutConfig(seed=9, episodes=500), solution.value)
        b = rollout(model, info, strategy, RolloutConfig(seed=9, episodes=500), solution.value)
        assert a.to_bytes() == b.to_bytes()

    def test_different_seeds_differ(self, solved):
        model, info, solution = solved
        strategy = extract_control_strategy(solution)
        a = rollout(model, info, strategy, RolloutConfig(seed=1, episodes=500))
        b = rollout(model, info, strategy, RolloutConfig(seed=2, episodes=500))
        assert a.to_bytes() != b.to_bytes()

    def test_mean_tracks_exact_value(self, solved):
        model, info, solution = solved
        strategy = extract_control_strategy(solution)
        report = rollout(model, info, strategy, RolloutConfig(seed=123, episodes=20000), solution.value)
        assert abs(report.mean_cost - float(solution.value)) <= 3 * report.stderr

    def test_coverage_over_disjoint_seeds(self, solved):
        """The 3-standard-error interval should cover the exact value for
        nearly every seed."""
        model, info, solution = solved
        strategy = extract_control_strategy(solution)
        hits = 0
        seeds = range(40, 52)
        for seed in seeds:
            report = rollout(model, info, strategy, RolloutConfig(seed=seed, episodes=2000))
            if abs(report.mean_cost - float(solution.value)) <= 3 * report.stderr:
                hits += 1
        assert hits >= math.ceil(0.95 * len(list(seeds)))

    def test_per_time_breakdown_sums_to_mean(self, solved):
        model, info, solution = solved
        strategy = extract_control_strategy(solution)
        report = rollout(model, info, strategy, RolloutConfig(seed=3, episodes=256))
        assert abs(sum(report.per_time_mean) - report.mean_cost) < 1e-12


class TestCli:
    def test_validate_clean_model(self, tmp_path, capsys):
        path = write_model(tmp_path, certification_instance(0))
        assert cli_main(["validate", path]) == 0
        assert json.loads(capsys.readouterr().out) == {"violations": []}

    def test_validate_needs_no_info_field(self, tmp_path, capsys):
        doc = model_to_json(certification_instance(0))
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"violations": []}

    def test_solve_without_info_needs_delay_flag(self, tmp_path, capsys):
        doc = model_to_json(certification_instance(0))
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["solve", str(path)]) == 1
        capsys.readouterr()
        assert cli_main(["solve", str(path), "--delay", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "9/8"

    @pytest.mark.parametrize("command", [["solve"], ["simulate", "--seed", "1", "--episodes", "5"]])
    def test_invalid_model_is_located_domain_error(self, tmp_path, capsys, command):
        doc = model_to_json(certification_instance(0))
        doc["info"] = {"kind": "delayed", "d": 1}
        doc["transition"][0][0][0][0][0] = 7  # next state outside the 2-state space
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli_main([command[0], str(path)] + command[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err
        assert "transition[0][0][0][0][0]: next state 7 outside 0..1" in captured.err

    @pytest.mark.parametrize(
        "command, edit, located",
        [
            (["solve"], lambda doc: doc.update(horizon="2"), "$.horizon: must be a non-negative integer"),
            (["solve"], lambda doc: doc.update(horizon=None), "$.horizon: must be a non-negative integer"),
            (["solve"], lambda doc: doc["spaces"]["X"].update(size="3"), "$.spaces.X.size: must be a positive integer"),
            (["solve"], lambda doc: doc.update(transition=5), "$.transition: must be a list"),
            (
                ["solve"],
                lambda doc: doc["transition"][0][0][0][0].__setitem__(0, 1.0),
                "$.transition[0][0][0][0][0]: must be an integer",
            ),
            (["solve"], lambda doc: doc.update(spaces=[]), "$.spaces: must be an object"),
            (["solve"], lambda doc: doc["spaces"].pop("X"), "$.spaces.X: must be an object"),
            (["solve"], lambda doc: doc["cost"][0][0][0].__setitem__(0, "1/0"), "$.cost[0][0][0][0]: must be a 'p/q' string"),
            (
                ["validate"],
                lambda doc: doc["dists"].update(X0=["1/2", "1/3"]),
                "$.dists.X0: must be probabilities in [0, 1] that sum to 1",
            ),
            (["solve"], lambda doc: [doc], "$: must be an object"),
            (["validate"], lambda doc: [doc], "$: must be an object"),
            (["solve", "--decoupled"], lambda doc: [doc], "$: must be an object"),
        ],
    )
    def test_malformed_model_is_located_domain_error(self, tmp_path, capsys, command, edit, located):
        doc = model_to_json(certification_instance(0))
        doc["info"] = {"kind": "delayed", "d": 1}
        replaced = edit(doc)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(replaced if isinstance(replaced, list) else doc))
        assert cli_main([command[0], str(path)] + command[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"model file {path} is invalid: {located}" in captured.err
        assert "Traceback" not in captured.err

    def test_missing_file_is_domain_error(self, capsys):
        assert cli_main(["solve", "/nonexistent/model.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert cli_main(["lattice", "--m", "2"]) == 2  # missing --n

    def test_lattice_m2_n2(self, capsys):
        assert cli_main(["lattice", "--m", "2", "--n", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 3
        assert ["1/2", "1/2"] in doc["points"]

    def test_quantize_example(self, capsys):
        assert cli_main(["quantize", "--vector", "3/5,2/5", "--n", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["point"] == ["1/2", "1/2"]
        assert doc["distance"] == "1/5"

    def test_quantize_builds_no_lattice(self, capsys):
        # the resolution-16 lattice on 16 coordinates holds 300540195 points
        vector = ",".join(["1/16"] * 16)
        assert cli_main(["quantize", "--vector", vector, "--n", "16"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["point"] == ["1/16"] * 16
        assert doc["distance"] == "0/1"

    @pytest.mark.parametrize(
        "vector, located",
        [
            ("1/0,1", "--vector: coordinate 1 ('1/0') is not a p/q ratio"),
            ("a,b", "--vector: coordinate 1 ('a') is not a p/q ratio"),
            ("1/2,x", "--vector: coordinate 2 ('x') is not a p/q ratio"),
        ],
    )
    def test_quantize_bad_coordinate_is_located(self, vector, located, capsys):
        assert cli_main(["quantize", "--vector", vector, "--n", "2"]) == 1
        assert capsys.readouterr().err == f"error: {located}\n"

    def test_alpha_bad_lipschitz_is_located(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_json(certification_instance(0))))
        assert cli_main(["alpha", str(path), "--psi2", "unused.json", "--n", "2", "--jl", "1/0"]) == 1
        assert capsys.readouterr().err == "error: --jl ('1/0') is not a p/q ratio\n"

    def test_alpha_negative_lipschitz_is_refused_before_any_work(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_json(certification_instance(0))))

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before --jl was checked")

        monkeypatch.setattr(cli_mod, "_load", no_work)
        monkeypatch.setattr(cli_mod.solver_mod, "solve_pbp_approx", no_work)
        assert cli_main(["alpha", str(path), "--psi2", "unused.json", "--n", "2", "--jl", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --jl ('-1') must be non-negative\n"

    def test_malformed_explicit_info_is_located_domain_error(self, tmp_path, capsys):
        doc = model_to_json(certification_instance(0))
        doc["info"] = {"kind": "explicit", "m1": 5, "m2": [], "a2": []}
        path = tmp_path / "bad_info.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"model file {path} is invalid: $.info.m1: must be a list" in captured.err
        assert "Traceback" not in captured.err

    def test_explicit_info_breaking_nestedness_is_located_domain_error(self, tmp_path, capsys):
        """A well-formed `info` field whose agent-2 memory holds agent 1's
        observation is rejected with the stage and rule, not solved."""
        doc = model_to_json(certification_instance(0))
        own_obs = [[[0, "Y1"]] for _ in range(3)]
        doc["info"] = {"kind": "explicit", "m1": own_obs, "m2": own_obs, "a2": [[], [], []]}
        path = tmp_path / "unnested.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"model file {path} is invalid: $.info: t=0 [window]: m2 holds agent-1 variable Y1@0" in captured.err
        assert "Traceback" not in captured.err

    def test_solve_reports_value(self, tmp_path, capsys):
        path = write_model(tmp_path, certification_instance(0))
        assert cli_main(["solve", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == "9/8"

    def test_policy_out_round_trips(self, tmp_path, capsys):
        path = write_model(tmp_path, certification_instance(0))
        out = tmp_path / "policy.json"
        assert cli_main(["solve", path, "--policy-out", str(out)]) == 0
        policy = json.loads(out.read_text())
        assert policy["value"] == "9/8"
        assert len(policy["stages"]) > 0

    def test_oracle_with_solve_gap_zero(self, tmp_path, capsys):
        path = write_model(tmp_path, certification_instance(0, horizon=1))
        assert cli_main(["oracle", path, "--with-solve"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gap"] == "0/1"

    def test_pbp_and_approx_and_alpha(self, tmp_path, capsys):
        model = convergence_instance(1)
        info = build_delayed_structure(model, 1)
        path = write_model(tmp_path, model)
        psi2 = HashedPsi2(model, info, 7)
        solved = solve_pbp_exact(model, info, psi2)
        entries = {
            (b1.t, a2): psi2.prescription(b1.t, a2) for (b1, a2) in solved.memo
        }
        psi_path = tmp_path / "psi2.json"
        psi_path.write_text(json.dumps(TablePsi2(entries).to_json()))

        assert cli_main(["pbp", path, "--psi2", str(psi_path)]) == 0
        exact_doc = json.loads(capsys.readouterr().out)
        assert cli_main(["pbp-approx", path, "--psi2", str(psi_path), "--n", "8"]) == 0
        approx_doc = json.loads(capsys.readouterr().out)
        assert exact_doc["value"] == approx_doc["value"]  # quarter-grid beliefs
        assert approx_doc["lattice_sizes"] == {
            str(t): lattice_size(model.states[t].size * len(enumerate_private(info, model, t)), 8)
            for t in range(model.horizon + 1)
        }
        assert cli_main(["alpha", path, "--psi2", str(psi_path), "--n", "4"]) == 0
        alpha_doc = json.loads(capsys.readouterr().out)
        assert len(alpha_doc["alphas"]) == model.horizon + 2

        policy_path = tmp_path / "pbp_policy.json"
        assert cli_main(
            ["pbp", path, "--psi2", str(psi_path), "--policy-out", str(policy_path)]
        ) == 0
        capsys.readouterr()
        policy = json.loads(policy_path.read_text())
        assert policy["value"] == exact_doc["value"]
        assert all(e["action"] in (0, 1) for e in policy["entries"])

    def test_simulate_deterministic_bytes(self, tmp_path, capsys):
        path = write_model(tmp_path, certification_instance(0))
        assert cli_main(["simulate", path, "--seed", "7", "--episodes", "300"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["simulate", path, "--seed", "7", "--episodes", "300"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["exact_value"] == "9/8"

    def test_simulate_explicit_strategy_file(self, tmp_path, capsys):
        model = certification_instance(0, horizon=1)
        info = build_delayed_structure(model, 1)
        joint = orc.build_joint(model)
        best = orc.exhaustive_min(model, info, joint)
        path = write_model(tmp_path, model)
        strat_path = tmp_path / "strategy.json"
        strat_path.write_text(json.dumps(best.strategy.to_json()))
        assert cli_main(
            ["simulate", path, "--seed", "1", "--episodes", "200", "--strategy", str(strat_path)]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["episodes"] == 200

    @pytest.mark.parametrize(
        "command, document, located",
        [
            (["pbp", "--psi2"], {"kind": "constant", "action": 5}, "$.action: must be an integer in 0..1"),
            (["pbp", "--psi2"], {"kind": "hashed"}, "$.seed: must be an integer"),
            (["pbp", "--psi2"], [1, 2], "$: must be an object"),
            (
                ["simulate", "--seed", "1", "--episodes", "5", "--strategy"],
                {"g1": 5, "g2": []},
                "$.g1: must be a list",
            ),
        ],
    )
    def test_invalid_psi2_or_strategy_is_located_domain_error(
        self, tmp_path, capsys, command, document, located
    ):
        path = write_model(tmp_path, certification_instance(0))
        doc_path = tmp_path / "document.json"
        doc_path.write_text(json.dumps(document))
        assert cli_main([command[0], path] + command[1:] + [str(doc_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"file {doc_path} is invalid: {located}" in captured.err

    @pytest.mark.parametrize("kind", ["model", "psi2", "strategy"])
    @pytest.mark.parametrize(
        "content, reason",
        [
            (b'{"horizon": 1,', "Expecting property name enclosed in double quotes"),
            (b"", "Expecting value: line 1 column 1 (char 0)"),
            (b'{"horizon": \xff}', "can't decode byte 0xff"),
        ],
        ids=["truncated", "empty", "not-utf8"],
    )
    def test_unreadable_json_names_the_file(self, tmp_path, capsys, kind, content, reason):
        model_path = write_model(tmp_path, certification_instance(0))
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        command = {
            "model": ["solve", str(bad)],
            "psi2": ["pbp", model_path, "--psi2", str(bad)],
            "strategy": ["simulate", model_path, "--seed", "1", "--episodes", "5", "--strategy", str(bad)],
        }[kind]
        assert cli_main(command) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {kind} file {bad} is not valid JSON: " in captured.err
        assert reason in captured.err

    @pytest.mark.parametrize("kind", ["model", "psi2", "strategy"])
    def test_repeated_json_key_names_the_file(self, tmp_path, capsys, kind):
        """An object with a repeated key is refused in every file read:
        `json.load` alone would keep the last value, so a psi2 file
        {"kind": "constant", "action": 0, "action": 1} would run action 1."""
        model = certification_instance(0, horizon=1)
        model_path = write_model(tmp_path, model)
        bad = tmp_path / "bad.json"
        if kind == "model":
            doc = json.loads(open(model_path).read())
            bad.write_text(json.dumps(doc)[:-1] + ', "horizon": 1}')
            key, command = "horizon", ["solve", str(bad)]
        elif kind == "psi2":
            bad.write_text('{"kind": "constant", "action": 0, "action": 1}')
            key, command = "action", ["pbp", model_path, "--psi2", str(bad)]
        else:
            info = build_delayed_structure(model, 1)
            doc = orc.exhaustive_min(model, info, orc.build_joint(model)).strategy.to_json()
            bad.write_text(json.dumps(doc)[:-1] + f', "g2": {json.dumps(doc["g2"])}}}')
            key, command = "g2", ["simulate", model_path, "--seed", "1", "--episodes", "5", "--strategy", str(bad)]
        assert cli_main(command) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {kind} file {bad} is invalid: repeats the key '{key}'" in captured.err
        assert "Traceback" not in captured.err

    def test_repeated_psi2_keys_are_located_domain_errors(self, tmp_path, capsys, solved):
        """A repeated [t, accessible] pair, or a repeated private realization
        in one table, is rejected wherever it stands: loading would keep the
        last one and silently change the value."""
        model, info, solution = solved
        path = write_model(tmp_path, model)
        entries = optimal_psi2(model, info, solution).to_json()["entries"]
        k = max(i for i, (t, _, _) in enumerate(entries) if t == model.horizon)
        other = json.loads(json.dumps(entries[k]))
        other[2]["table"] = [[ell, 1 - a] for ell, a in other[2]["table"]]
        repeated = json.loads(json.dumps(entries))
        table = repeated[0][2]["table"]
        table.append([table[0][0], 1 - table[0][1]])
        n = len(entries)
        cases = [
            (entries + [other], f"$.entries[{n}]: repeats the [t, accessible] pair of $.entries[{k}]"),
            ([other] + entries, f"$.entries[{k + 1}]: repeats the [t, accessible] pair of $.entries[0]"),
            (
                repeated,
                f"$.entries[0][2].table[{len(table) - 1}]: repeats the private realization of $.entries[0][2].table[0]",
            ),
        ]
        psi_path = tmp_path / "psi2.json"
        for listed, located in cases:
            psi_path.write_text(json.dumps({"kind": "table", "entries": listed}))
            assert cli_main(["pbp", path, "--psi2", str(psi_path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"psi2 file {psi_path} is invalid: {located}" in captured.err
        psi_path.write_text(json.dumps({"kind": "table", "entries": entries}))
        assert cli_main(["pbp", path, "--psi2", str(psi_path)]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == format_ratio(solution.value)

    def test_repeated_strategy_memory_is_located_domain_error(self, tmp_path, capsys):
        model = certification_instance(0, horizon=1)
        info = build_delayed_structure(model, 1)
        doc = orc.exhaustive_min(model, info, orc.build_joint(model)).strategy.to_json()
        memory, action = doc["g1"][0][0]
        doc["g1"][0].append([memory, 1 - action])
        path = write_model(tmp_path, model)
        strat_path = tmp_path / "strategy.json"
        strat_path.write_text(json.dumps(doc))
        command = ["simulate", path, "--seed", "1", "--episodes", "5", "--strategy", str(strat_path)]
        assert cli_main(command) == 1
        j = len(doc["g1"][0]) - 1
        located = f"$.g1[0][{j}]: repeats the memory of $.g1[0][0]"
        assert f"strategy file {strat_path} is invalid: {located}" in capsys.readouterr().err

    def test_solve_decoupled_route(self, tmp_path, capsys):
        dec = decoupled_instance(1)
        doc = decoupled_to_json(dec)
        doc["info"] = {"kind": "delayed", "d": 1}
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["solve", str(path), "--decoupled"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["match"] is True
        assert out["value"] == out["reduced_value"]

    def test_solve_decoupled_perfect_obs(self, tmp_path, capsys):
        dec = decoupled_instance(0, perfect_obs_1=True)
        doc = decoupled_to_json(dec)
        doc["info"] = {"kind": "delayed", "d": 1}
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["solve", str(path), "--decoupled", "--perfect-obs-1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["match"] is True

    def test_perfect_obs_flag_on_noisy_model_is_domain_error(self, tmp_path, capsys):
        dec = decoupled_instance(0)  # agent 1's observations go dark after t=0
        doc = decoupled_to_json(dec)
        doc["info"] = {"kind": "delayed", "d": 1}
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["solve", str(path), "--decoupled", "--perfect-obs-1"]) == 1

    def test_check_factorization_decoupled(self, tmp_path, capsys):
        dec = decoupled_instance(0)
        doc = decoupled_to_json(dec)
        doc["info"] = {"kind": "delayed", "d": 1}
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["check-factorization", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["all_equal"] is True

    @pytest.mark.parametrize(
        "command, edit, located",
        [
            (["solve", "--decoupled"], {"horizon": "2"}, "$.horizon: must be a non-negative integer"),
            (["check-factorization"], {"f1": 5}, "$.f1: must be a list"),
            (["check-factorization"], {"f2": [[[[0]]]]}, "$.f2: must have 2 elements, not 1"),
            (["solve", "--decoupled"], {"obs2": [[[0], [5]]] * 3}, "$.obs2[0][1][0]: must be an integer in 0..1"),
        ],
    )
    def test_malformed_decoupled_model_is_located_domain_error(self, tmp_path, capsys, command, edit, located):
        doc = decoupled_to_json(decoupled_instance(0))
        doc.update(edit, info={"kind": "delayed", "d": 1})
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(doc))
        assert cli_main([command[0], str(path)] + command[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"model file {path} is invalid: {located}" in captured.err

    def test_budget_env_var(self, tmp_path, monkeypatch, capsys):
        path = write_model(tmp_path, certification_instance(0))
        monkeypatch.setenv("NESTED_DP_BUDGET", "3")
        assert cli_main(["solve", path]) == 1
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, env, message",
        [
            (["solve", "{model}", "--budget", "-5"], None, "--budget must be a non-negative integer, got -5"),
            (["solve", "{model}"], "-3", "NESTED_DP_BUDGET must be a non-negative integer, got -3"),
            (["lattice", "--m", "2", "--n", "2", "--budget", "-1"], None, "--budget must be a non-negative integer, got -1"),
            (["oracle", "{model}", "--max-strategies", "-1"], None, "--max-strategies must be a non-negative integer, got -1"),
            (["oracle", "{model}"], "-2", "NESTED_DP_BUDGET must be a non-negative integer, got -2"),
            (["pbp-approx", "{model}", "--psi2", "{model}", "--n", "2", "--budget", "-7"], "5", "--budget must be"),
            (["alpha", "{model}", "--psi2", "{model}", "--n", "0"], None, "--n must be a positive integer, got 0"),
            (["pbp-approx", "{model}", "--psi2", "{model}", "--n", "-1"], None, "--n must be a positive integer, got -1"),
            (["simulate", "{model}", "--seed", "1", "--episodes", "0"], None, "--episodes must be a positive integer, got 0"),
            (["lattice", "--m", "0", "--n", "2"], None, "--m must be a positive integer, got 0"),
            (["quantize", "--vector", "1/2,1/2", "--n", "0"], None, "--n must be a positive integer, got 0"),
        ],
    )
    def test_negative_cap_is_refused_before_any_work(self, tmp_path, monkeypatch, capsys, argv, env, message):
        path = write_model(tmp_path, certification_instance(0))
        monkeypatch.delenv("NESTED_DP_BUDGET", raising=False)
        if env is not None:
            monkeypatch.setenv("NESTED_DP_BUDGET", env)

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the cap was checked")

        for module, name in [(orc, "build_joint"), (orc, "exhaustive_min"), (cli_mod.lat, "build_lattice"),
                             (cli_mod.lat, "error_bound"), (cli_mod.solver_mod, "solve_exact"), (cli_mod, "_load")]:
            monkeypatch.setattr(module, name, no_work)
        assert cli_main([arg.format(model=path) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.err

    def test_zero_cap_keeps_its_meaning(self, tmp_path, monkeypatch, capsys):
        path = write_model(tmp_path, certification_instance(0))
        monkeypatch.delenv("NESTED_DP_BUDGET", raising=False)
        assert cli_main(["solve", path, "--budget", "0"]) == 1
        assert "prescription pairs passed the cap of 0 at t=0" in capsys.readouterr().err
        assert cli_main(["lattice", "--m", "2", "--n", "2", "--budget", "0"]) == 1
        assert "over the cap of 0" in capsys.readouterr().err

    def test_library_caps_refuse_negatives(self, monkeypatch):
        monkeypatch.delenv("NESTED_DP_BUDGET", raising=False)
        model = certification_instance(0)
        with pytest.raises(ValueError, match="budget must be a non-negative integer, got -1"):
            solve_exact(model, build_delayed_structure(model, 1), budget=-1)
        monkeypatch.setenv("NESTED_DP_BUDGET", "-4")
        with pytest.raises(ValueError, match="NESTED_DP_BUDGET must be a non-negative integer, got -4"):
            orc.build_joint(model)
