"""The shipped fixture files load, validate, and behave as advertised: the
decoupled chain factors, the coupled counterexample does not."""

import json
from pathlib import Path

from nested_dp import oracle as orc
from nested_dp.decoupled import check_factorization_pi1, decoupled_from_json, embed
from nested_dp.generators import HashedTeamStrategy, coupled_counterexample
from nested_dp.info import info_from_json
from nested_dp.model import model_from_json, validate_model

FIXTURES = Path(__file__).parent / "fixtures"


def reachable_m1(model, info, joint, strategy, t):
    out = set()
    for omega, _ in joint.entries:
        traj = orc.trajectory(model, info, strategy, omega)
        out.add(traj.read(info.m1[t]))
    return sorted(out)


def test_coupled_fixture_matches_generator_and_fails_factorization():
    doc = json.loads((FIXTURES / "coupled_counterexample.json").read_text())
    model = model_from_json(doc["model"])
    generated, split = coupled_counterexample()
    assert model == generated
    assert tuple(doc["split"]) == split
    assert validate_model(model) == []

    info = info_from_json(model, doc["info"])
    joint = orc.build_joint(model)
    strategy = HashedTeamStrategy(model, info, 0)
    broken = 0
    for t in range(model.horizon + 1):
        for m1real in reachable_m1(model, info, joint, strategy, t):
            if not check_factorization_pi1(model, split, info, joint, strategy, t, m1real).equal:
                broken += 1
    assert broken > 0


def test_belief_serialization_golden_file():
    """The shared-belief JSON format is pinned: sorted support entries with
    p/q weight strings, inner beliefs nested.  Regenerating the same belief
    must reproduce the stored document exactly."""
    from nested_dp.beliefs import Belief2, initial_belief2
    from nested_dp.generators import certification_instance
    from nested_dp.info import build_delayed_structure

    stored = json.loads((FIXTURES / "belief_golden.json").read_text())
    model = certification_instance(0)
    info = build_delayed_structure(model, 1)
    b2 = initial_belief2(model, info, ())
    assert b2.to_json() == stored
    assert Belief2.from_json(stored) == b2


def test_decoupled_fixture_loads_and_factors():
    doc = json.loads((FIXTURES / "decoupled_chain.json").read_text())
    dec = decoupled_from_json(doc)
    model = embed(dec)
    assert validate_model(model) == []
    info = info_from_json(model, doc["info"])
    joint = orc.build_joint(model)
    strategy = HashedTeamStrategy(model, info, 4)
    split = (dec.states1[0].size, dec.states2[0].size)
    for t in range(model.horizon + 1):
        for m1real in reachable_m1(model, info, joint, strategy, t):
            assert check_factorization_pi1(model, split, info, joint, strategy, t, m1real).equal
