import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nested_dp.generators import certification_instance, random_full_support_dist
from nested_dp.model import (
    Dist,
    FiniteSpace,
    Violation,
    format_ratio,
    model_from_json,
    model_to_json,
    parse_ratio,
    validate_model,
)

import random


def tiny_model(**overrides):
    model = certification_instance(0)
    return replace(model, **overrides) if overrides else model


class TestRatioStrings:
    @given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
    def test_round_trip(self, num, den):
        value = Fraction(num, den)
        assert parse_ratio(format_ratio(value)) == value

    def test_canonical_form(self):
        assert format_ratio(Fraction(2, 4)) == "1/2"
        assert format_ratio(Fraction(3)) == "3/1"
        assert parse_ratio("6/8") == Fraction(3, 4)


class TestFiniteSpace:
    def test_labels_must_match_size(self):
        with pytest.raises(ValueError):
            FiniteSpace("X", 2, ("a",))

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError):
            FiniteSpace("X", 2, ("a", "a"))

    def test_size_positive(self):
        with pytest.raises(ValueError):
            FiniteSpace("X", 0)


class TestDist:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Dist((Fraction(1, 2), Fraction(1, 3)))

    def test_no_negative_weights(self):
        with pytest.raises(ValueError):
            Dist((Fraction(3, 2), Fraction(-1, 2)))

    @given(st.integers(0, 2**32), st.integers(1, 6))
    def test_random_full_support_is_valid(self, seed, n):
        d = random_full_support_dist(random.Random(seed), n, denom=max(4, n))
        assert sum(d.weights) == 1
        assert all(w > 0 for w in d.weights)


# (name in paths, TeamModel field, levels of lists: the stage list first)
TABLES = [
    ("transition", "transition", 5),
    ("obs1", "obs1", 3),
    ("obs2", "obs2", 3),
    ("cost", "cost_table", 4),
]


def node_at(table, index):
    for i in index:
        table = table[i]
    return table


def edited(table, index, change):
    """`table` with its row at `index` replaced by `change(row)`."""
    if not index:
        return change(table)
    i = index[0]
    return table[:i] + (edited(table[i], index[1:], change),) + table[i + 1:]


class TestValidation:
    def test_consistent_model_is_clean(self):
        assert validate_model(tiny_model()) == []

    def test_bad_disturbance_distribution_is_reported(self):
        model = tiny_model()
        bad = Dist.__new__(Dist)  # bypass the constructor to plant a bad sum
        object.__setattr__(bad, "weights", (Fraction(4, 10), Fraction(1, 2)))
        broken = replace(model, w_dists=(bad,) + model.w_dists[1:])
        violations = validate_model(broken)
        assert any(v.path == "dists.W[0]" and "9/10" in v.message for v in violations)

    def test_negative_cost_is_reported(self):
        model = tiny_model()
        stage = list(map(list, model.cost_table[0]))
        stage[0][0] = list(stage[0][0])
        stage[0][0][0] = Fraction(-1)
        cost = (tuple(tuple(tuple(r) if isinstance(r, list) else r for r in row) for row in stage),) + model.cost_table[1:]
        violations = validate_model(replace(model, cost_table=cost))
        assert any("negative" in v.message and v.path == "cost[0][0][0][0]" for v in violations)

    def test_out_of_range_transition_entry(self):
        model = tiny_model()
        stage = [[[[9 for _ in range(2)] for _ in range(2)] for _ in range(2)] for _ in range(2)]
        broken = replace(model, transition=(tuple(map(lambda a: tuple(map(lambda b: tuple(map(tuple, b)), a)), stage)),) + model.transition[1:])
        violations = validate_model(broken)
        assert any(v.path.startswith("transition[0]") for v in violations)

    @pytest.mark.parametrize("name, field, depth", TABLES, ids=[name for name, _, _ in TABLES])
    def test_extra_entry_at_each_level(self, name, field, depth):
        """A copy of an element appended at any level below the stage list
        is one `extra entry`, at the index past the space's size."""
        model = tiny_model()
        for level in range(1, depth):
            index = (0,) * level
            table = edited(getattr(model, field), index, lambda row: row + row[:1])
            extra = len(node_at(getattr(model, field), index))
            where = name + "".join(f"[{i}]" for i in index + (extra,))
            assert validate_model(replace(model, **{field: table})) == [Violation(where, "extra entry")]

    @pytest.mark.parametrize("name, field, depth", TABLES, ids=[name for name, _, _ in TABLES])
    def test_short_row_is_one_missing_entry(self, name, field, depth):
        """A row one element short is one `missing entry`, at the absent
        index, however many leaves lie under it."""
        model = tiny_model()
        for level in range(1, depth):
            index = (0,) * level
            table = edited(getattr(model, field), index, lambda row: row[:-1])
            last = len(node_at(getattr(model, field), index)) - 1
            where = name + "".join(f"[{i}]" for i in index + (last,))
            assert validate_model(replace(model, **{field: table})) == [Violation(where, "missing entry")]

    def test_node_that_is_no_sequence_is_a_missing_entry(self):
        model = tiny_model()
        table = edited(model.cost_table, (0,), lambda stage: (7,) + stage[1:])
        assert validate_model(replace(model, cost_table=table)) == [Violation("cost[0][0]", "missing entry")]


def transition_kernel(model, t, x, u1, u2):
    """The law of the next state: `TeamModel.world_kernel(t)` at (x, u1, u2),
    summed over the observations it also draws."""
    denom, kernel = model.world_kernel(t)
    weights = [Fraction(0)] * model.states[t + 1].size
    for (x_next, _, _), n in kernel[x][u1][u2]:
        weights[x_next] += Fraction(n, denom)
    return weights


def observation_kernel(model, agent, x):
    """Agent's law of its time-0 observation in state x: the step from the
    initial law, `world_kernel(-1)`, at x, summed over the other agent's."""
    denom, kernel = model.world_kernel(-1)
    weights = [Fraction(0)] * model.obs_space(agent, 0).size
    for (_, y1, y2), n in kernel[x]:
        weights[y1 if agent == 1 else y2] += Fraction(n, denom)
    return weights


class TestTransitionKernel:
    def test_deterministic_disturbance_gives_point_mass(self):
        model = tiny_model()
        det = replace(
            model,
            disturbances=tuple(FiniteSpace("W", 1) for _ in range(model.horizon)),
            w_dists=tuple(Dist.point_mass(1, 0) for _ in range(model.horizon)),
            transition=tuple(
                tuple(tuple(tuple((stage[x][u1][u2][0],) for u2 in range(2)) for u1 in range(2)) for x in range(2))
                for stage in model.transition
            ),
        )
        assert sorted(transition_kernel(det, 0, 0, 1, 0)) == [0, 1]

    def test_disturbance_ignored_still_point_mass(self):
        model = tiny_model()
        stage = tuple(
            tuple(tuple(tuple(1 for _ in range(2)) for _ in range(2)) for _ in range(2))
            for _ in range(2)
        )
        same = replace(model, transition=(stage,) + model.transition[1:])
        assert transition_kernel(same, 0, 0, 0, 0) == [Fraction(0), Fraction(1)]

    @given(st.integers(0, 500))
    def test_matches_direct_enumeration(self, seed):
        rng = random.Random(seed)
        nx, nw = 3, 4
        table = tuple(
            tuple(tuple(tuple(rng.randrange(nx) for _ in range(nw)) for _ in range(1)) for _ in range(1))
            for _ in range(nx)
        )
        w_dist = random_full_support_dist(rng, nw, denom=8)
        model = tiny_model()
        three = replace(
            model,
            horizon=1,
            states=tuple(FiniteSpace("X", nx) for _ in range(2)),
            actions1=tuple(FiniteSpace("U1", 1) for _ in range(2)),
            actions2=tuple(FiniteSpace("U2", 1) for _ in range(2)),
            disturbances=(FiniteSpace("W", nw),),
            noises1=tuple(FiniteSpace("V1", 1) for _ in range(2)),
            noises2=tuple(FiniteSpace("V2", 1) for _ in range(2)),
            observations1=tuple(FiniteSpace("Y1", 1) for _ in range(2)),
            observations2=tuple(FiniteSpace("Y2", 1) for _ in range(2)),
            transition=(table,),
            obs1=tuple(tuple((0,) for _ in range(nx)) for _ in range(2)),
            obs2=tuple(tuple((0,) for _ in range(nx)) for _ in range(2)),
            cost_table=tuple(
                tuple(tuple(tuple(Fraction(0) for _ in range(1)) for _ in range(1)) for _ in range(nx))
                for _ in range(2)
            ),
            x0_dist=random_full_support_dist(rng, nx, denom=8),
            w_dists=(w_dist,),
            v1_dists=tuple(Dist.point_mass(1, 0) for _ in range(2)),
            v2_dists=tuple(Dist.point_mass(1, 0) for _ in range(2)),
        )
        for x in range(nx):
            kernel = transition_kernel(three, 0, x, 0, 0)
            expected = [Fraction(0)] * nx
            for w in range(nw):
                expected[table[x][0][0][w]] += w_dist[w]
            assert kernel == expected
            assert sum(kernel) == 1

    def test_rejects_bad_indices(self):
        model = tiny_model()
        with pytest.raises(IndexError):
            model.world_kernel(model.horizon)
        with pytest.raises(IndexError):
            transition_kernel(model, 0, 5, 0, 0)

    def test_pure(self):
        model = tiny_model()
        assert model.world_kernel(0) is model.world_kernel(0)
        assert transition_kernel(model, 0, 0, 1, 1) == transition_kernel(model, 0, 0, 1, 1)


class TestObservationKernel:
    def test_perfect_observation_point_mass(self):
        model = tiny_model()
        assert observation_kernel(model, 2, 1) in ([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)])

    def test_binary_flip_channel(self):
        model = tiny_model()
        assert sorted(observation_kernel(model, 1, 0)) == [Fraction(1, 4), Fraction(3, 4)]

    def test_marginalization_sums_to_one(self):
        """Every cell of every stage's world kernel, observations included,
        is a distribution: its weights sum to the common denominator."""
        model = tiny_model()
        for agent in (1, 2):
            for x in range(model.states[0].size):
                assert sum(observation_kernel(model, agent, x)) == 1
        for t in range(-1, model.horizon):
            denom, kernel = model.world_kernel(t)
            cells = kernel if t < 0 else [cell for by_u1 in kernel for by_u2 in by_u1 for cell in by_u2]
            for cell in cells:
                assert sum(n for _, n in cell) == denom


class TestSerialization:
    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_field_for_field(self, seed):
        model = certification_instance(seed)
        doc = json.loads(json.dumps(model_to_json(model)))
        assert model_from_json(doc) == model

    def test_horizon_zero_round_trip(self):
        # no disturbance space at all: an empty per_time list
        model = certification_instance(0, horizon=0)
        doc = model_to_json(model)
        assert doc["spaces"]["W"] == {"per_time": []}
        assert model_from_json(json.loads(json.dumps(doc))) == model

    def test_ratios_survive_as_strings(self):
        doc = model_to_json(tiny_model())
        assert all(isinstance(w, str) and "/" in w for w in doc["dists"]["X0"])

    def test_time_varying_spaces_round_trip(self):
        # the certification template varies agent 1's noise space across t,
        # which must serialize under the per_time key and come back intact
        model = certification_instance(0)
        assert model.noises1[0].size != model.noises1[1].size
        doc = model_to_json(model)
        assert "per_time" in doc["spaces"]["V1"]
        assert model_from_json(json.loads(json.dumps(doc))) == model

    def test_labelled_spaces_round_trip(self):
        # one labelled space kept across t, and one whose labels change with t
        model = certification_instance(0)
        labelled = replace(
            model,
            actions1=(FiniteSpace("U1", 2, ("stay", "go")),) * 3,
            states=tuple(FiniteSpace("X", 2, (f"low{t}", f"high{t}")) for t in range(3)),
        )
        doc = model_to_json(labelled)
        assert doc["spaces"]["U1"]["labels"] == ["stay", "go"]
        assert doc["spaces"]["X"]["per_time"][2]["labels"] == ["low2", "high2"]
        assert model_from_json(json.loads(json.dumps(doc))) == labelled
