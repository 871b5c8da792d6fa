"""Cross-version pins on the rollout stream and the CLI's output bytes.

The golden digests are SHA-256 sums of `Report.to_bytes()` (and of the
`simulate` stdout) computed by the `randrange`-based sampler that predates
the compiled draw plan; any change to the seeding, the draw order or the
rejection draw changes them.  The sampler test checks a one-entry
`_draw_plan` of a `_plan_entry` against that `randrange` walk on the same
seeded stream.

The example-command pins are SHA-256 sums of what `solve`, `oracle` and
`pbp` print, and of the `solve --policy-out` file, on the files that
`scripts/make_example_model.py` writes; they were computed before the
solve-scope interning of Bayes-step posteriors.  The `pbp-approx`, `alpha`,
`check-factorization` and `solve --decoupled` pins were computed before the
person-by-person and decoupled solves scored their candidates in integers
and before the factorization checks replayed the joint once per sweep;
`TestReplayOnce` counts those replays and pins `scripts/factorization_demo.py`'s
output, computed before the same change.

`TestSplitTally` checks the rollout's tally over ranges of episodes in
forked children against a one-process tally written here, over one to three
CPUs and through a child that fails, a short payload, a fork that fails and
a live thread; its digests were computed by the one-process tally.
"""

import hashlib
import json
import marshal
import os
import random
import runpy
import sys
import threading
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nested_dp import oracle as orc
from nested_dp import sim
from nested_dp.cli import cli_main
from nested_dp.decoupled import decoupled_from_json, embed
from nested_dp.generators import certification_instance, convergence_instance, coupled_counterexample, decoupled_instance
from nested_dp.info import build_delayed_structure
from nested_dp.model import Dist
from nested_dp.sim import RolloutConfig, _draw_plan, _plan_entry, rollout
from nested_dp.solver import (
    HashedPsi2,
    extract_control_strategy,
    extract_pbp_strategy,
    solve_exact,
    solve_pbp_exact,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def examples(tmp_path, monkeypatch, capsys):
    """The directory `scripts/make_example_model.py` writes its files into."""
    monkeypatch.setattr(sys, "argv", ["make_example_model.py", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "make_example_model.py"), run_name="__main__")
    assert done.value.code == 0
    capsys.readouterr()
    return tmp_path


class TestGoldenBytes:
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "c6b28bf15689a019c506e9529f8b996c6bde3066f3e5549f7662e626752a3601"),
            (11, "bc77d6818c95a8cbfe7c3c1c12c4305f0b0ed0ab578117b4dbbefa9c1bda8c36"),
        ],
    )
    def test_certification_d1(self, seed, digest):
        model = certification_instance(0, horizon=2)
        info = build_delayed_structure(model, 1)
        solution = solve_exact(model, info)
        strategy = extract_control_strategy(solution)
        report = rollout(model, info, strategy, RolloutConfig(seed=seed, episodes=3000), solution.value)
        assert sha256(report.to_bytes()) == digest

    def test_pbp_d2_with_point_mass_noises(self):
        """Every noise of convergence_instance is a point mass (denominator
        1), so each episode makes six degenerate draws that still consume
        the stream."""
        model = convergence_instance(0)
        info = build_delayed_structure(model, 2)
        solution = solve_pbp_exact(model, info, HashedPsi2(model, info, 7))
        report = rollout(model, info, extract_pbp_strategy(solution), RolloutConfig(seed=3, episodes=2000))
        assert sha256(report.to_bytes()) == "2f4677575b6a40f1a02fee83f00e3c5614889a569070692cb3fa3a7daf7d52b6"

    def test_simulate_stdout_on_example_model(self, examples, capsys):
        assert cli_main(["simulate", str(examples / "model.json"), "--seed", "7", "--episodes", "300"]) == 0
        out = capsys.readouterr().out
        assert sha256(out.encode()) == "1d8154aa65b072b5e7c6a374b986c4a175157183b7ffbc137747c2b6dfd6190c"


class TestExampleCommandBytes:
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["solve", "model.json"], "925df5d5d85e1ded2479b16a3ca83e2735884ded8c5828baf0a5b1a50ec026b8"),
            (["oracle", "model.json", "--with-solve"],
             "914efe7e6fcc541662d4ed5746f6b03e02cd7877886c4e5bea76f6a5205a39c5"),
            (["pbp", "model_rich_obs.json", "--psi2", "psi2.json"],
             "30d4f30170ce1d98354752f66f3e6f89e1be19a27eadbd279e5bb0bc2e1ec9a7"),
            (["pbp-approx", "model_rich_obs.json", "--psi2", "psi2.json", "--n", "4"],
             "72d7ab98c3a30f191f28c411ef8decdf753f93b89356bc5a98fae0202598512e"),
            (["alpha", "model_rich_obs.json", "--psi2", "psi2.json", "--n", "4"],
             "7e8c37213db142c0042daacbdeee91e24d0f18805f332b4aeb905ea7073a4853"),
            (["check-factorization", "decoupled.json"],
             "7601ac7a98394494a791264de7e492146eee7351530b614feb4663a4550632a6"),
            (["solve", "decoupled.json", "--decoupled"],
             "3f6f32393d5874ec2b4d2312cdb77705136270e49e4dbc576c50b1603426880d"),
        ],
        ids=["solve", "oracle-with-solve", "pbp", "pbp-approx", "alpha", "check-factorization", "solve-decoupled"],
    )
    def test_stdout(self, examples, capsys, argv, digest):
        argv = [str(examples / a) if a.endswith(".json") else a for a in argv]
        assert cli_main(argv) == 0
        assert sha256(capsys.readouterr().out.encode()) == digest

    def test_solve_policy_file(self, examples, capsys):
        policy = examples / "policy.json"
        assert cli_main(["solve", str(examples / "model.json"), "--policy-out", str(policy)]) == 0
        assert sha256(capsys.readouterr().out.encode()) == (
            "925df5d5d85e1ded2479b16a3ca83e2735884ded8c5828baf0a5b1a50ec026b8"
        )
        assert sha256(policy.read_bytes()) == "508add713367f5a7858142e07adb72621fa977ce6969160ec47ef57630c6de27"


class TestReplayOnce:
    """The factorization sweeps run each joint entry's episode once, and
    print what they printed when every check replayed the joint itself."""

    @staticmethod
    def count_trajectories(monkeypatch):
        calls = []
        real = orc.trajectory

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(orc, "trajectory", counting)
        return calls

    def test_check_factorization(self, examples, capsys, monkeypatch):
        path = examples / "decoupled.json"
        entries = len(orc.build_joint(embed(decoupled_from_json(json.loads(path.read_text())))))
        calls = self.count_trajectories(monkeypatch)
        assert cli_main(["check-factorization", str(path)]) == 0
        assert len(calls) == entries == 64
        assert sha256(capsys.readouterr().out.encode()) == (
            "7601ac7a98394494a791264de7e492146eee7351530b614feb4663a4550632a6"
        )

    def test_factorization_demo(self, capsys, monkeypatch):
        coupled, _ = coupled_counterexample()
        entries = len(orc.build_joint(embed(decoupled_instance(0)))) + len(orc.build_joint(coupled))
        calls = self.count_trajectories(monkeypatch)
        monkeypatch.setattr(sys, "argv", ["factorization_demo.py"])
        with pytest.raises(SystemExit) as done:
            runpy.run_path(str(SCRIPTS / "factorization_demo.py"), run_name="__main__")
        assert done.value.code == 0
        assert len(calls) == entries
        assert sha256(capsys.readouterr().out.encode()) == (
            "1ee36a9f67dfe04afcc1cf0ab6bfb2afd021c22f1b66c3e5d59851c898a5a0e7"
        )


def reference_draw(denom: int, thresholds: tuple[int, ...], rng: random.Random) -> int:
    """`randrange` below the common denominator, then the threshold walk."""
    r = rng.randrange(denom)
    for i, threshold in enumerate(thresholds):
        if r < threshold:
            return i
    raise AssertionError("thresholds must cover the denominator")


DENOMINATORS = [1, 2, 3, 5, 12, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 10**12 + 39]


@st.composite
def numerators(draw):
    """Nonnegative numerators over a denominator D that sum to D.  One of
    them is 1, so the reduced weights have D as their common denominator;
    repeated cut points give zero-mass outcomes anywhere, ends included."""
    denom = draw(st.sampled_from(DENOMINATORS))
    cuts = sorted(draw(st.lists(st.integers(0, denom - 1), max_size=6)))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom - 1])]
    parts.insert(draw(st.integers(0, len(parts))), 1)
    return parts


class TestSamplerDraw:
    @given(parts=numerators(), seed=st.text(max_size=8), draws=st.integers(1, 6))
    @example(parts=[0, 1, 0], seed="", draws=4)
    @example(parts=[0, 0, 3, 1, 0, 8, 0], seed="z", draws=6)
    @example(parts=[2**32 - 1, 1, 0], seed="x", draws=3)
    def test_matches_randrange_walk(self, parts, seed, draws):
        denom = sum(parts)
        entry = _plan_entry(Dist(tuple(Fraction(p, denom) for p in parts)))
        _, plan_denom, thresholds = entry
        assert plan_denom == denom
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(draws):
            (index,) = _draw_plan((entry,), ours.getrandbits)
            assert index == reference_draw(denom, thresholds, theirs)
            assert parts[index] > 0
            assert ours.getstate() == theirs.getstate()


def serial_tally(plan, seed: int, n: int) -> dict:
    """The draw tally as one process computes it: a fresh generator per
    episode and the `randrange` walk per draw, keyed in order of first
    occurrence."""
    counts: dict = {}
    for episode in range(n):
        rng = random.Random(f"{seed}:{episode}")
        draws = tuple(reference_draw(denom, thresholds, rng) for _, denom, thresholds in plan)
        counts[draws] = counts.get(draws, 0) + 1
    return counts


@pytest.fixture(scope="module")
def certified():
    """A solved `certification_instance(0, 2)` at d=1: 16 distinct draws in
    200 episodes, so most draws recur across the ranges of a split."""
    model = certification_instance(0, horizon=2)
    info = build_delayed_structure(model, 1)
    solution = solve_exact(model, info)
    return model, info, extract_control_strategy(solution), solution.value


def recorded_rollout(monkeypatch, case, seed: int, episodes: int):
    """The report's bytes and the omegas `trajectory` was called with, in order."""
    model, info, strategy, value = case
    calls = []

    def recording(*args):
        calls.append(args[3])
        return orc.trajectory(*args)

    monkeypatch.setattr(sim, "trajectory", recording)
    report = rollout(model, info, strategy, RolloutConfig(seed=seed, episodes=episodes), value)
    return report.to_bytes(), calls


def serial_rollout(case, seed: int, episodes: int):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_split_tally", serial_tally)
        return recorded_rollout(mp, case, seed, episodes)


def split_over(monkeypatch, cpus: int) -> list:
    """Ranges of two episodes or more over `cpus` CPUs; the list fills with
    one entry per fork."""
    monkeypatch.setattr(sim, "_MIN_CHUNK", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forks = []
    real = os.fork

    def fork():
        forks.append(None)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


class TestSplitTally:
    """Tallying contiguous ranges of episodes in forked children and merging
    them in range order gives the one-process report, byte for byte, and
    calls `trajectory` in the same order, on any CPU count."""

    @pytest.mark.parametrize("seed, digest", [
        (0, "65b0743e17df5f7e4eded057df9bfa454c4c3e3d2cee4aeb0396e6d4b1f75314"),
        (11, "58554ae4a6b7f009bcf94aa3b49c8e4a547310b5862277413db70c0b824966d9"),
    ])
    def test_golden_bytes_of_a_long_rollout(self, certified, seed, digest):
        """Long enough for a range per CPU on up to four CPUs; the digests
        were computed by the one-process tally."""
        model, info, strategy, value = certified
        report = rollout(model, info, strategy, RolloutConfig(seed=seed, episodes=9001), value)
        assert sha256(report.to_bytes()) == digest

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("episodes", [1, 2, 7, 10, 31, 200])
    def test_matches_serial_tally(self, certified, monkeypatch, cpus, episodes):
        forks = split_over(monkeypatch, cpus)
        split = recorded_rollout(monkeypatch, certified, 5, episodes)
        assert len(forks) == max(1, min(cpus, episodes // 2)) - 1
        assert split == serial_rollout(certified, 5, episodes)

    def test_no_child_outlives_a_rollout(self, certified, monkeypatch):
        forks = split_over(monkeypatch, 3)
        recorded_rollout(monkeypatch, certified, 5, 31)
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_child(self, certified, monkeypatch):
        forks = split_over(monkeypatch, 3)
        parent, real = os.getpid(), sim._tally

        def failing(*args):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args)

        monkeypatch.setattr(sim, "_tally", failing)
        assert recorded_rollout(monkeypatch, certified, 5, 31) == serial_rollout(certified, 5, 31)
        assert len(forks) == 2

    def test_short_payload(self, certified, monkeypatch):
        forks = split_over(monkeypatch, 3)
        truncating = SimpleNamespace(dumps=lambda obj: marshal.dumps(obj)[:-1], loads=marshal.loads)
        monkeypatch.setattr(sim, "marshal", truncating)
        assert recorded_rollout(monkeypatch, certified, 5, 31) == serial_rollout(certified, 5, 31)
        assert len(forks) == 2

    def test_fork_error(self, certified, monkeypatch):
        split_over(monkeypatch, 3)
        attempts = []

        def fork():
            attempts.append(None)
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", fork)
        assert recorded_rollout(monkeypatch, certified, 5, 31) == serial_rollout(certified, 5, 31)
        assert len(attempts) == 2

    def test_no_fork_while_another_thread_is_alive(self, certified, monkeypatch):
        forks = split_over(monkeypatch, 3)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            split = recorded_rollout(monkeypatch, certified, 5, 31)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert split == serial_rollout(certified, 5, 31)
