#!/usr/bin/env python3
"""Benchmark of the nested-dp solvers: one command, every metric, checked.

    python3 perfbench/run.py --workload exact_d2 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload pbp_sweep --smoke        # tiny instances, one pass
    python3 perfbench/run.py --self-test                         # harness self-test
    python3 perfbench/run.py --write-reference                   # regenerate digests

Run from the root of a checkout.  A workload is a list of units, one per
generated instance seed (seed, seed+1, ...).  Each unit runs in a fresh
interpreter, one at a time; every unit runs once, and the list is cycled
on while the next unit is expected to end within `--seconds`.  A metric is
the median of a unit's samples, summed (times) or combined (rates, memory)
over the units.

Every value and policy is digested and compared with `reference.json`;
for a seed without a stored reference the samples of each unit must agree
with each other.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Exit status: 0 when every
operation succeeded and every digest matched, 1 when some did not (the
result is still printed), 2 when the harness itself could not run (no
result is printed).

`--trace 1` alternates untraced and traced samples of each unit and
reports the per-layer metrics instead of the end-to-end ones; the traced
children keep their spans in memory and write them under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
UNITS_SCRIPT = os.path.join(BENCH_DIR, "units.py")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
CHILD_TIMEOUT_S = 150
# Every time is reported in seconds at the machine speed where the
# calibration loop of units.py takes this long (see the README).
NOMINAL_CALIBRATION_S = 0.02
REFERENCE_SEEDS = range(0, 32)  # seeds whose units reference.json covers

# Units (instance seeds) per pass.  Instances differ in cost, so each run
# spreads over several of them.
UNITS_PER_PASS = {"exact_d2": 8, "team_certify": 8, "pbp_sweep": 2}

END_TO_END = {
    "setup_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "solve_s": ("s", "lower"),
    "check_s": ("s", "lower"),
    "rollout_eps": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better, kind, key).  kind says where the traced summary
# holds the value: calls, s (inclusive), self_s, layer_self_s, counts.
PER_LAYER = {
    "solver.solve_exact.pairs": ("count", "lower", "counts", "solver.solve_exact.pairs"),
    "solver.solve_exact.nodes": ("count", "lower", "counts", "solver.solve_exact.nodes"),
    "solver.solve_exact.self_s": ("s", "lower", "self_s", "solver.solve_exact"),
    "solver.pbp.nodes": ("count", "lower", "counts", "solver.pbp.nodes"),
    "solver.pbp.self_s": ("s", "lower", "self_s", "solver.pbp"),
    "solver.self_s": ("s", "lower", "layer_self_s", "solver"),
    "beliefs.belief2_step.calls": ("count", "lower", "calls", "beliefs.belief2_step"),
    "beliefs.belief2_step.s": ("s", "lower", "s", "beliefs.belief2_step"),
    "beliefs.belief2_step.self_s": ("s", "lower", "self_s", "beliefs.belief2_step"),
    "beliefs.belief1_step.calls": ("count", "lower", "calls", "beliefs.belief1_step"),
    "beliefs.belief1_step.s": ("s", "lower", "s", "beliefs.belief1_step"),
    "beliefs.belief1_step.distinct_ratio": ("ratio", "higher", "derived", None),
    "beliefs.expected_cost2.calls": ("count", "lower", "calls", "beliefs.expected_cost2"),
    "beliefs.expected_cost2.s": ("s", "lower", "s", "beliefs.expected_cost2"),
    "beliefs.expected_cost1.calls": ("count", "lower", "calls", "beliefs.expected_cost1"),
    "beliefs.expected_cost1.s": ("s", "lower", "s", "beliefs.expected_cost1"),
    "beliefs.update_belief1.calls": ("count", "lower", "calls", "beliefs.update_belief1"),
    "beliefs.self_s": ("s", "lower", "layer_self_s", "beliefs"),
    "info.step_context.count": ("count", "lower", "counts", "info.step_context"),
    "info.enumerate_private.calls": ("count", "lower", "calls", "info.enumerate_private"),
    "info.enumerate_private.s": ("s", "lower", "s", "info.enumerate_private"),
    "info.merge_realization.calls": ("count", "lower", "calls", "info.merge_realization"),
    "info.merge_realization.s": ("s", "lower", "s", "info.merge_realization"),
    "info.self_s": ("s", "lower", "layer_self_s", "info"),
    "lattice.build_lattice.calls": ("count", "lower", "calls", "lattice.build_lattice"),
    "lattice.build_lattice.points": ("count", "lower", "counts", "lattice.build_lattice.points"),
    "lattice.quantize.calls": ("count", "lower", "calls", "lattice.quantize"),
    "oracle.build_joint.s": ("s", "lower", "s", "oracle.build_joint"),
    "oracle.build_joint.entries": ("count", "lower", "counts", "oracle.build_joint.entries"),
    "oracle.exhaustive_min.strategies": ("count", "lower", "counts", "oracle.exhaustive_min.strategies"),
    "oracle.evaluate_strategy.s": ("s", "lower", "s", "oracle.evaluate_strategy"),
    "oracle.trajectory.calls": ("count", "lower", "calls", "oracle.trajectory"),
    "oracle.trajectory.s": ("s", "lower", "s", "oracle.trajectory"),
    "oracle.self_s": ("s", "lower", "layer_self_s", "oracle"),
    "sim.rollout.s": ("s", "lower", "s", "sim.rollout"),
    "sim.rollout.episodes": ("count", "higher", "counts", "sim.rollout.episodes"),
    "sim.rollout.distinct_draw_ratio": ("ratio", "lower", "derived", None),
    "sim.self_s": ("s", "lower", "layer_self_s", "sim"),
    "decoupled.solve_decoupled_pbp.nodes": ("count", "lower", "counts", "decoupled.solve_decoupled_pbp.nodes"),
    "trace.overhead_s": ("s", "lower", "derived", None),
}


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a failed operation)."""


# ---------------------------------------------------------------------------
# Children.
# ---------------------------------------------------------------------------


def unit_seeds(workload: str, seed: int, smoke: bool) -> list[int]:
    return [seed + k for k in range(1 if smoke else UNITS_PER_PASS[workload])]


def unit_key(workload: str, instance: int, smoke: bool) -> str:
    return f"{'smoke/' if smoke else ''}{workload}/{instance}"


def run_child(workload: str, instance: int, smoke: bool, traced: bool, span_file: str | None = None) -> dict:
    spec = {
        "workload": workload,
        "instance": instance,
        "smoke": smoke,
        "trace": traced,
        "run_id": f"{unit_key(workload, instance, smoke)}@{time.time_ns()}",
        "span_file": span_file,
    }
    env = {k: v for k, v in os.environ.items() if k != "NESTED_DP_BUDGET"}
    env["PYTHONHASHSEED"] = "0"
    spec["spawned_at"] = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, UNITS_SCRIPT, json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"unit {spec['run_id']} ran over {CHILD_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"unit {spec['run_id']} exited with {proc.returncode} and no result")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Cycle the workload's units in fresh interpreters, every unit at
    least once, then while the next unit is expected to end within
    `seconds`.  Returns samples per (instance, traced)."""
    instances = unit_seeds(workload, seed, smoke)
    modes = (False, True) if trace else (False,)
    samples = {(inst, traced): [] for inst in instances for traced in modes}
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.perf_counter()
    walls = []
    i = 0
    while i < len(instances) or (
        not smoke and time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        inst = instances[i % len(instances)]
        began = time.perf_counter()
        for traced in modes:
            span_file = None
            if traced:
                span_file = os.path.join(OUT_DIR, f"spans_{workload}_seed{seed}_unit{inst}.jsonl")
            samples[inst, traced].append(run_child(workload, inst, smoke, traced, span_file))
        walls.append(time.perf_counter() - began)
        i += 1
    return samples


# ---------------------------------------------------------------------------
# Correctness: operation failures plus digests against the reference.
# ---------------------------------------------------------------------------


def load_reference(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)["units"]


def digest_failures(workload: str, smoke: bool, samples: dict, reference: dict) -> tuple[list[str], int]:
    """Mismatched digests, and how many units had no stored reference.  A
    unit without one is held to its first sample, traced or not."""
    problems = []
    unreferenced = set()
    expected_by_key: dict[str, dict] = {}
    for (inst, _), runs in samples.items():
        key = unit_key(workload, inst, smoke)
        if key not in reference:
            unreferenced.add(key)
        for run in runs:
            expected = expected_by_key.setdefault(key, reference.get(key, run["digests"]))
            got = run["digests"]
            for op in sorted(set(expected) | set(got)):
                if got.get(op, "missing") is None:
                    continue  # the operation itself failed and is counted already
                if got.get(op) != expected.get(op):
                    problems.append(f"{key} {op}: digest {got.get(op)} != reference {expected.get(op)}")
    return problems, len(unreferenced)


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def _scale(run: dict) -> float:
    """Factor that turns a sample's wall seconds into seconds at the nominal
    machine speed: the ratio of the nominal to the measured calibration."""
    return NOMINAL_CALIBRATION_S / run["calibration_s"]


def _med(runs: list[dict], field: str) -> float:
    """Median of a time field over a unit's samples, in nominal seconds."""
    return statistics.median(run[field] * _scale(run) for run in runs)


def end_to_end(samples: dict) -> dict:
    units = [runs for (_, traced), runs in samples.items() if not traced]
    rollout_s = sum(_med(runs, "rollout_s") for runs in units)
    values = {
        "setup_s": statistics.median(run["setup_s"] * _scale(run) for runs in units for run in runs),
        "total_s": sum(_med(runs, "total_s") for runs in units),
        "solve_s": sum(_med(runs, "solve_s") for runs in units),
        "check_s": sum(_med(runs, "check_s") for runs in units),
        "rollout_eps": sum(runs[0]["episodes"] for runs in units) / rollout_s,
        "peak_rss_mb": max(statistics.median(run["peak_rss_mb"] for run in runs) for runs in units),
    }
    return {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}


def per_layer(samples: dict) -> dict:
    traced_units = [runs for (_, traced), runs in samples.items() if traced]
    plain_units = [runs for (_, traced), runs in samples.items() if not traced]

    def summed(kind: str, key: str) -> float:
        timed = kind in ("s", "self_s", "layer_self_s")
        total = 0.0
        for runs in traced_units:
            per_run = [run["trace"][kind].get(key, 0) * (_scale(run) if timed else 1) for run in runs]
            total += statistics.median(per_run)
        return total

    values = {}
    for name, (_, _, kind, key) in PER_LAYER.items():
        if kind != "derived":
            values[name] = summed(kind, key)
    b1_calls = values["beliefs.belief1_step.calls"]
    b1_distinct = sum(runs[0]["trace"]["belief1_distinct"] for runs in traced_units)
    values["beliefs.belief1_step.distinct_ratio"] = b1_distinct / b1_calls if b1_calls else 0.0
    episodes = values["sim.rollout.episodes"]
    draws = summed("counts", "sim.rollout.trajectories")
    values["sim.rollout.distinct_draw_ratio"] = draws / episodes if episodes else 0.0
    values["trace.overhead_s"] = (
        sum(_med(runs, "total_s") for runs in traced_units) - sum(_med(runs, "total_s") for runs in plain_units)
    )
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


def layer_report(samples: dict) -> dict:
    """Self time of every layer (including those absent from the metric
    list) and per-function call counts, for the output file."""
    traced_units = [runs for (_, traced), runs in samples.items() if traced]
    layers: dict[str, float] = {}
    calls: dict[str, int] = {}
    for runs in traced_units:
        summary = runs[0]["trace"]
        for layer in summary["layer_self_s"]:
            layers[layer] = layers.get(layer, 0.0) + statistics.median(
                run["trace"]["layer_self_s"][layer] * _scale(run) for run in runs
            )
        for name, n in summary["calls"].items():
            calls[name] = calls.get(name, 0) + n
    return {"layer_self_s": layers, "calls": calls}


# ---------------------------------------------------------------------------
# Modes.
# ---------------------------------------------------------------------------


def bench(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, reference_path: str) -> int:
    reference = load_reference(reference_path)
    samples = collect(workload, seed, seconds, trace, smoke)
    every_run = [run for runs in samples.values() for run in runs]
    attempted = sum(run["attempted"] for run in every_run)
    failed = sum(run["failed"] for run in every_run)
    problems, unreferenced = digest_failures(workload, smoke, samples, reference)
    failed += len(problems)
    for line in problems:
        print(line, file=sys.stderr)
    if unreferenced:
        print(f"{unreferenced} unit(s) have no stored reference; their samples were checked "
              "against each other", file=sys.stderr)
    metrics = per_layer(samples) if trace else end_to_end(samples)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    label = f"BENCH_{workload}_seed{seed}{'_smoke' if smoke else ''}{'_trace' if trace else ''}.json"
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "result": result, "unreferenced_units": unreferenced, "digest_problems": problems,
        "samples": {f"{inst}{'/traced' if traced else ''}": runs for (inst, traced), runs in samples.items()},
    }
    if trace:
        record["layers"] = layer_report(samples)
        print(json.dumps(record["layers"]), file=sys.stderr)
    with open(os.path.join(OUT_DIR, label), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def write_reference(path: str) -> int:
    units = {}
    for workload in UNITS_PER_PASS:
        for smoke in (True, False):
            instances = sorted({i for s in REFERENCE_SEEDS for i in unit_seeds(workload, s, smoke)})
            for inst in instances:
                run = run_child(workload, inst, smoke, False)
                if run["failed"] or any(d is None for d in run["digests"].values()):
                    raise HarnessError(f"{unit_key(workload, inst, smoke)} failed; no reference written")
                units[unit_key(workload, inst, smoke)] = run["digests"]
                print(f"{unit_key(workload, inst, smoke)}: {len(run['digests'])} digests", file=sys.stderr)
    with open(path, "w") as fh:
        json.dump({"seeds": [REFERENCE_SEEDS.start, REFERENCE_SEEDS.stop - 1], "units": units}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def self_test() -> int:
    """Schema of BENCHMARK.json and of the emitted metrics, a smoke pass of
    every workload (untraced and traced), and a corrupted reference digest
    that must make the command fail."""
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared_e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    declared_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared_e2e != {k: v[:2] for k, v in END_TO_END.items()}:
        problems.append("BENCHMARK.json end_to_end differs from the metrics run.py emits")
    if declared_layer != {k: v[:2] for k, v in PER_LAYER.items()}:
        problems.append("BENCHMARK.json per_layer differs from the metrics run.py emits")
    if [w["name"] for w in spec["workloads"]] != list(UNITS_PER_PASS):
        problems.append("BENCHMARK.json workloads differ from run.py's")

    command = [sys.executable, os.path.join(BENCH_DIR, "run.py")]
    for workload in UNITS_PER_PASS:
        for trace, declared in ((0, declared_e2e), (1, declared_layer)):
            args = ["--workload", workload, "--seed", "0", "--smoke", "--trace", str(trace)]
            proc = subprocess.run(command + args, cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"smoke {workload} trace={trace} exited {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                problems.append(f"smoke {workload} trace={trace}: bad result {result}")
            if set(result["metrics"]) != set(declared):
                problems.append(f"smoke {workload} trace={trace}: metric names differ from BENCHMARK.json")
            for name, m in result["metrics"].items():
                if name in declared and m["unit"] != declared[name][0]:
                    problems.append(f"smoke {workload}: {name} unit {m['unit']} != {declared[name][0]}")
                if not isinstance(m["value"], (int, float)):
                    problems.append(f"smoke {workload}: {name} is not a number")
            if trace == 0 and any(m["value"] <= 0 for m in result["metrics"].values()):
                problems.append(f"smoke {workload}: an end-to-end metric is not positive")

    reference = load_reference(REFERENCE)
    key = unit_key("exact_d2", 0, True)
    corrupted = dict(reference)
    corrupted[key] = dict(reference[key])
    op = sorted(corrupted[key])[0]
    corrupted[key][op] = "0" * 64
    os.makedirs(OUT_DIR, exist_ok=True)
    bad_path = os.path.join(OUT_DIR, "corrupted_reference.json")
    with open(bad_path, "w") as fh:
        json.dump({"units": corrupted}, fh)
    args = ["--workload", "exact_d2", "--seed", "0", "--smoke", "--reference", bad_path]
    proc = subprocess.run(command + args, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 1 or not proc.stdout.strip():
        problems.append(f"a corrupted reference digest gave exit {proc.returncode}, not a failed result")

    for line in problems:
        print(f"FAIL {line}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def _terminate(signum, frame):
    # Raising here lets subprocess.run kill and reap the running unit.
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(UNITS_PER_PASS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances, one pass")
    parser.add_argument("--reference", default=REFERENCE, help="reference digests (JSON)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.write_reference:
            return write_reference(args.reference)
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.reference)
    except (HarnessError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark could not run: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
