#!/usr/bin/env python3
"""Certify the prescription DP against brute force on random instances.

For each seed: build a certification-template instance, solve it by dynamic
programming over shared beliefs, enumerate every team strategy, and compare
the two values with exact rational equality.  Also replays the extracted
closed-loop strategy through the joint to confirm it achieves the DP value.

Usage:
    python scripts/certify_optimality.py [--seeds 0 1 2 3 4] [--horizon 2] [--delay 1]
"""

import argparse
import sys
import time

from nested_dp import oracle as orc
from nested_dp.certify import certify_dp_optimality
from nested_dp.generators import certification_instance
from nested_dp.info import build_delayed_structure
from nested_dp.solver import extract_control_strategy


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--horizon", type=int, default=2)
    parser.add_argument("--delay", type=int, default=1)
    args = parser.parse_args()

    failures = 0
    for seed in args.seeds:
        model = certification_instance(seed, horizon=args.horizon)
        info = build_delayed_structure(model, args.delay)
        start = time.perf_counter()
        report = certify_dp_optimality(model, info)
        solution = report["solution"]
        replay = orc.evaluate_strategy(report["joint"], model, info, extract_control_strategy(solution))
        elapsed = time.perf_counter() - start
        ok = report["ok"] and replay == solution.value
        failures += 0 if ok else 1
        print(
            f"seed {seed}: dp={report['dp_value']} brute={report['brute_value']} "
            f"replay={replay} strategies={report['strategies_tested']} "
            f"nodes={report['dp_nodes']} [{elapsed:.1f}s] {'OK' if ok else 'MISMATCH'}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
