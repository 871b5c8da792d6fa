#!/usr/bin/env python3
"""Show the belief factorization holding on per-agent chains and breaking
as soon as one agent's dynamics read the other's state.

Usage:
    python scripts/factorization_demo.py [--seed 0]
"""

import argparse
import sys

from nested_dp import oracle as orc
from nested_dp.decoupled import check_factorization_pi1, embed, reachable_memories
from nested_dp.generators import (
    HashedTeamStrategy,
    coupled_counterexample,
    decoupled_instance,
)
from nested_dp.info import build_delayed_structure


def sweep(model, split, info, strategy_seed):
    replayed = orc.replay(orc.build_joint(model), model, info, HashedTeamStrategy(model, info, strategy_seed))
    rows = []
    for t, (m1s, _) in enumerate(reachable_memories(info, replayed)):
        for m1real in m1s:
            check = check_factorization_pi1(split, info, replayed, t, m1real)
            rows.append((t, m1real, check.equal))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dec = decoupled_instance(args.seed)
    emb = embed(dec)
    info = build_delayed_structure(emb, 1)
    rows = sweep(emb, (2, 2), info, args.seed + 1)
    print(f"decoupled chains, {len(rows)} reachable histories:")
    for t, m1real, equal in rows:
        print(f"  t={t} memory={m1real}: {'factors' if equal else 'DOES NOT FACTOR'}")

    model, split = coupled_counterexample()
    cinfo = build_delayed_structure(model, 2)
    rows = sweep(model, split, cinfo, 0)
    print(f"coupled counterexample, {len(rows)} reachable histories:")
    for t, m1real, equal in rows:
        print(f"  t={t} memory={m1real}: {'factors' if equal else 'DOES NOT FACTOR'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
