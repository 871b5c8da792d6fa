"""Cross-version pins on the solvers' memos.

Each golden digest is the SHA-256 of a solve's value and of every memo row
in insertion order, written as canonical JSON (beliefs and prescriptions
through `to_json`, Fractions as "p/q").  They were computed by the
Fraction-accumulator kernels that predate the integer ones, so any change
to a value, a policy, a memo key or the visit order changes them.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from nested_dp.beliefs import MarginalBelief
from nested_dp.decoupled import embed, solve_decoupled_pbp
from nested_dp.generators import certification_instance, convergence_instance, decoupled_instance
from nested_dp.info import build_delayed_structure
from nested_dp.model import format_ratio
from nested_dp.solver import HashedPsi2, solve_exact, solve_pbp_approx, solve_pbp_exact
from test_info import split_delay_structure


def canon(obj):
    if isinstance(obj, Fraction):
        return format_ratio(obj)
    if isinstance(obj, MarginalBelief):
        return [obj.agent, obj.t, canon(obj.entries)]
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if isinstance(obj, (tuple, list)):
        return [canon(x) for x in obj]
    return obj


def memo_digest(solution) -> str:
    rows = [canon([key, value]) for key, value in solution.memo.items()]
    doc = [format_ratio(solution.value), rows]
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def exact(seed, horizon, delay):
    model = certification_instance(seed, horizon=horizon)
    return solve_exact(model, build_delayed_structure(model, delay))


def exact_split(seed):
    model = certification_instance(seed)
    return solve_exact(model, split_delay_structure(model))


def exact_decoupled_team(seed):
    emb = embed(decoupled_instance(seed))
    return solve_exact(emb, build_delayed_structure(emb, 1))


def pbp(seed, delay, resolution=None):
    model = convergence_instance(seed)
    info = build_delayed_structure(model, delay)
    psi2 = HashedPsi2(model, info, 7)
    if resolution is None:
        return solve_pbp_exact(model, info, psi2)
    return solve_pbp_approx(model, info, psi2, resolution)


def reduced(seed, perfect):
    dec = decoupled_instance(seed, horizon=3, perfect_obs_1=perfect)
    emb = embed(dec)
    info = build_delayed_structure(emb, 1)
    return solve_decoupled_pbp(dec, info, HashedPsi2(emb, info, 13), perfect)


GOLDEN = [
    ("exact-T2-d1", lambda: exact(0, 2, 1),
     "f9b40155a777607de4595620a039d06bf97e1733374c424426bc34b038755a0f"),
    ("exact-T2-d0", lambda: exact(1, 2, 0),
     "a2d01bf68e959d3386ec6707f77343c2e6bf2ff25029cd26805d79b382d7320c"),
    ("exact-T3-d3", lambda: exact(0, 3, 3),
     "225ec3647dc23737e995e6a3ffdb2a97bd11c334388864d425f4925a48712623"),
    ("exact-split-delay", lambda: exact_split(2),
     "325df29b8b4b499b52e77dbc11f085934c1334e332eab2c1386d1bd37606e4ac"),
    ("exact-decoupled-team", lambda: exact_decoupled_team(0),
     "ab5e7f53904b7a878e5019276ba58d9275157204308fbb77a966290a7e0c6cbf"),
    ("pbp-d2", lambda: pbp(0, 2),
     "bd0df303b5eaa0617bd94b93e4480e39404741fb7e49bb0caf9ccc11a6c785d7"),
    ("pbp-d1-n3", lambda: pbp(1, 1, 3),
     "918c01a2e94e9a77811de69178747f8b7650666a68d7b7704d2c18fec3b4b296"),
    ("decoupled-noisy", lambda: reduced(0, False),
     "58a33342f78d54f5c89800e1567326024ca2853bad71a40a9d270bc6ae2fae85"),
    ("decoupled-perfect", lambda: reduced(1, True),
     "a445652c00cf7f77683ff64f07643deb6ca796223f3b73d6c2fe645647802741"),
]


@pytest.mark.parametrize("solve, digest", [(s, d) for _, s, d in GOLDEN], ids=[name for name, _, _ in GOLDEN])
def test_memo_digest(solve, digest):
    assert memo_digest(solve()) == digest
