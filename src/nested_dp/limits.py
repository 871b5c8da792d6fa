"""Resource caps for the enumerative parts of the package.

Every guard resolves its budget the same way: an explicit argument wins,
otherwise the NESTED_DP_BUDGET environment variable, otherwise the default.
Budgets count enumerated objects (strategies, prescription pairs, value
nodes, lattice points), not bytes or seconds.  Lattice points are counted
only by `lattice.build_lattice`: the quantized solve never builds a lattice.
"""

import os

DEFAULT_BUDGET = 10_000_000

_ENV_VAR = "NESTED_DP_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    """Return the effective cap: explicit argument > env var > default."""
    if budget is not None:
        return budget
    raw = os.environ.get(_ENV_VAR)
    if raw is not None:
        try:
            return int(raw)
        except ValueError as exc:
            raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc
    return DEFAULT_BUDGET
