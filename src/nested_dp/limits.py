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


def resolve_budget(budget: int | None = None, option: str = "budget") -> int:
    """Return the effective cap: explicit argument > env var > default.

    A negative cap is refused with a ValueError that names where it came
    from: `option` (a CLI caller passes its flag) for an explicit one, the
    environment variable otherwise.  A cap of 0 refuses any counted work."""
    if budget is not None:
        source, cap = option, budget
    else:
        raw = os.environ.get(_ENV_VAR)
        if raw is None:
            return DEFAULT_BUDGET
        try:
            source, cap = _ENV_VAR, int(raw)
        except ValueError as exc:
            raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {cap}")
    return cap
