"""Exact solvers for two-agent stochastic teams where part of agent 2's
history flows to agent 1 (instantaneously or with delay).

The package computes optimal team behavior by dynamic programming over
conditional-distribution information states with prescription-valued
decisions, all in exact rational arithmetic; ships a simplex-lattice belief
quantizer with certified worst-case radius for approximate solves; and
certifies everything against a brute-force strategy-enumeration oracle.
"""

from .beliefs import (
    Belief1,
    Belief2,
    MarginalBelief,
    Prescription,
    expected_cost1,
    expected_cost2,
    update_belief1,
)
from .errors import (
    DomainGap,
    MissingKey,
    NestedDPError,
    PerfectObsViolation,
    ResourceLimitExceeded,
    UnsupportedStructure,
    ZeroProbabilityEvent,
    ZeroProbabilityObservation,
)
from .info import InfoStructure, VarRef, build_delayed_structure, check_nestedness, enumerate_private
from .lattice import Lattice, QuantizedBelief, build_lattice, error_bound, lattice_size, quantize, tv_distance
from .model import Dist, FiniteSpace, TeamModel, validate_model
from .solver import (
    alpha_bound,
    extract_control_strategy,
    solve_exact,
    solve_pbp_approx,
    solve_pbp_exact,
)

__version__ = "0.1.0"
