"""Distributed Lagrangian resource allocation over networks.

A library for the separable allocation problem ``min sum f_i(x_i)`` subject to
``sum x_i = b`` and per-node box constraints, solved by consensus-coupled dual
subgradient steps over an undirected connected graph. Includes a deterministic
synchronous-round simulator, a centralized reference oracle, evaluation of the
method's consensus-error and rate bounds, and economic-dispatch case tooling.
"""

from .bounds import (
    BoundReport,
    check_bounds,
    consensus_error_bound,
    default_checkpoints,
    global_subgradient_bound,
    rate_bound,
    weighted_consensus_bound,
)
from .cases import (
    DispatchCase,
    GeneratorRecord,
    builtin_ieee14,
    bus_derived_graph,
    load_case,
    parse_bus_lines,
    parse_case,
    save_case,
    serialize_case,
    synth_bus_lines,
    synth_ieee118_style,
    to_problems,
)
from .errors import (
    DisconnectedGraph,
    FeasibilityError,
    HypothesisViolation,
    InfeasibleTotal,
    NetallocError,
    ParseError,
    ShareSumMismatch,
)
from .graphs import (
    GraphTopology,
    WeightMatrix,
    complete_graph,
    cycle_graph,
    metropolis_weights,
    parse_edge_list,
    path_graph,
    second_largest_singular_value,
)
from .objectives import (
    FeasibleInterval,
    LocalProblem,
    Quadratic,
    dual_value,
    primal_argmin,
    subgradient_bound,
)
from .oracle import OracleSolution, solve_centralized, verify_kkt
from .schedules import Custom, PowerLaw, Recip, RecipSqrt, StepSchedule, parse_schedule
from .simulator import RunTrace, consensus_step, lagrangian_value, run_dlm

__version__ = "0.1.0"
