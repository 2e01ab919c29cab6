"""Subset feedback arc set in tournaments: kernelization and exact solving."""

from .graphs import (
    Arc,
    Digraph,
    Instance,
    InternalInvariantError,
    InvalidArcError,
    Tournament,
    has_s_triangle,
    is_s_acyclic,
    reverse_arcs,
    s_backward_arcs,
    strongly_connected_components,
    verify_solution,
)
from .instancefile import (
    InstanceFormatError,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from .kernel import KernelResult, RuleOutcome, kernelize, lift_solution, vertex_bound
from .oracle import (
    GeneratorSpec,
    OracleScaleError,
    generate_planted,
    generate_random,
    oracle_min_deletion,
    oracle_min_reversal_orderings,
)
from .solver import SolveReport, SolverConfig, solve, solve_report

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "Digraph",
    "GeneratorSpec",
    "Instance",
    "InstanceFormatError",
    "InternalInvariantError",
    "InvalidArcError",
    "KernelResult",
    "OracleScaleError",
    "RuleOutcome",
    "SolveReport",
    "SolverConfig",
    "Tournament",
    "generate_planted",
    "generate_random",
    "has_s_triangle",
    "is_s_acyclic",
    "kernelize",
    "lift_solution",
    "oracle_min_deletion",
    "oracle_min_reversal_orderings",
    "parse_instance",
    "parse_solution",
    "reverse_arcs",
    "s_backward_arcs",
    "serialize_instance",
    "serialize_solution",
    "solve",
    "solve_report",
    "strongly_connected_components",
    "verify_solution",
    "vertex_bound",
    "__version__",
]
