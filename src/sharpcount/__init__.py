"""Randomized approximate model counting for k-CNF formulas."""

from .formula import (
    Assignment,
    Clause,
    CnfFormula,
    GuardError,
    ParseError,
    brute_force_count,
    dpll_count,
    evaluate,
    parse_dimacs,
    random_kcnf,
    to_dimacs,
)
from .engine import (
    SatOutcome,
    SolverConfig,
    beta_for,
    compute_mu,
    decide,
    walk_try,
)
from .enumeration import EnumResult, TreeStats, count_up_to
from .gf2 import (
    EchelonForm,
    Gf2System,
    eliminate,
    prefix,
    random_system,
    sample_solution,
)
from .scheme import (
    ApproxResult,
    SchemeConfig,
    approximate_count,
    cutoff,
    sample_estimate,
    sixteen_approx,
)
from .upper import UpperResult, upper_bound

__all__ = [
    "Assignment",
    "Clause",
    "CnfFormula",
    "GuardError",
    "ParseError",
    "brute_force_count",
    "dpll_count",
    "evaluate",
    "parse_dimacs",
    "random_kcnf",
    "to_dimacs",
    "SatOutcome",
    "SolverConfig",
    "beta_for",
    "compute_mu",
    "decide",
    "walk_try",
    "EnumResult",
    "TreeStats",
    "count_up_to",
    "EchelonForm",
    "Gf2System",
    "eliminate",
    "prefix",
    "random_system",
    "sample_solution",
    "ApproxResult",
    "SchemeConfig",
    "approximate_count",
    "cutoff",
    "sample_estimate",
    "sixteen_approx",
    "UpperResult",
    "upper_bound",
]

__version__ = "0.1.0"
