"""Functional logic programming with confidence-weighted rules.

The package parses attenuated conditional rewrite programs, translates
them into qualification-free constrained programs, and solves goals
under qualification thresholds.  The solver is the one derivation
engine: prove derives a statement through it and maps the derivation
back to the source program.  A bounded fixpoint iteration, which shares
no code with the solver, cross-checks its answers (the oracle), and an
independent proof checker validates every certificate.
"""

from .domains import (CertaintyDomain, MalformedValueError, ProductDomain,
                      QualDomain, U, domain_from_name)
from .syntax import (Goal, GoalItem, ParseError, Program, ProgramRule,
                     parse_constraints, parse_expr, parse_goal, parse_program,
                     print_constraints, print_expr, print_goal, print_program)

__version__ = "0.1.0"

__all__ = [
    "CertaintyDomain", "ProductDomain", "QualDomain", "U",
    "MalformedValueError", "domain_from_name",
    "Goal", "GoalItem", "ParseError", "Program", "ProgramRule",
    "parse_constraints", "parse_expr", "parse_goal", "parse_program",
    "print_constraints", "print_expr", "print_goal", "print_program",
    "__version__",
]
