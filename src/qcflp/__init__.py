"""Functional logic programming with confidence-weighted rules.

The package parses attenuated conditional rewrite programs, translates
them into qualification-free constrained programs, and solves goals
under qualification thresholds.  Two semantic engines, a rewriting-logic
prover and a bounded fixpoint oracle, cross-check the solver.  They share
the constructor and primitive rules and differ in how a call rewrites;
an independent proof checker validates every certificate the prover
emits.
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
