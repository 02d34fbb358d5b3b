"""Minimax solutions of 1-D Hamilton-Jacobi Cauchy problems.

The pipeline: parse H and u0 (`expr`), flow characteristics
(`characteristics`), assemble and analyze multivalued fronts (`front`),
select the minimax section pointwise or by triangle elimination
(`selector`, `morse1d`), cross-check against viscosity oracles
(`viscosity`), and classify singularities (`singular`). `cli` wires it all
into solve/compare/classify commands.
"""

from .characteristics import Periodic, ProblemSpec, Windowed, evolve
from .errors import HJError
from .expr import Expression, parse
from .front import FrontAnalysis, FrontCurve, analyze, build_front
from .morse1d import couple
from .selector import GridSolution, eliminate, minimax_grid, select_pointwise
from .singular import SingularEvent, classify, forbidden_report, singular_set
from .viscosity import ConvexHamiltonian, lax_friedrichs, lax_oleinik

__version__ = "0.1.0"

__all__ = [
    "ConvexHamiltonian", "Expression", "FrontAnalysis", "FrontCurve",
    "GridSolution", "HJError", "Periodic", "ProblemSpec", "SingularEvent",
    "Windowed", "analyze", "build_front", "classify", "couple", "eliminate",
    "evolve", "forbidden_report", "lax_friedrichs", "lax_oleinik", "minimax_grid",
    "parse", "select_pointwise", "singular_set",
]
