"""hypercalc: numerical calculus for hyperfunctions given by defining pairs."""

from .expr import (Expr, ParseError, PoleError, parse_expr, print_expr,
                   evaluate, differentiate)
from .growth import GrowthClass, GrowthError
from .quad import (ContourSpec, QuadResult, integrate_box, tail_bound,
                   verify_growth, ConvergenceError, DivergentTailError,
                   DimensionError)
from .hyper import (Hyperfunction1D, TestFunction, LocalOperator,
                    AdmissibilityError, embed_real_analytic, delta_derivative,
                    pair, scale_pair, standardize, apply_local_operator)

__version__ = "0.1.0"
