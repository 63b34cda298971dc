"""Sampled Darboux quadrature and change-of-variable identity checking."""

from .expr import (
    Expr,
    ParseError,
    differentiate,
    evaluate,
    evaluate_array,
    parse,
    to_text,
)
from .partition import Interval, Partition, block_grid, uniform_partition
from .darboux import (
    DarbouxEstimate,
    NonConvergenceError,
    SamplingConfig,
    integrate,
    integrate_signed,
    lower_sum,
    upper_sum,
)
from .approximant import PiecewiseLinear, build_approximant, eval_pl, integrate_pl, l1_distance
from .changevar import (
    SubstitutionProblem,
    SubstitutionReport,
    check_hypotheses,
    verify,
)

__version__ = "0.1.0"
