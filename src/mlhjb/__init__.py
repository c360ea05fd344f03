"""Optimal control with a Mittag-Leffler discount kernel.

Numerical core: series evaluation of the one- and two-parameter
Mittag-Leffler functions, quadrature for the kernel's semigroup defect,
L1 fractional derivatives, and grid solvers for discounted
Hamilton-Jacobi-Bellman problems with either exponential or
Mittag-Leffler per-step discounting.  The ``mlhjb`` console script fronts
the same functionality.
"""

from . import catalog
from .defect import QuadratureConfig, delta_ml, inner_f, semigroup_residual, small_s_bound
from .errors import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    InsufficientHistoryError,
    MLHJBError,
    StateEscapeError,
)
from .fracderiv import (
    FracOrder,
    amplitude,
    l1_frac_deriv,
    rl_window_deriv,
)
from .hjb import (
    ControlProblem,
    Policy,
    SolverConfig,
    ValueField,
    evaluate_cost,
    lqr_oracle,
    min_hamiltonian,
    pre_hamiltonian,
    solve_classical,
    solve_fractional,
)
from .specfun import DiscountSpec, SeriesControl, gamma, kernel, kernel_deriv, ml_one, ml_two

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MLHJBError",
    "DomainError",
    "ConfigError",
    "ConvergenceError",
    "DivergenceError",
    "InsufficientHistoryError",
    "StateEscapeError",
    "DiscountSpec",
    "SeriesControl",
    "gamma",
    "ml_one",
    "ml_two",
    "kernel",
    "kernel_deriv",
    "QuadratureConfig",
    "inner_f",
    "delta_ml",
    "semigroup_residual",
    "small_s_bound",
    "FracOrder",
    "amplitude",
    "l1_frac_deriv",
    "rl_window_deriv",
    "ControlProblem",
    "SolverConfig",
    "ValueField",
    "Policy",
    "pre_hamiltonian",
    "min_hamiltonian",
    "solve_classical",
    "solve_fractional",
    "evaluate_cost",
    "lqr_oracle",
    "catalog",
]
