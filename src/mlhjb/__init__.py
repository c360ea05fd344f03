"""Optimal control with a Mittag-Leffler discount kernel.

Numerical core: series evaluation of the one- and two-parameter
Mittag-Leffler functions, quadrature for the kernel's semigroup defect,
L1 fractional derivatives, and grid solvers for discounted
Hamilton-Jacobi-Bellman problems with either exponential or
Mittag-Leffler per-step discounting.  The ``mlhjb`` console script fronts
the same functionality.

Importing the package loads none of its modules.  Each name in ``__all__``
imports the module that defines it on first access (``from mlhjb import
delta_ml`` loads ``mlhjb.defect``), so a command line tool pays only for
the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_SOURCES = {
    **dict.fromkeys(
        (
            "MLHJBError",
            "DomainError",
            "ConfigError",
            "ConvergenceError",
            "DivergenceError",
            "InsufficientHistoryError",
            "StateEscapeError",
        ),
        "errors",
    ),
    **dict.fromkeys(("DiscountSpec", "ml_one", "ml_two", "kernel", "kernel_deriv"), "specfun"),
    **dict.fromkeys(("QuadratureConfig", "delta_ml"), "defect"),
    **dict.fromkeys(("FracOrder", "amplitude", "l1_frac_deriv", "rl_window_deriv"), "fracderiv"),
    **dict.fromkeys(
        (
            "ControlProblem",
            "SolverConfig",
            "ValueField",
            "Policy",
            "solve_classical",
            "solve_fractional",
            "evaluate_cost",
            "lqr_oracle",
        ),
        "hjb",
    ),
}

__all__ = ["__version__", *_SOURCES, "catalog"]


def __getattr__(name: str):
    if name == "catalog":
        return importlib.import_module(".catalog", __name__)
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{source}", __name__), name)
    globals()[name] = value
    return value

