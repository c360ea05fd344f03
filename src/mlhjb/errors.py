"""Exception types shared across the package, and its rule for number arguments.

A real argument is a ``numbers.Real`` other than a bool, used and stored as
a Python float; an integer argument is a ``numbers.Integral`` other than a
bool, used and stored as a Python int.  ``as_real`` and ``as_whole`` check
that type only and return None for anything else, so that each caller
raises its own message.
"""

import numbers


class MLHJBError(Exception):
    """Base class for all package errors."""


class DomainError(MLHJBError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(MLHJBError, ValueError):
    """A configuration object violates one of its invariants."""


class ConvergenceError(MLHJBError, ArithmeticError):
    """An iterative computation failed to converge within its budget."""


class DivergenceError(MLHJBError, ArithmeticError):
    """A solver state grew beyond the admissible magnitude."""


class InsufficientHistoryError(MLHJBError, ValueError):
    """A history-based operator was asked for more past samples than exist."""


class StateEscapeError(MLHJBError, RuntimeError):
    """A simulated trajectory left the inflated state box."""


def as_real(v) -> float | None:
    """``v`` as a Python float if it is a real number other than a bool, else None."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return None
    return float(v)


def as_whole(v) -> int | None:
    """``v`` as a Python int if it is an integer other than a bool, else None."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        return None
    return int(v)
