"""Fractional time-derivative machinery for the memory term of the solver.

Provides one kernel, the Riemann-Liouville order-mu derivative over a
trailing window of uniformly spaced samples, given as a (n, ...) array with
the oldest sample first and the window start as lower terminal, in the L1
discretization; and the amplitude A(a) = (1-a)^(a-1) / a^a that weights the
nonlocal discount term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientHistoryError, as_real

__all__ = [
    "FracOrder",
    "amplitude",
    "rl_window_deriv",
]


@dataclass(frozen=True)
class FracOrder:
    """Derivative order mu in [0, 1), stored as a float; mu = 0 is the identity operator."""

    mu: float

    def __post_init__(self) -> None:
        mu = as_real(self.mu)
        if mu is None or not (math.isfinite(mu) and 0.0 <= mu < 1.0):
            raise DomainError(f"derivative order must lie in [0, 1), got {self.mu!r}")
        object.__setattr__(self, "mu", mu)


def amplitude(alpha: float) -> float:
    """A(a) = (1-a)^(a-1) / a^a on (0, 1]; at a = 1 it reads 0^0 / 1 = 1, the continuous limit."""
    a = as_real(alpha)
    if a is None or not 0.0 < a <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    return (1.0 - a) ** (a - 1.0) / a**a


def rl_window_deriv(values, dt: float, order: FracOrder):
    """Riemann-Liouville-type order-mu derivative with the window start as lower terminal.

    ``values`` holds samples spaced ``dt`` apart along its first axis, oldest
    first; further axes are carried through.  The result is the L1 sum
    sum_k b_k (g_{N-k} - g_{N-k-1}) plus the lower-terminal contribution
    g(a) (t-a)^(-mu) / Gamma(1-mu), where a is the oldest sample's time and
    t - a = (n-1) dt for n samples; the terminal term is 0 where g(a) = 0.
    mu = 0 returns the latest sample exactly (identity operator); with
    mu > 0 at least two samples are required.
    """
    h = as_real(dt)
    if h is None or not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"dt must be positive and finite, got {dt!r}")
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[0] == 0:
        raise InsufficientHistoryError("no samples")
    mu = order.mu
    if mu == 0.0:
        return values[-1]
    if values.shape[0] < 2:
        raise InsufficientHistoryError("order-mu L1 derivative needs at least 2 samples")
    diffs = np.diff(values, axis=0)  # g_1 - g_0, ..., g_N - g_{N-1}
    # b_k = (k+1)^(1-mu) - k^(1-mu) pairs with g_{N-k} - g_{N-k-1}, k = 0 the most recent difference
    k = np.arange(diffs.shape[0], dtype=float)
    b = ((k + 1.0) ** (1.0 - mu) - k ** (1.0 - mu)) * h ** (-mu) / math.gamma(2.0 - mu)
    terminal = values[0] * (diffs.shape[0] * h) ** (-mu) / math.gamma(1.0 - mu)
    return np.tensordot(b[::-1], diffs, axes=(0, 0)) + terminal
