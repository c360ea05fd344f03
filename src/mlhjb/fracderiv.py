"""Fractional time-derivative machinery for the memory term of the solver.

Provides the L1 finite-difference approximation of order-mu derivatives over
a trailing window of uniformly spaced samples, given as a (n, ...) array with
the oldest sample first, its Riemann-Liouville variant with the window start
as lower terminal, and the amplitude A(a) = (1-a)^(a-1) / a^a that weights
the nonlocal discount term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientHistoryError

__all__ = [
    "FracOrder",
    "amplitude",
    "l1_frac_deriv",
    "rl_window_deriv",
]


@dataclass(frozen=True)
class FracOrder:
    """Derivative order mu in [0, 1); mu = 0 is the identity operator."""

    mu: float

    def __post_init__(self) -> None:
        mu = self.mu
        if not (isinstance(mu, (int, float)) and math.isfinite(mu) and 0.0 <= mu < 1.0):
            raise DomainError(f"derivative order must lie in [0, 1), got {mu!r}")


def amplitude(alpha: float) -> float:
    """A(a) = (1-a)^(a-1) / a^a on (0, 1]; at a = 1 it reads 0^0 / 1 = 1, the continuous limit."""
    if not (isinstance(alpha, (int, float)) and 0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    return (1.0 - alpha) ** (alpha - 1.0) / alpha**alpha


def _l1_weights(n: int, mu: float, dt: float) -> np.ndarray:
    # b_k = (k+1)^(1-mu) - k^(1-mu), k = 0 the most recent difference
    k = np.arange(n, dtype=float)
    return ((k + 1.0) ** (1.0 - mu) - k ** (1.0 - mu)) * dt ** (-mu) / math.gamma(2.0 - mu)


def _l1_sum(values: np.ndarray, dt: float, mu: float):
    diffs = np.diff(values, axis=0)           # g_1 - g_0, ..., g_N - g_{N-1}
    b = _l1_weights(diffs.shape[0], mu, dt)   # weight b_k pairs with g_{N-k} - g_{N-k-1}
    return np.tensordot(b[::-1], diffs, axes=(0, 0))


def _samples(values, dt: float, order: FracOrder) -> np.ndarray:
    if not (isinstance(dt, (int, float)) and math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"dt must be positive and finite, got {dt!r}")
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[0] == 0:
        raise InsufficientHistoryError("no samples")
    if order.mu > 0.0 and values.shape[0] < 2:
        raise InsufficientHistoryError("order-mu L1 derivative needs at least 2 samples")
    return values


def l1_frac_deriv(values, dt: float, order: FracOrder):
    """L1 approximation of the order-mu Caputo-type derivative at the latest sample.

    ``values`` holds samples spaced ``dt`` apart along its first axis, oldest
    first; further axes are carried through.  mu = 0 returns the latest
    sample exactly (identity operator).  With mu > 0 at least two samples are
    required.
    """
    values = _samples(values, dt, order)
    if order.mu == 0.0:
        return values[-1]
    return _l1_sum(values, dt, order.mu)


def rl_window_deriv(values, dt: float, order: FracOrder):
    """Riemann-Liouville-type order-mu derivative with the window start as lower terminal.

    ``values`` holds samples spaced ``dt`` apart along its first axis, oldest
    first.  Equals the Caputo L1 sum plus the lower-terminal contribution
    g(a) (t-a)^(-mu) / Gamma(1-mu), where a is the oldest sample's time and
    t - a = (n-1) dt for n samples.  Reduces to the identity at mu = 0.
    """
    values = _samples(values, dt, order)
    mu = order.mu
    if mu == 0.0:
        return values[-1]
    span = (values.shape[0] - 1) * dt
    terminal = values[0] * span ** (-mu) / math.gamma(1.0 - mu)
    return _l1_sum(values, dt, mu) + terminal
