"""Mittag-Leffler functions and discount kernels.

The one- and two-parameter Mittag-Leffler functions are evaluated by direct
power-series summation,

    E_a(z)   = sum_{n>=0} z^n / Gamma(a n + 1),
    E_{a,b}(z) = sum_{n>=0} z^n / Gamma(a n + b),

in float64.  Where the alternating terms of that sum cancel more than five
decimal digits, or the sum overflows or does not converge within 2,000
terms, three other routes take over, by region:

- z <= 0, 0 < a <= 1, 0 < b <= 1 + a: Garrappa's optimal parabolic contour
  (OPC) for the inverse Laplace transform of s^(a-b) / (s^a - z), in
  float64 (R. Garrappa, SIAM J. Numer. Anal. 53(3), 2015).  One fixed
  27-node half contour serves every z; for |z| >= 1 it evaluates
  E_{a,b-a}(z), and E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z makes the
  leading -1/(z Gamma(b-a)) of the large-|z| expansion exact.  Measured
  relative error against exact-parameter sums: at most 7e-14 for |z| >= 1
  and a <= 0.95, at most 7e-13 for |z| < 1 (largest as b nears 1 + a); it
  grows as (a, b) nears (1, 1), where the function tends to e^z (6e-12 at
  a = b = 0.999, z = -50).
- a = b = 1 in that region: exp(z).
- anywhere else (a > 1 with z < 0, b > 1 + a, z > 0 when the float64 sum
  overflows): the series summed by mpmath at a working precision that covers
  the cancellation, with a and b converted to mpf exactly.

Points whose float64 sum cancels five digits or fewer keep that sum; their
relative error grows with the cancellation, to about 1e-9 at five digits.
The discount kernel built on top of them is

    kernel(t) = E_a(lam * t**a),

which reduces to exp(lam * t) at a = 1 and to a heavy-tailed relaxation for
0 < a < 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "DiscountSpec",
    "gamma",
    "ml_one",
    "ml_two",
    "kernel",
    "kernel_deriv",
]

# Leave the float64 series once more than this many decimal digits are lost
# to cancellation between the largest term and the final sum.
_ESCALATE_DIGITS = 5.0
_OVERFLOW_GUARD = 1e290
# Series truncation: stop once two consecutive terms are at most
# _ABS_TOL + _REL_TOL |sum|; give up (ConvergenceError, or the float64 sum
# escalates) after _MAX_TERMS terms.  The contour has its own 1e-15 target.
_MAX_TERMS = 2000
_ABS_TOL = 1e-30
_REL_TOL = 1e-15

# The OPC contour s(u) = mu (1 + iu)^2, |u| <= _U_MAX, with Garrappa's
# parameters for a 1e-15 target when the only singularity is the branch
# point at s = 0 (the case z <= 0, a <= 1, b - a <= 1).  mu keeps the
# round-off growth e^mu at 1e-15 / eps, and Re s(_U_MAX) = log(1e-15).
_LOG_TARGET = math.log(1e-15)
_LOG_EPS = math.log(np.finfo(float).eps)
_MU = _LOG_TARGET - _LOG_EPS
_U_MAX = math.sqrt(_LOG_EPS / (_LOG_EPS - _LOG_TARGET))
_NODES = math.ceil(-_U_MAX * _LOG_TARGET / (2.0 * math.pi))
_STEP = _U_MAX / _NODES
# Points per block of the contour sum: keeps each (points, nodes) float64
# temporary near 230 kB.
_BLOCK = 1024


@dataclass(frozen=True)
class DiscountSpec:
    """Discount description: order ``alpha`` in (0, 1] and rate ``lam``.

    ``lam < 0`` discounts future cost, ``lam > 0`` inflates it.  ``alpha = 1``
    recovers the classical exponential discount.
    """

    alpha: float
    lam: float

    def __post_init__(self) -> None:
        if not (isinstance(self.alpha, (int, float)) and math.isfinite(self.alpha)):
            raise DomainError("alpha must be a finite real number")
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (isinstance(self.lam, (int, float)) and math.isfinite(self.lam)):
            raise DomainError("lam must be a finite real number")


def gamma(x: float) -> float:
    """Gamma function for real ``x``, excluding the poles.

    Backed by the platform's Lanczos-type rational approximation
    (``math.gamma``), which keeps the relative error at a few ulp across
    (0, 170].  Negative non-integer arguments go through the reflection
    formula inside the same routine.  Raises ``DomainError`` at the poles
    (zero and negative integers) and ``OverflowError`` once the result
    leaves double range.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("gamma requires a finite argument")
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma pole at non-positive integer x={x:g}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise OverflowError(f"gamma({x:g}) exceeds double-precision range") from None
    except ValueError:  # pragma: no cover - poles already rejected above
        raise DomainError(f"gamma undefined at x={x:g}") from None


@functools.lru_cache(maxsize=16)
def _term_ratios(alpha: float, beta: float) -> tuple[float, ...]:
    """Gamma(a n + b) / Gamma(a (n + 1) + b) for n < _MAX_TERMS."""
    return tuple(
        math.exp(math.lgamma(alpha * n + beta) - math.lgamma(alpha * (n + 1) + beta)) for n in range(_MAX_TERMS)
    )


def _series_float(alpha: float, beta: float, z: np.ndarray):
    """One pass of the power series in float64.

    Returns ``(total, max_term, ok)`` where ``max_term`` is the per-element
    peak of ``|term|`` and ``ok`` is False when the term recurrence overflowed
    or the truncation rule was not met within _MAX_TERMS terms.
    """
    ratios = _term_ratios(alpha, beta)
    total = np.full_like(z, 1.0 / math.gamma(beta))
    term = total.copy()
    peak = np.abs(term)
    consecutive_small = 0
    for n in range(_MAX_TERMS):
        term = term * z * ratios[n]
        mags = np.abs(term)
        if not np.all(np.isfinite(term)) or mags.max(initial=0.0) > _OVERFLOW_GUARD:
            return total, peak, False
        np.maximum(peak, mags, out=peak)
        total = total + term
        if np.all(mags <= _ABS_TOL + _REL_TOL * np.abs(total)):
            consecutive_small += 1
            if consecutive_small >= 2:
                return total, peak, True
        else:
            consecutive_small = 0
    return total, peak, False


def _series_mp(alpha: float, beta: float, z: float, dps: int) -> float:
    """Arbitrary-precision summation of one series element.

    The working precision is raised until it covers the cancellation actually
    observed between the largest term and the partial sum.  ``alpha`` and
    ``beta`` enter as exact mpf values, so every gamma argument is formed at
    working precision.
    """
    # imported here: only inputs outside the float64 regions need it
    import mpmath as mp

    for _ in range(4):
        with mp.workdps(dps):
            a = mp.mpf(alpha)
            b = mp.mpf(beta)
            zm = mp.mpf(z)
            g_prev = mp.gamma(b)
            term = 1 / g_prev
            total = term
            peak = abs(term)
            consecutive_small = 0
            converged = False
            for n in range(_MAX_TERMS):
                g_next = mp.gamma(a * (n + 1) + b)
                term = term * zm * (g_prev / g_next)
                g_prev = g_next
                peak = max(peak, abs(term))
                total += term
                if abs(term) <= _ABS_TOL + _REL_TOL * abs(total):
                    consecutive_small += 1
                    if consecutive_small >= 2:
                        converged = True
                        break
                else:
                    consecutive_small = 0
            if not converged:
                raise ConvergenceError(
                    f"Mittag-Leffler series not converged in {_MAX_TERMS} terms "
                    f"(alpha={alpha:g}, beta={beta:g}, z={z:g})"
                )
            lost = mp.log10(peak / abs(total)) if total != 0 else mp.mpf(0)
            needed = 20 + int(max(lost, 0))
            if dps >= needed:
                return float(total)
        dps = needed + 10
    raise ConvergenceError(  # pragma: no cover - precision loop always settles
        f"series precision did not settle (alpha={alpha:g}, beta={beta:g}, z={z:g})"
    )


@functools.lru_cache(maxsize=16)
def _contour(alpha: float, beta: float) -> tuple[np.ndarray, ...]:
    """Trapezoidal rule for (1 / 2 pi i) int e^s s^(a-b) / (s^a - z) ds on the OPC.

    Returns the real and imaginary parts of s^a and of the weights at the
    nodes u >= 0 of the upper half; for real z the lower half contributes
    the complex conjugate, so its weights are folded into these.
    """
    u = _STEP * np.arange(_NODES + 1)
    s = _MU * (1.0 + 1j * u) ** 2
    # h / (2 pi i) * ds/du = h mu (1 + iu) / pi, doubled for the lower half
    weights = (2.0 * _STEP * _MU / math.pi) * (1.0 + 1j * u) * np.exp(s) * s ** (alpha - beta)
    weights[0] *= 0.5
    s_alpha = s**alpha
    parts = (s_alpha.real, s_alpha.imag, weights.real, weights.imag)
    for part in parts:
        part.flags.writeable = False
    return parts


def _contour_sum(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) for real z <= 0 by the OPC rule, in blocks of points."""
    sa_re, sa_im, w_re, w_im = _contour(alpha, beta)
    out = np.empty_like(z)
    for lo in range(0, z.size, _BLOCK):
        gap = sa_re - z[lo : lo + _BLOCK, None]
        # Re[w / (gap + i sa_im)] summed over the nodes
        out[lo : lo + _BLOCK] = ((w_re * gap + w_im * sa_im) / (gap * gap + sa_im * sa_im)).sum(axis=1)
    return out


def _ml_nonpositive(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) in float64 for 1-D z <= 0, 0 < alpha <= 1, 0 < beta <= 1 + alpha."""
    if alpha == 1.0 and beta == 1.0:
        return np.exp(z)
    out = np.empty_like(z)
    far = z <= -1.0
    out[~far] = _contour_sum(alpha, beta, z[~far])
    # E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z: the leading term of the
    # large-|z| expansion, -1/(z Gamma(b-a)), is then exact, and the contour
    # sum keeps its relative accuracy where that term is small or zero (b = a).
    # b - a lies in (-1, 1], so its only gamma pole is 0.
    lead = 0.0 if beta == alpha else 1.0 / math.gamma(beta - alpha)
    zf = z[far]
    out[far] = (_contour_sum(alpha, beta - alpha, zf) - lead) / zf
    return out


def _series(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    total, peak, ok = _series_float(alpha, beta, z)
    if ok:
        tiny = np.finfo(float).tiny
        lost = np.log10(np.maximum(peak, tiny) / np.maximum(np.abs(total), tiny))
        redo = lost > _ESCALATE_DIGITS
    else:
        redo = np.ones(z.shape, dtype=bool)
    if 0.0 < alpha <= 1.0 and beta <= 1.0 + alpha:
        contour = redo & (z <= 0.0)
        if contour.any():
            total[contour] = _ml_nonpositive(alpha, beta, z[contour])
            redo &= ~contour
    flat = total.reshape(-1)
    zflat = z.reshape(-1)
    for j in np.flatnonzero(redo):
        flat[j] = _series_mp(alpha, beta, float(zflat[j]), dps=30)
    return total


def _eval_series(alpha: float, beta: float, z):
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("series argument must be finite")
    out = _series(alpha, beta, np.atleast_1d(arr).copy())
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def ml_one(alpha: float, z):
    """One-parameter Mittag-Leffler function E_alpha(z).

    ``z`` may be a scalar or an array.  ``alpha = 0`` is the geometric series
    1/(1 - z), valid only for ``|z| < 1``.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise DomainError(f"ml_one requires alpha >= 0, got {alpha}")
    if alpha == 0.0:
        if np.any(np.abs(np.asarray(z, dtype=float)) >= 1.0):
            raise DomainError("ml_one at alpha=0 requires |z| < 1")
    return _eval_series(alpha, 1.0, z)


def ml_two(alpha: float, beta: float, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z)."""
    alpha = float(alpha)
    beta = float(beta)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"ml_two requires alpha > 0, got {alpha}")
    if not math.isfinite(beta) or beta <= 0.0:
        raise DomainError(f"ml_two requires beta > 0, got {beta}")
    return _eval_series(alpha, beta, z)


def kernel(spec: DiscountSpec, t):
    """Discount kernel E_alpha(lam * t**alpha) for t >= 0."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("kernel requires finite t >= 0")
    return ml_one(spec.alpha, spec.lam * np.power(arr, spec.alpha))


def kernel_deriv(spec: DiscountSpec, sigma):
    """Time derivative of the discount kernel,

        d/dsigma E_a(lam sigma^a) = lam sigma^(a-1) E_{a,a}(lam sigma^a),

    valid for sigma > 0.  The sigma^(a-1) factor is integrable but unbounded
    as sigma -> 0+ for a < 1, so non-positive arguments are rejected.
    """
    arr = np.asarray(sigma, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("kernel_deriv requires finite sigma > 0")
    a = spec.alpha
    body = ml_two(a, a, spec.lam * np.power(arr, a))
    return spec.lam * np.power(arr, a - 1.0) * body
