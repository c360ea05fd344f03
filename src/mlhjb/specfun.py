"""Mittag-Leffler functions and discount kernels.

The one- and two-parameter Mittag-Leffler functions

    E_a(z)   = sum_{n>=0} z^n / Gamma(a n + 1),
    E_{a,b}(z) = sum_{n>=0} z^n / Gamma(a n + b)

are evaluated in float64, each point routed by (a, b, z) before any sum:

- z <= 0 with 0 < a <= 1, up to a cut: exp(z) at a = b = 1, else Garrappa's
  optimal parabolic contour (OPC) for the inverse Laplace transform of
  s^(a-b) / (s^a - z) (R. Garrappa, SIAM J. Numer. Anal. 53(3), 2015), one
  fixed 28-node half contour for every z, built on each call.  At z <= -1,
  E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z lowers b until b <= 1 and
  makes the leading -1/(z Gamma(b-a)) of the large-|z| expansion exact.  The
  cut is 0 at a = b = 1 and for a < 0.1, -c^a, c = _CUT, elsewhere in the
  kernel region 0 < b <= 1 + a (every kernel, kernel-derivative and defect
  evaluation), and -b^a for b > 1 + a; the series takes the z <= 0 above it.
- z > 0 with 0 < a <= 1: the power series, whose terms are all positive.  A
  point whose own sum overflows or runs past 2,000 terms takes the pole
  residue (1/a) z^((1-b)/a) e^(z^(1/a)) where the rest of the expansion is
  below eps relative to it.
- a > 1: the power series.

Each point's series stops on its own terms, so a value depends only on its
own (a, b, z): an array call returns its elements' scalar values bit for bit.

A result that loses more than five digits, or a series that does not
converge, raises ConvergenceError: E_2(-1000), E_0.5(40), E_{0.001,1.5}(-0.999).

In the kernel region the measured relative error against exact-parameter
values is at most about 1e-12 for 0.001 <= a <= 0.99 and b >= a; it grows
as (a, b) nears (1, 1), where the function tends to e^z (6e-12 at
a = b = 0.999, z = -50), and at a = b -> 0, where E_{a,a} shrinks like a
(1e-10 at a = b = 1e-5, an absolute 3e-16).  Outside it, against
exact-parameter values on grids: b > 1 + a at z <= 0 within 1.4e-13, and
1.5e-14 past -b^a (a from 0.001 to 1, b up to 20, z from -0.3 to -1000),
z > 0 within 3e-13 (a from 0.01 to 1, b up to 20, z^(1/a) up to 700),
and the kept a > 1 sums within 1.2e-10 (a from 1.2 to 3, b up to 3,
|z| <= 50).
The discount kernel built on top of them is

    kernel(t) = E_a(lam * t**a),

which is exp(lam * t) at a = 1 (np.exp's bits for lam <= 0) and a
heavy-tailed relaxation for 0 < a < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "DiscountSpec",
    "ml_one",
    "ml_two",
    "kernel",
    "kernel_deriv",
]

# Kernel-region points with z <= -_CUT**a go to the contour.  Above the cut
# the series' largest term, about exp(|z|^(1/a)), exceeds the sum by at most
# 1.5 decimal digits for b >= 1 and 2.4 for b = a >= 0.1.
_CUT = 2.3
# Below this order the series near |z| = 1 needs over _MAX_TERMS terms (from
# a ~ 0.013 down): every kernel-region z <= 0 goes to the contour.
_SERIES_MIN_ALPHA = 0.1
# A float64 sum whose largest term exceeds the final sum by more than this
# factor (five digits lost to cancellation) raises ConvergenceError.
_MAX_LOSS = 1e5
_OVERFLOW_GUARD = 1e290
# Series truncation: a point stops once two consecutive terms of its own are
# at most _ABS_TOL + _REL_TOL |sum|; give up after _MAX_TERMS terms.  The contour
# has its own 1e-15 target.
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


def _series_float(alpha: float, beta: float, z: np.ndarray):
    """The power series in float64, each point stopped by its own terms.

    A point stops once two consecutive terms of its own were small, so its
    value depends only on its own (alpha, beta, z), not on the other points.
    Returns ``(total, max_term, ok)``: the per-element peak of ``|term|``, and
    False at each point whose terms overflowed (they are zeroed from there on,
    so the rest carry on) or missed the truncation rule within _MAX_TERMS.
    Term n + 1 is term n times z Gamma(a n + b) / Gamma(a (n + 1) + b), that
    ratio computed where the term uses it.
    """
    total = np.full_like(z, 1.0 / math.gamma(beta))
    term = total.copy()
    peak = np.abs(term)
    ok = np.ones(z.shape, dtype=bool)
    small = done = np.zeros(z.shape, dtype=bool)
    for n in range(_MAX_TERMS):
        term = term * z * math.exp(math.lgamma(alpha * n + beta) - math.lgamma(alpha * (n + 1) + beta))
        mags = np.abs(term)
        if not mags.max(initial=0.0) <= _OVERFLOW_GUARD:  # also inf and NaN
            ok = ok & (mags <= _OVERFLOW_GUARD)
            term[~ok] = 0.0
            mags[~ok] = 0.0
        np.maximum(peak, mags, out=peak)
        total = total + term
        was_small, small = small, mags <= _ABS_TOL + _REL_TOL * np.abs(total)
        done = small & was_small
        if done.all():
            break
        np.copyto(term, 0.0, where=done)  # a stopped point adds zeros from here on
    return total, peak, ok & done


def _contour_sum(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) for real z <= 0 by the OPC rule, in blocks of points.

    The trapezoidal rule for (1 / 2 pi i) int e^s s^(a-b) / (s^a - z) ds is
    built here, at the nodes u >= 0 of the upper half; for real z the lower
    half contributes the complex conjugate, so its weights are folded into
    these.
    """
    if not z.size:
        return np.empty_like(z)
    u = _STEP * np.arange(_NODES + 1)
    s = _MU * (1.0 + 1j * u) ** 2
    # h / (2 pi i) * ds/du = h mu (1 + iu) / pi, doubled for the lower half
    weights = (2.0 * _STEP * _MU / math.pi) * (1.0 + 1j * u) * np.exp(s) * s ** (alpha - beta)
    weights[0] *= 0.5
    s_alpha = s**alpha
    sa_re, sa_im, w_re, w_im = s_alpha.real, s_alpha.imag, weights.real, weights.imag
    out = np.empty_like(z)
    for lo in range(0, z.size, _BLOCK):
        gap = sa_re - z[lo : lo + _BLOCK, None]
        # Re[w / (gap + i sa_im)] summed over the nodes; gap^2 = inf past |z| ~ 1e154 gives the right limit, 0
        with np.errstate(over="ignore"):
            out[lo : lo + _BLOCK] = ((w_re * gap + w_im * sa_im) / (gap * gap + sa_im * sa_im)).sum(axis=1)
    return out


def _ml_nonpositive(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) in float64 for 1-D z <= 0, 0 < alpha <= 1, beta > 0 (beta <= 1 + alpha at z > -1)."""
    if alpha == 1.0 and beta == 1.0:
        return np.exp(z)
    out = np.empty_like(z)
    far = z <= -1.0
    out[~far] = _contour_sum(alpha, beta, z[~far])
    # E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z, at least once and until
    # b <= 1: the leading -1/(z Gamma(b-a)) of the large-|z| expansion is then
    # exact, and the contour sum keeps its relative accuracy where that term
    # is small or zero (b = a).  The lowered b stays above -a, so its only
    # gamma pole is 0.
    leads = []
    while beta > 1.0 or not leads:
        beta -= alpha
        leads.append(0.0 if beta == 0.0 else 1.0 / math.gamma(beta))
    zf = z[far]
    total = _contour_sum(alpha, beta, zf)
    for lead in reversed(leads):
        total = (total - lead) / zf
    out[far] = total
    return out


def _pole_residue(alpha: float, beta: float, z: np.ndarray):
    """(1/a) z^((1-b)/a) e^(z^(1/a)) for z > 0, 0 < a <= 1, and where it is E_{a,b}(z).

    E_{a,b}(z) = residue - sum_{k>=1} z^-k / Gamma(b - k a) asymptotically
    (Gorenflo, Kilbas, Mainardi and Rogosin, Mittag-Leffler Functions, 2014).
    With r = z^(1/a), term k over the residue is a r^(b-1-ka) e^-r / |Gamma(b-ka)|.
    Where r >= b - a, the terms with b - ka > 0 shrink with k, and those with
    b - ka <= 0 (up to the smallest, where the divergent sum is cut) are at
    most a e^-r / r.  The residue is kept where both bounds are at most eps.
    """
    with np.errstate(over="ignore"):
        root = z ** (1.0 / alpha)
        value = np.exp(root + (1.0 - beta) / alpha * np.log(z)) / alpha
    first = (beta - 1.0 - alpha) * np.log(root) - math.lgamma(beta - alpha) if beta > alpha else -np.inf
    bound = math.log(alpha) - root + np.maximum(first, -np.log(root))
    return value, (root >= beta - alpha) & (bound <= _LOG_EPS) & np.isfinite(value)


def _series(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z), each point routed by (alpha, beta, z) alone."""
    if alpha == 0.0:
        # only ml_one gets here at alpha = 0, with |z| < 1: the geometric series
        return 1.0 / (1.0 - z)
    out = np.empty_like(z)
    summed = np.ones(z.shape, dtype=bool)
    if alpha <= 1.0:
        if beta > 1.0 + alpha:
            # past -b^a a step of lowering b divides the error by |z| >= b^a,
            # more than 1/Gamma grows; above it the terms shrink from about n = 0
            cut = -(beta**alpha)
        elif alpha >= _SERIES_MIN_ALPHA and (alpha, beta) != (1.0, 1.0):
            cut = -(_CUT**alpha)
        else:
            # E_1(z) = exp(z) at every z <= 0; below a = 0.1 every z <= 0 takes the contour
            cut = 0.0
        summed = z > cut
        out[~summed] = _ml_nonpositive(alpha, beta, z[~summed])
    zs = z[summed]
    total, peak, ok = _series_float(alpha, beta, zs)
    # z > 0, a <= 1: positive terms; a sum that failed may take the residue
    failed = ~ok & (zs > 0.0)
    if alpha <= 1.0 and failed.any():
        total[failed], ok[failed] = _pole_residue(alpha, beta, zs[failed])
    ok &= peak / _MAX_LOSS <= np.abs(total)
    if not ok.all():
        raise ConvergenceError(f"Mittag-Leffler E_{{{alpha:g},{beta:g}}}({zs[~ok][0]:g}) not resolved in float64")
    out[summed] = total
    return out


def _eval_series(alpha: float, beta: float, z):
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("series argument must be finite")
    out = _series(alpha, beta, np.atleast_1d(arr))
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def ml_one(alpha: float, z):
    """One-parameter Mittag-Leffler function E_alpha(z).

    ``z`` may be a scalar or an array.  ``alpha = 0`` is the geometric series,
    evaluated in closed form as 1/(1 - z) and valid only for ``|z| < 1``.
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
    try:
        math.gamma(beta)  # the series' first term is 1 / Gamma(beta)
    except OverflowError:
        raise DomainError(f"ml_two requires Gamma(beta) below the float64 maximum, got beta = {beta}") from None
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
