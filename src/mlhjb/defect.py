"""Semigroup defect of the Mittag-Leffler discount kernel.

The exponential kernel satisfies exp(l(t+s)) = exp(lt) exp(ls).  Its
Mittag-Leffler generalisation does not; the gap is an explicit double
integral,

    E_a(lam (t+s)^a) = E_a(lam t^a) E_a(lam s^a) - Delta(t, s),

    Delta(t, s) = int_0^t tau^(a-1) E_{a,a}(lam tau^a) F(t - tau) dtau,
    F(w)        = int_0^s (w + s - sigma)^(-a) / Gamma(1-a)
                  * d/dsigma E_a(lam sigma^a) dsigma.

Both integrals carry integrable endpoint singularities: sigma^(a-1) and
tau^(a-1) at the lower ends, (w + s - sigma)^(-a) at sigma = s once w -> 0,
and a (t - tau)^(1-a) derivative blow-up of F at tau = t.  With phi the
kernel derivative, x = s - sigma and h = s/2, the half next to sigma = s
subtracts phi(s) and adds its integral in closed form,

    int_0^h (w + x)^(-a) phi(s - x) dx = int_0^h (w + x)^(-a) (phi(s - x) - phi(s)) dx
                                        + phi(s) ((w + h)^(1-a) - w^(1-a)) / (1 - a),

whose remainder vanishes like x^(1-a) at x = 0, as F does at tau = t.  One
node rule, ``_split_nodes``, serves both integrals: it splits [0, L] at L/2,
flattens each end's singularity by a power-law change of variable x = h y^r
on that end's half, r = ceil(5 / strength) with strength a at 0 and 2 - a at
L, and sums composite Gauss-Legendre panels.  It returns each node's
distance from both ends, the one to its own end exact (never rebuilt by
subtracting nearly equal floats), which keeps the kernels finite all the way
into the corner tau -> t, sigma -> s.  Each integral evaluates its special
function once (the inner one at sigma = s too): the outer one, which depends
only on t, once per ``delta_ml`` call, and the inner one once per nonzero s.

``delta_ml`` is the public entry; it takes one s or an array of them, and
evaluates F inside, at every outer node at once.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError
from .specfun import DiscountSpec, kernel_deriv, ml_two

__all__ = ["delta_ml"]

_GL_ORDER_OUTER = 6  # Gauss-Legendre nodes per panel, outer integral
_GL_ORDER_INNER = 8  # higher order inside F, whose nodes are reused across all w
_GRADE_TARGET = 5.0  # smoothness exponent aimed for by the power substitutions
_SPLIT = 0.5  # each singular endpoint is graded on its own half of the interval
# Gauss-Legendre nodes and weights on [-1, 1], by order
_GL_RULES = {order: leggauss(order) for order in (_GL_ORDER_OUTER, _GL_ORDER_INNER)}


def _unit_panels(panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [0, 1]."""
    y, w = _GL_RULES[order]
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * y[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _split_nodes(length: float, panels: int, alpha: float, order: int):
    """(x, length - x, weights) for int_0^length g(x) dx, g ~ x^(alpha-1) at 0, ~ (length-x)^(1-alpha) at length."""
    y, w = _unit_panels(panels, order)

    def graded(h: float, strength: float):
        # x = h y^r from the half's own end turns x^(strength-1) into y^(r*strength-1), r chosen so
        # that exponent reaches _GRADE_TARGET; a float r, inf for a subnormal alpha, fails the
        # underflow check (past r ~ 125, alpha ~ 0.04) before h * r can overflow in the weights
        r = np.ceil(_GRADE_TARGET / strength)
        x = h * y**r
        if not x[0] > 0.0:
            raise DomainError(f"graded quadrature nodes on [0, {h:g}] underflow to 0 at alpha = {alpha:g}")
        return x, w * (h * r) * y ** (r - 1)

    near, w_near = graded(_SPLIT * length, alpha)
    far, w_far = graded((1.0 - _SPLIT) * length, 2.0 - alpha)
    return np.concatenate([near, length - far]), np.concatenate([length - near, far]), np.concatenate([w_near, w_far])


def _inner(spec: DiscountSpec, s: float, panels: int, w: np.ndarray) -> np.ndarray:
    """F at each distance in the 1-D array ``w``, by one shared sigma-quadrature.

    With x_j = s - sigma_j (exact on the half near sigma = s) and weights g_j
    that fold in 1/Gamma(1-a) and phi(sigma_j), less phi(s) on that half,

        F(w) = sum_j g_j (w + x_j)^(-a) + phi(s) ((w + h)^(1-a) - w^(1-a)) / Gamma(2-a),

    with the difference formed as (w + h)^(1-a) (1 - (1 + h/w)^(a-1)) by
    expm1 and log1p, so that it does not cancel when h << w.
    """
    a = spec.alpha
    sig, x, weights = _split_nodes(s, panels, a, _GL_ORDER_INNER)
    n = len(sig) // 2
    phi = kernel_deriv(spec, np.append(sig, s))  # phi(s) last
    phi[n:-1] -= phi[-1]
    g = (weights * phi[:-1]) * (1.0 / math.gamma(1.0 - a))
    k_lo = (w[:, None] + x[None, :n]) ** (-a)
    k_hi = (w[:, None] + x[None, n:]) ** (-a)
    h = (1.0 - _SPLIT) * s
    with np.errstate(over="ignore"):  # h / w = inf (t << s) gives the right limit, (w + h)^(1-a)
        closed = (w + h) ** (1.0 - a) * -np.expm1((a - 1.0) * np.log1p(h / w))
    return k_lo @ g[:n] + k_hi @ g[n:] + closed * (phi[-1] / math.gamma(2.0 - a))


def delta_ml(spec: DiscountSpec, t: float, s, panels: int = 8):
    """Semigroup defect Delta(t, s) of the discount kernel.

    Satisfies kernel(t) * kernel(s) - Delta(t, s) = kernel composed over
    t + s.  Evaluates the double integral described in the module docstring
    on ``panels`` (an integer >= 4) panels per graded half; Delta is 0 exactly
    for s = 0, lam = 0, or alpha = 1 (empty interval, constant kernel, and
    exact semigroup respectively).  ``s`` is a scalar, which returns a float,
    or a 1-D array, which returns a float array whose elements equal the
    scalar calls; the outer quadrature, which depends on t alone, is built
    once per call and shared by every s.
    """
    t = float(t)
    s_arr = np.asarray(s, dtype=float)
    svals = s_arr.ravel()
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"t must be positive and finite, got {t!r}")
    if s_arr.ndim > 1:
        raise DomainError(f"s must be a scalar or a 1-D array, got shape {s_arr.shape}")
    bad = ~(np.isfinite(svals) & (svals >= 0.0))
    if bad.any():
        raise DomainError(f"s must be non-negative and finite, got {float(svals[bad][0])!r}")
    if not (isinstance(panels, int) and panels >= 4):
        raise DomainError(f"panels must be an integer >= 4, got {panels!r}")
    out = np.zeros(svals.shape)
    if spec.lam != 0.0 and spec.alpha != 1.0 and svals.any():
        # the outer tau-quadrature: weights with tau^(a-1) E_{a,a}(lam tau^a) folded in, and the
        # distances w = t - tau at which F is evaluated, exact near the tau = t endpoint
        a = spec.alpha
        tau, w, weights = _split_nodes(t, panels, a, _GL_ORDER_OUTER)
        weights = weights * (tau ** (a - 1.0) * ml_two(a, a, spec.lam * tau**a))
        for i in np.flatnonzero(svals):
            out[i] = np.dot(weights, _inner(spec, float(svals[i]), panels, w))
    return float(out[0]) if s_arr.ndim == 0 else out
