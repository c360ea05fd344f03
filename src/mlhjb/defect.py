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
and a (t - tau)^(1-a) derivative blow-up of F at tau = t.  One node rule,
``_split_nodes``, serves both: it splits [0, L] at L/2, flattens each end's
singularity by a power-law change of variable x = h y^r on that end's half,
and sums composite Gauss-Legendre panels.  It returns each node's distance
from both ends, the one to its own end exact (never rebuilt by subtracting
nearly equal floats), which keeps the kernels finite all the way into the
corner tau -> t, sigma -> s.  Each integral evaluates its special function
once, over the nodes of both halves; the outer one, which depends only on t,
once per (spec, t, panels).

``delta_ml`` is the public entry; F is evaluated inside it, at every outer
node at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError
from .specfun import DiscountSpec, kernel_deriv, ml_two

__all__ = ["QuadratureConfig", "delta_ml"]

_GL_ORDER_OUTER = 6  # Gauss-Legendre nodes per panel, outer integral
_GL_ORDER_INNER = 8  # higher order inside F, whose nodes are reused across all w
_GRADE_TARGET = 5.0  # smoothness exponent aimed for by the power substitutions
_GRADE_CAP = 400
_SPLIT = 0.5  # each singular endpoint is graded on its own half of the interval


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre panels per graded sub-interval."""

    panels: int = 8

    def __post_init__(self) -> None:
        if not (isinstance(self.panels, int) and self.panels >= 4):
            raise DomainError(f"panels must be an integer >= 4, got {self.panels!r}")


_DEFAULT_QUAD = QuadratureConfig()


@lru_cache(maxsize=64)
def _unit_panels(panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [0, 1]."""
    y, w = leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * y[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _split_nodes(length: float, panels: int, alpha: float, far_strength: float, order: int):
    """(x, length - x, weights) for int_0^length g(x) dx, g ~ x^(alpha-1) at 0, ~ (length-x)^(far_strength-1) at length."""
    y, w = _unit_panels(panels, order)

    def graded(h: float, strength: float):
        # x = h y^r from the half's own end turns x^(strength-1) into y^(r*strength-1);
        # r is chosen so that exponent reaches _GRADE_TARGET
        r = max(2, min(_GRADE_CAP, math.ceil(_GRADE_TARGET / strength)))
        return h * y**r, w * (h * r) * y ** (r - 1)

    near, w_near = graded(_SPLIT * length, alpha)
    # r = ceil(5 / alpha) nears 125 as alpha falls to 0.04, where the first node's y^r underflows
    if not near[0] > 0.0:
        raise DomainError(f"graded quadrature nodes on [0, {_SPLIT * length:g}] underflow to 0 at alpha = {alpha:g}")
    far, w_far = graded((1.0 - _SPLIT) * length, far_strength)
    return np.concatenate([near, length - far]), np.concatenate([length - near, far]), np.concatenate([w_near, w_far])


def _inner(spec: DiscountSpec, s: float, q: QuadratureConfig, w: np.ndarray) -> np.ndarray:
    """F at each distance in the 1-D array ``w``, by one shared sigma-quadrature.

    With x_j = s - sigma_j (exact on the half near sigma = s) and weights g_j
    that fold in the kernel-derivative factor and 1/Gamma(1-a),

        F(w) = sum_j g_j (w + x_j)^(-a),

    summed over each half separately.
    """
    a = spec.alpha
    sig, x, weights = _split_nodes(s, q.panels, a, 1.0 - a, _GL_ORDER_INNER)
    g = (weights * kernel_deriv(spec, sig)) * (1.0 / math.gamma(1.0 - a))
    n = len(sig) // 2
    k_lo = (w[:, None] + x[None, :n]) ** (-a)
    k_hi = (w[:, None] + x[None, n:]) ** (-a)
    return k_lo @ g[:n] + k_hi @ g[n:]


@lru_cache(maxsize=64)
def _outer_nodes(spec: DiscountSpec, t: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Outer tau-quadrature of Delta(t, .), which depends on t alone.

    Returns (weights, w): the weights with tau^(a-1) E_{a,a}(lam tau^a)
    folded in, and the distances w = t - tau at which F is evaluated, kept
    exact near the tau = t endpoint by construction.  Both are read-only.
    """
    a = spec.alpha
    tau, w, weights = _split_nodes(t, panels, a, 2.0 - a, _GL_ORDER_OUTER)
    weights = weights * (tau ** (a - 1.0) * ml_two(a, a, spec.lam * tau**a))
    for arr in (weights, w):
        arr.flags.writeable = False
    return weights, w


def delta_ml(spec: DiscountSpec, t: float, s: float, q: QuadratureConfig | None = None) -> float:
    """Semigroup defect Delta(t, s) of the discount kernel.

    Satisfies kernel(t) * kernel(s) - Delta(t, s) = kernel composed over
    t + s.  Evaluates the double integral described in the module docstring;
    returns 0 exactly for s = 0, lam = 0, or alpha = 1 (empty interval,
    constant kernel, and exact semigroup respectively).  The outer nodes and
    weights are computed once per (spec, t, panels) and reused for every s.
    """
    q = q or _DEFAULT_QUAD
    t = float(t)
    s = float(s)
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"t must be positive and finite, got {t!r}")
    if not (math.isfinite(s) and s >= 0.0):
        raise DomainError(f"s must be non-negative and finite, got {s!r}")
    if s == 0.0 or spec.lam == 0.0 or spec.alpha == 1.0:
        return 0.0
    outer_w, w = _outer_nodes(spec, t, q.panels)
    return float(np.dot(outer_w, _inner(spec, s, q, w)))
