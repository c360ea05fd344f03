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
and a (t - tau)^(1-a) derivative blow-up of F at tau = t.  Each singular
endpoint is flattened by a power-law change of variable x = L y^r on its
half of the interval; the transformed integrands are then summed with
composite Gauss-Legendre panels.

Distances to the singular endpoints are carried explicitly (never rebuilt by
subtracting nearly equal floats), which keeps the kernels finite all the way
into the corner tau -> t, sigma -> s.  Each integral evaluates its special
function once, over the nodes of both halves; the outer one, which depends
only on t, once per (spec, t, panels).

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


def _grade_exponent(strength: float) -> int:
    # x = L y^r turns x^q behaviour (q = strength - 1) into y^(r*strength - 1);
    # r is chosen so the transformed exponent reaches _GRADE_TARGET.
    return max(2, min(_GRADE_CAP, math.ceil(_GRADE_TARGET / strength)))


def _graded_nodes(length: float, panels: int, r: int, order: int = _GL_ORDER_OUTER):
    """Nodes/weights for int_0^length g(x) dx with algebraic behaviour at 0."""
    y, w = _unit_panels(panels, order)
    x = length * y**r
    weights = w * (length * r) * y ** (r - 1)
    return x, weights


def _singular_end_nodes(length: float, panels: int, alpha: float, order: int):
    """_graded_nodes at an x^(alpha-1) end, where a node that underflows to 0 is a pole."""
    x, weights = _graded_nodes(length, panels, _grade_exponent(alpha), order)
    # r = ceil(5 / alpha) nears 125 as alpha falls to 0.04, where the first node's y^r underflows
    if not x[0] > 0.0:
        raise DomainError(f"graded quadrature nodes on [0, {length:g}] underflow to 0 at alpha = {alpha:g}")
    return x, weights


def _inner(spec: DiscountSpec, s: float, q: QuadratureConfig, w: np.ndarray) -> np.ndarray:
    """F at each distance in the 1-D array ``w``, by one shared sigma-quadrature.

    Nodes near sigma = 0 are kept as sigma itself (sig_lo), nodes near
    sigma = s as the distance x = s - sigma (x_hi), and their weights fold in
    the kernel-derivative factor and 1/Gamma(1-a), so

        F(w) = sum g_lo_j (w + s - sig_lo_j)^(-a) + sum g_hi_j (w + x_hi_j)^(-a).
    """
    a = spec.alpha
    sig_lo, w_lo = _singular_end_nodes(_SPLIT * s, q.panels, a, _GL_ORDER_INNER)
    x_hi, w_hi = _graded_nodes((1.0 - _SPLIT) * s, q.panels, _grade_exponent(1.0 - a), _GL_ORDER_INNER)
    inv_gamma = 1.0 / math.gamma(1.0 - a)
    sig = np.concatenate([sig_lo, s - x_hi])
    g = (np.concatenate([w_lo, w_hi]) * kernel_deriv(spec, sig)) * inv_gamma
    n = len(sig_lo)
    k_lo = (w[:, None] + (s - sig_lo)[None, :]) ** (-a)
    k_hi = (w[:, None] + x_hi[None, :]) ** (-a)
    return k_lo @ g[:n] + k_hi @ g[n:]


@lru_cache(maxsize=64)
def _outer_nodes(spec: DiscountSpec, t: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Outer tau-quadrature of Delta(t, .), which depends on t alone.

    Returns (weights, w): the weights with tau^(a-1) E_{a,a}(lam tau^a)
    folded in, and the distances w = t - tau at which F is evaluated, kept
    exact near the tau = t endpoint by construction.  Both are read-only.
    """
    a = spec.alpha
    tau_lo, w_lo = _singular_end_nodes(_SPLIT * t, panels, a, _GL_ORDER_OUTER)
    x_hi, w_hi = _graded_nodes((1.0 - _SPLIT) * t, panels, _grade_exponent(2.0 - a))
    tau = np.concatenate([tau_lo, t - x_hi])
    weights = np.concatenate([w_lo, w_hi]) * (tau ** (a - 1.0) * ml_two(a, a, spec.lam * tau**a))
    w = np.concatenate([t - tau_lo, x_hi])
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
