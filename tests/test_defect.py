"""Semigroup-defect quadrature against series-identity and dense-grid oracles."""

import math

import numpy as np
import pytest

from mlhjb import DiscountSpec, DomainError, QuadratureConfig, delta_ml, kernel, kernel_deriv
from mlhjb import defect

SPEC_HALF = DiscountSpec(0.5, -1.0)

# identity values from the 40-digit series oracle:
# delta(t,s) = E_a(lam t^a) E_a(lam s^a) - E_a(lam (t+s)^a)
DELTA_1_1 = -0.15337628784815240461    # E_0.5(-1)^2 - E_0.5(-sqrt(2))
DELTA_1_05 = -0.1494725113171817254    # E_0.5(-1) E_0.5(-sqrt(0.5)) - E_0.5(-sqrt(1.5))
INNER_1_05 = -0.2303461843572831354    # F(1) for s = 0.5, 40-digit quadrature


class TestQuadratureConfig:
    def test_defaults(self):
        q = QuadratureConfig()
        assert q.panels == 8

    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(panels=3)


def _inner_f(spec, w, s, q=QuadratureConfig()):
    """Inner convolution F(w) = int_0^s (w + s - sigma)^(-a) / Gamma(1-a) * kernel_deriv(sigma) dsigma."""
    return float(defect._inner(spec, s, q, np.array([w]))[0])


class TestInnerF:
    def test_small_s_goes_to_zero(self):
        assert abs(_inner_f(SPEC_HALF, 1.0, 1e-6)) < 1e-3

    def test_frozen_oracle(self):
        assert _inner_f(SPEC_HALF, 1.0, 0.5) == pytest.approx(INNER_1_05, abs=1e-9)

    def test_dense_midpoint_oracle(self):
        # independent dense-grid route: substitute sigma = y^2, midpoint rule
        a, s, w, n = 0.5, 0.5, 1.0, 1_000_000
        h = math.sqrt(s) / n
        y = (np.arange(n) + 0.5) * h
        sig = y * y
        vals = (w + s - sig) ** (-a) / math.gamma(1.0 - a) * np.asarray(
            kernel_deriv(SPEC_HALF, sig)
        ) * 2.0 * y
        ref = float(vals.sum() * h)
        assert _inner_f(SPEC_HALF, 1.0, 0.5) == pytest.approx(ref, rel=1e-8)

    def test_panel_doubling(self):
        f8 = _inner_f(SPEC_HALF, 1.0, 0.5)
        f16 = _inner_f(SPEC_HALF, 1.0, 0.5, QuadratureConfig(panels=16))
        assert abs(f16 - f8) < 1e-8 * abs(f16)


class TestSplitNodes:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("far, order", [(lambda a: 1.0 - a, 8), (lambda a: 2.0 - a, 6)], ids=["inner", "outer"])
    def test_weights_integrate_a_constant(self, alpha, far, order):
        # at the default 8 panels, on the benchmark's verify alphas; the grading exponent of the far end
        # grows as alpha nears 1 (51 at sigma = s for alpha 0.9), and so does this error
        length = 0.75
        x, dist, weights = defect._split_nodes(length, 8, alpha, far(alpha), order)
        assert weights.sum() == pytest.approx(length, rel=1e-13)
        # each node's two distances add up to the length, and neither end is a node
        assert np.allclose(x + dist, length, rtol=0.0, atol=1e-15)
        assert np.all(x > 0.0) and np.all(dist > 0.0)


class TestDeltaMl:
    def test_zero_s(self):
        assert delta_ml(SPEC_HALF, 1.0, 0.0) == 0.0

    def test_alpha_one_short_circuit(self):
        assert delta_ml(DiscountSpec(1.0, -1.0), 1.0, 1.0) == 0.0

    def test_lambda_zero(self):
        assert delta_ml(DiscountSpec(0.5, 0.0), 1.0, 1.0) == 0.0

    def test_frozen_identity_values(self):
        assert delta_ml(SPEC_HALF, 1.0, 1.0) == pytest.approx(DELTA_1_1, abs=2e-9)
        assert delta_ml(SPEC_HALF, 1.0, 0.5) == pytest.approx(DELTA_1_05, abs=2e-9)

    def test_near_exponential_limit(self):
        spec = DiscountSpec(0.999, -1.0)
        for t in (0.25, 1.0):
            for s in (0.25, 1.0):
                assert abs(delta_ml(spec, t, s)) <= 1e-3

    def test_symmetry_through_identity(self):
        # both orderings must reproduce the same kernel(t+s)
        spec = DiscountSpec(0.7, -0.5)
        assert abs(delta_ml(spec, 1.0, 0.5) - delta_ml(spec, 0.5, 1.0)) <= 2e-5

    def test_negative_s(self):
        with pytest.raises(DomainError):
            delta_ml(SPEC_HALF, 1.0, -0.25)
        # and every other t or s off its domain
        for t in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="t must be positive and finite"):
                delta_ml(SPEC_HALF, t, 0.5)
        for s in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="s must be non-negative and finite"):
                delta_ml(SPEC_HALF, 1.0, s)

    @pytest.mark.parametrize("alpha, t, s", [(0.01, 1.0, 0.5), (0.02, 1.0, 0.5), (0.04, 1.0, 0.25), (0.5, 1.0, 1e-300)])
    def test_underflowing_nodes_raise(self, alpha, t, s):
        # past r = ceil(5 / alpha) ~ 125, or on a tiny interval, the first graded node at the
        # tau^(a-1) or sigma^(a-1) pole underflows to 0: a DomainError that names alpha, no warning
        with pytest.raises(DomainError, match=f"underflow to 0 at alpha = {alpha:g}"):
            delta_ml(DiscountSpec(alpha, -1.0), t, s)

    def test_one_special_function_call_per_integral(self, monkeypatch):
        # the outer integral's ml_two and the inner one's kernel_deriv each run once, over both halves;
        # the outer one depends on t alone, so a second s at the same t reuses it
        defect._outer_nodes.cache_clear()
        calls = []
        for name in ("ml_two", "kernel_deriv"):
            fn = getattr(defect, name)
            monkeypatch.setattr(defect, name, lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args))
        assert delta_ml(SPEC_HALF, 1.0, 0.5) == pytest.approx(DELTA_1_05, abs=2e-9)
        assert sorted(calls) == ["kernel_deriv", "ml_two"]
        delta_ml(SPEC_HALF, 1.0, 0.25)
        assert sorted(calls) == ["kernel_deriv", "kernel_deriv", "ml_two"]


class TestSemigroupResidual:
    """kernel(t) kernel(s) - Delta(t, s) - kernel(t + s) is zero up to quadrature error."""

    def test_alpha_one_machine_zero(self):
        spec, t, s = DiscountSpec(1.0, -1.0), 1.0, 0.5
        resid = float(kernel(spec, t)) * float(kernel(spec, s)) - delta_ml(spec, t, s) - float(kernel(spec, t + s))
        assert abs(resid) < 1e-12

    def test_pinned_negative_lambda(self):
        spec, t, s = SPEC_HALF, 1.0, 0.5
        resid = float(kernel(spec, t)) * float(kernel(spec, s)) - delta_ml(spec, t, s) - float(kernel(spec, t + s))
        assert abs(resid) <= 1e-6

    def test_pinned_positive_lambda(self):
        spec, t, s = DiscountSpec(0.3, 0.5), 0.5, 0.25
        resid = float(kernel(spec, t)) * float(kernel(spec, s)) - delta_ml(spec, t, s) - float(kernel(spec, t + s))
        assert abs(resid) <= 1e-6

    def test_spot_grid_with_refinement(self):
        fine = QuadratureConfig(panels=16)
        t = s = 1.0
        for a in (0.3, 0.9):
            for lam in (-1.0, 0.5):
                spec = DiscountSpec(a, lam)
                prod, joint = float(kernel(spec, t)) * float(kernel(spec, s)), float(kernel(spec, t + s))
                assert abs(prod - delta_ml(spec, t, s) - joint) <= 1e-5
                assert abs(prod - delta_ml(spec, t, s, fine) - joint) <= 1e-7
