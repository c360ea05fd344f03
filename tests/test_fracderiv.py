"""L1 and windowed Riemann-Liouville derivatives, derivative order, amplitude."""

import math

import numpy as np
import pytest

from mlhjb import (
    DomainError,
    FracOrder,
    InsufficientHistoryError,
    amplitude,
    l1_frac_deriv,
    rl_window_deriv,
)


def _samples_of(fn, dt: float, t_end: float) -> np.ndarray:
    """fn on 0, dt, ..., t_end, oldest first."""
    n = round(t_end / dt)
    return np.array([fn(i * dt) for i in range(n + 1)])


class TestFracOrder:
    def test_range(self):
        FracOrder(0.0)
        FracOrder(0.999)
        for bad in (1.0, -0.1, float("nan")):
            with pytest.raises(DomainError):
                FracOrder(bad)


class TestAmplitude:
    def test_half(self):
        assert amplitude(0.5) == pytest.approx(2.0, rel=1e-15)

    def test_one(self):
        assert amplitude(1.0) == 1.0

    def test_continuous_limit(self):
        assert amplitude(1.0 - 1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_positive(self):
        for a in np.linspace(0.05, 1.0, 20):
            assert amplitude(float(a)) > 0.0

    def test_continuity(self):
        for a in np.linspace(0.1, 1.0 - 1e-6, 25):
            assert abs(amplitude(float(a)) - amplitude(float(a) + 1e-6)) <= 1e-3

    def test_domain(self):
        for bad in (0.0, -0.5, 1.2):
            with pytest.raises(DomainError):
                amplitude(bad)


class TestL1FracDeriv:
    def test_linear_function(self):
        # D^mu t = t^(1-mu)/Gamma(2-mu); at t = 1, mu = 0.5
        vals = _samples_of(lambda t: t, 1e-3, 1.0)
        got = float(l1_frac_deriv(vals, 1e-3, FracOrder(0.5)))
        assert got == pytest.approx(1.0 / math.gamma(1.5), rel=1e-3)

    def test_quadratic_function(self):
        for mu in (0.25, 0.5, 0.75):
            vals = _samples_of(lambda t: t * t, 1e-3, 1.0)
            exact = 2.0 / math.gamma(3.0 - mu)
            assert float(l1_frac_deriv(vals, 1e-3, FracOrder(mu))) == pytest.approx(exact, rel=1e-3)

    def test_convergence_rate(self):
        # error for t^2 shrinks like dt^(2-mu); factor >= 2^1.5 per halving, 20% slack
        for mu in (0.25, 0.5, 0.75):
            exact = 2.0 / math.gamma(3.0 - mu)
            errs = []
            for dt in (4e-3, 2e-3):
                vals = _samples_of(lambda t: t * t, dt, 1.0)
                errs.append(abs(float(l1_frac_deriv(vals, dt, FracOrder(mu))) - exact))
            assert errs[0] / errs[1] >= 0.8 * 2.0**1.5

    def test_constant(self):
        vals = _samples_of(lambda t: 3.7, 0.01, 0.5)
        for mu in (0.25, 0.9):
            assert abs(float(l1_frac_deriv(vals, 0.01, FracOrder(mu)))) <= 1e-12

    def test_identity_order(self):
        vals = _samples_of(lambda t: math.sin(t), 0.1, 1.0)
        assert float(l1_frac_deriv(vals, 0.1, FracOrder(0.0))) == math.sin(1.0)

    def test_insufficient_history(self):
        for deriv in (l1_frac_deriv, rl_window_deriv):
            with pytest.raises(InsufficientHistoryError):
                deriv([1.0], 0.1, FracOrder(0.5))
            # identity order works with a single sample
            assert float(deriv([1.0], 0.1, FracOrder(0.0))) == 1.0
            with pytest.raises(InsufficientHistoryError):
                deriv(np.empty((0, 3)), 0.1, FracOrder(0.0))
            for bad_dt in (0.0, -0.1, float("nan")):
                with pytest.raises(DomainError):
                    deriv([1.0, 2.0], bad_dt, FracOrder(0.5))

    def test_array_values(self):
        vals = _samples_of(lambda t: np.array([t, t * t]), 0.01, 1.0)
        vec = l1_frac_deriv(vals, 0.01, FracOrder(0.5))
        v1 = _samples_of(lambda t: t, 0.01, 1.0)
        v2 = _samples_of(lambda t: t * t, 0.01, 1.0)
        assert vec[0] == pytest.approx(float(l1_frac_deriv(v1, 0.01, FracOrder(0.5))), rel=1e-14)
        assert vec[1] == pytest.approx(float(l1_frac_deriv(v2, 0.01, FracOrder(0.5))), rel=1e-14)


class TestRlWindowDeriv:
    def test_matches_caputo_when_start_is_zero(self):
        vals = _samples_of(lambda t: t, 1e-3, 1.0)
        mu = FracOrder(0.5)
        assert float(rl_window_deriv(vals, 1e-3, mu)) == pytest.approx(float(l1_frac_deriv(vals, 1e-3, mu)), rel=1e-12)

    def test_constant_gets_terminal_term(self):
        # RL derivative of a constant c over [a, t]: c (t-a)^(-mu)/Gamma(1-mu)
        c, mu = 3.0, 0.4
        vals = _samples_of(lambda t: c, 0.01, 0.5)
        exact = c * 0.5 ** (-mu) / math.gamma(1.0 - mu)
        assert float(rl_window_deriv(vals, 0.01, FracOrder(mu))) == pytest.approx(exact, rel=1e-10)

    def test_identity_order(self):
        vals = _samples_of(lambda t: t * t, 0.1, 0.5)
        assert float(rl_window_deriv(vals, 0.1, FracOrder(0.0))) == 0.25
