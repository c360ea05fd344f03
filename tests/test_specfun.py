"""Series core: closed forms, frozen extended-precision values, dual-route gamma."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx

from mlhjb import (
    ConvergenceError,
    DiscountSpec,
    DomainError,
    gamma,
    kernel,
    kernel_deriv,
    ml_one,
    ml_two,
)

# frozen oracles: 40-digit series sums (400 terms), rounded to double
ML_HALF_AT_1 = 5.0089800807622834663       # E_0.5(1), equals e*erfc(-1)
ML_HALF_AT_M1 = 0.42758357615580700441     # E_0.5(-1), equals e*erfc(1)
ML_03_AT_07 = 3.1748201253654243614        # E_0.3(0.7)
ML2_HH_AT_025 = 0.90385017607393681575     # E_{0.5,0.5}(0.25)
ML2_88_AT_M05 = 0.45793149810111437333     # E_{0.8,0.8}(-0.5)
ML2_H15_AT_2 = 53.970452194988986206       # E_{0.5,1.5}(2)
ML2_HH_AT_1 = 5.5731696643100397533        # E_{0.5,0.5}(1), equals 1/sqrt(pi) + e*erfc(-1)

# frozen oracles past the float64 series' reach: mpmath sums (or, where the
# series is out of reach, the Gorenflo-Loutchko-Luchko real integral) with
# alpha and beta passed as exact mp.mpf values
ML_08_AT_M15 = 0.015843800747790798        # E_0.8(-15)
ML_08_AT_M191 = 0.012203193384940280       # E_0.8(-19.1)
ML2_88_AT_M15 = 9.223128515477956054e-04   # E_{0.8,0.8}(-15)
ML2_88_AT_M40 = 1.1604140205456125749e-04  # E_{0.8,0.8}(-40)
ML2_03_2_AT_M3 = 0.2719572978034493        # E_{0.3,2}(-3)
ML2_03_2_AT_M4 = 0.21825969356022965       # E_{0.3,2}(-4)
# E_{a,b}(z) at z = -10, -30, -100 for b = 1 and b = a
ML_NEGATIVE_GRID = {
    (0.3, 1.0): (0.07264972907277209, 0.025182617502927662, 0.007658856222286642),
    (0.3, 0.3): (0.002051786303227615, 0.0002469007895996523, 2.284196721428951e-05),
    (0.5, 1.0): (0.05614099274382259, 0.01879588886141675, 0.005641613782989433),
    (0.5, 0.5): (0.0027796561095304283, 0.00031291770525374203, 2.8205248812996592e-05),
    (0.8, 1.0): (0.024902819761976534, 0.007575860799219208, 0.0022056788685091105),
    (0.8, 0.8): (0.0022770080856945366, 0.00021082443010626104, 1.786795194987607e-05),
    (0.95, 1.0): (0.006507135312256063, 0.0018277746789235518, 0.000523330643947041),
    (0.95, 0.95): (0.0008219108784831853, 6.192890115731745e-05, 5.0665820236802196e-06),
}


class TestGamma:
    def test_unit(self):
        assert gamma(1.0) == 1.0

    def test_factorial(self):
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_half_integer_vs_defining_integral(self):
        # dual route: numerical quadrature of int_0^inf t^(x-1) e^-t dt
        for x in (0.5, 2.5, 3.7):
            ref, _ = quad(lambda t: t ** (x - 1.0) * math.exp(-t), 0.0, np.inf)
            assert gamma(x) == pytest.approx(ref, rel=1e-9)

    def test_sqrt_pi(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_recurrence(self):
        for r in (0.1, 0.5, 1.5, 10.3):
            assert gamma(r + 1.0) / gamma(r) == pytest.approx(r, rel=1e-12)

    def test_negative_non_integer(self):
        # Gamma(-2.5) = -8 sqrt(pi) / 15 by the recurrence
        assert gamma(-2.5) == pytest.approx(-8.0 * math.sqrt(math.pi) / 15.0, rel=1e-12)

    def test_poles(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(DomainError):
                gamma(x)

    def test_non_finite(self):
        with pytest.raises(DomainError):
            gamma(float("nan"))

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma(200.0)


class TestMlOne:
    def test_exponential(self):
        for z in np.linspace(-20.0, 20.0, 201):
            e = math.exp(z)
            assert abs(float(ml_one(1.0, z)) - e) <= 1e-10 * max(1.0, e)

    def test_cosh(self):
        for z in np.linspace(0.0, 50.0, 101):
            c = math.cosh(math.sqrt(z))
            assert abs(float(ml_one(2.0, z)) - c) <= 1e-10 * c

    def test_geometric(self):
        for z in np.linspace(-0.95, 0.95, 39):
            assert abs(float(ml_one(0.0, z)) - 1.0 / (1.0 - z)) <= 1e-12 / (1.0 - abs(z))

    def test_geometric_paper_point(self):
        assert float(ml_one(0.0, 0.5)) == pytest.approx(2.0, rel=1e-13)

    def test_frozen_half(self):
        assert float(ml_one(0.5, 1.0)) == pytest.approx(ML_HALF_AT_1, rel=1e-12)
        assert float(ml_one(0.5, -1.0)) == pytest.approx(ML_HALF_AT_M1, rel=1e-12)

    def test_frozen_03(self):
        assert float(ml_one(0.3, 0.7)) == pytest.approx(ML_03_AT_07, rel=1e-12)

    def test_zero_argument(self):
        for a in (0.0, 0.3, 1.0, 2.0):
            assert float(ml_one(a, 0.0)) == 1.0

    def test_alpha_zero_domain(self):
        with pytest.raises(DomainError):
            ml_one(0.0, 1.0)
        with pytest.raises(DomainError):
            ml_one(0.0, -2.0)

    def test_negative_alpha(self):
        with pytest.raises(DomainError):
            ml_one(-0.5, 1.0)

    def test_deep_cancellation(self):
        # float64 summation alone loses ~26 digits here; requires escalation
        assert float(ml_one(1.0, -30.0)) == pytest.approx(math.exp(-30.0), rel=1e-10)

    def test_half_is_erfcx(self):
        # E_{1/2}(-x) = exp(x^2) erfc(x)
        x = np.linspace(0.0, 30.0, 301)
        want = erfcx(x)
        # the whole array overflows the float64 series and goes to the contour
        assert np.asarray(ml_one(0.5, -x)) == pytest.approx(want, rel=1e-12)
        got = np.array([ml_one(0.5, -xi) for xi in x])
        rel = np.abs(got - want) / want
        # one point at a time, the float64 sum is kept below x ~ 3.45, where
        # it cancels at most five digits; its stated error there is 1e-9
        kept = x < 3.45
        assert np.all(rel[~kept] <= 1e-12)
        assert np.all(rel[kept] <= 1e-9)

    def test_exact_alpha_past_cancellation(self):
        # float64 gamma arguments gave 0.013770 and -180.5 here
        assert float(ml_one(0.8, -15.0)) == pytest.approx(ML_08_AT_M15, rel=1e-12)
        assert float(ml_one(0.8, -19.1)) == pytest.approx(ML_08_AT_M191, rel=1e-12)

    def test_array_matches_scalars(self):
        z = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        vec = np.asarray(ml_one(0.7, z))
        for zi, vi in zip(z, vec):
            assert vi == float(ml_one(0.7, float(zi)))

    def test_exhaustion(self):
        # the terms of E_0.5(40) peak near n = 3200, past the 2,000-term budget
        with pytest.raises(ConvergenceError):
            ml_one(0.5, 40.0)


class TestMlTwo:
    def test_exp_reduction(self):
        assert float(ml_two(1.0, 1.0, 1.0)) == pytest.approx(math.e, rel=1e-13)

    def test_exp_shifted(self):
        # E_{1,2}(z) = (e^z - 1)/z
        for z in (0.5, 1.0, 2.0):
            assert float(ml_two(1.0, 2.0, z)) == pytest.approx((math.exp(z) - 1.0) / z, rel=1e-12)

    def test_frozen(self):
        assert float(ml_two(0.5, 0.5, 0.25)) == pytest.approx(ML2_HH_AT_025, rel=1e-12)
        assert float(ml_two(0.8, 0.8, -0.5)) == pytest.approx(ML2_88_AT_M05, rel=1e-12)
        assert float(ml_two(0.5, 1.5, 2.0)) == pytest.approx(ML2_H15_AT_2, rel=1e-12)

    def test_frozen_past_cancellation(self):
        # the kernel_deriv body at |z| >= 15
        assert float(ml_two(0.8, 0.8, -15.0)) == pytest.approx(ML2_88_AT_M15, rel=1e-12)
        assert float(ml_two(0.8, 0.8, -40.0)) == pytest.approx(ML2_88_AT_M40, rel=1e-12)

    @pytest.mark.parametrize("alpha, beta", sorted(ML_NEGATIVE_GRID))
    def test_negative_grid(self, alpha, beta):
        z = np.array([-10.0, -30.0, -100.0])
        want = ML_NEGATIVE_GRID[alpha, beta]
        assert np.asarray(ml_two(alpha, beta, z)) == pytest.approx(want, rel=1e-12)
        assert [ml_two(alpha, beta, zi) for zi in z] == pytest.approx(want, rel=1e-12)

    def test_exact_beta_off_contour(self):
        # b > 1 + a is outside the contour region, so these are summed by
        # mpmath; float64 gamma arguments gave 0.36139 and 4.7e26
        assert float(ml_two(0.3, 2.0, -3.0)) == pytest.approx(ML2_03_2_AT_M3, rel=1e-12)
        assert float(ml_two(0.3, 2.0, -4.0)) == pytest.approx(ML2_03_2_AT_M4, rel=1e-12)

    def test_beta_one_equals_ml_one(self):
        for a in (0.3, 0.5, 1.0, 1.7):
            for z in (-2.0, -0.3, 0.4, 3.0):
                assert float(ml_two(a, 1.0, z)) == pytest.approx(float(ml_one(a, z)), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            ml_two(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            ml_two(0.5, 0.0, 0.5)
        with pytest.raises(DomainError):
            ml_two(0.5, -1.0, 0.5)


class TestDiscountSpec:
    def test_alpha_range(self):
        for bad in (0.0, -0.2, 1.2, float("nan")):
            with pytest.raises(DomainError):
                DiscountSpec(bad, -1.0)
        DiscountSpec(1e-6, -1.0)
        DiscountSpec(1.0, -1.0)

    def test_lambda_finite(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(DomainError):
                DiscountSpec(0.5, bad)
        DiscountSpec(0.5, 3.0)  # sign free


class TestKernel:
    def test_exponential_case(self):
        spec = DiscountSpec(1.0, -0.5)
        assert float(kernel(spec, 2.0)) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_at_zero(self):
        assert float(kernel(DiscountSpec(0.7, 1.0), 0.0)) == 1.0

    def test_frozen(self):
        assert float(kernel(DiscountSpec(0.5, -1.0), 1.0)) == pytest.approx(ML_HALF_AT_M1, rel=1e-12)

    def test_negative_time(self):
        with pytest.raises(DomainError):
            kernel(DiscountSpec(0.5, -1.0), -0.1)

    def test_array(self):
        spec = DiscountSpec(0.8, -0.5)
        t = np.array([0.0, 0.5, 1.0, 2.0])
        vec = np.asarray(kernel(spec, t))
        for ti, vi in zip(t, vec):
            assert vi == float(kernel(spec, float(ti)))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("lam", [-1.0, -4.0])
    def test_positive_non_increasing_to_t_100(self, alpha, lam):
        v = np.asarray(kernel(DiscountSpec(alpha, lam), np.linspace(0.0, 100.0, 401)))
        assert np.all(v > 0.0)
        assert np.all(np.diff(v) <= 0.0)

    def test_monotone_decay_for_negative_lambda(self):
        spec = DiscountSpec(0.6, -1.0)
        t = np.linspace(0.0, 5.0, 51)
        v = np.asarray(kernel(spec, t))
        assert np.all(np.diff(v) < 0.0)
        assert np.all(v > 0.0)


class TestKernelDeriv:
    def test_exponential_case(self):
        assert float(kernel_deriv(DiscountSpec(1.0, 2.0), 3.0)) == pytest.approx(2.0 * math.exp(6.0), rel=1e-12)

    def test_frozen(self):
        assert float(kernel_deriv(DiscountSpec(0.5, 1.0), 1.0)) == pytest.approx(ML2_HH_AT_1, rel=1e-12)

    def test_nonpositive_sigma(self):
        spec = DiscountSpec(0.5, -1.0)
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                kernel_deriv(spec, bad)

    def test_finite_difference(self):
        # dual route: central difference of kernel at an interior point
        h = 1e-5
        for a in (0.3, 0.5, 0.8, 1.0):
            spec = DiscountSpec(a, -1.0)
            sigma = 0.5
            fd = (float(kernel(spec, sigma + h)) - float(kernel(spec, sigma - h))) / (2.0 * h)
            assert float(kernel_deriv(spec, sigma)) == pytest.approx(fd, rel=1e-5)
