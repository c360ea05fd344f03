"""Series core: closed forms and frozen extended-precision values."""

import math
import threading
import time

import numpy as np
import pytest
from scipy.special import erfcx

from mlhjb import (
    ConvergenceError,
    DiscountSpec,
    DomainError,
    kernel,
    kernel_deriv,
    ml_one,
    ml_two,
    specfun,
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
# E_{a,b}(z) with b > 1 + a and z <= -1, where b is lowered by a at a time:
# 120-digit series sums with alpha and beta passed as exact mp.mpf values
ML2_ABOVE_CONTOUR = {
    (0.5, 2.5, -4.0): 0.19296068553113888,
    (0.5, 3.0, -4.0): 0.13982302313313405,
    (0.95, 2.0, -10.0): 0.10148417277134074,
    (0.95, 2.5, -10.0): 0.10549724467431758,
    (0.5, 2.0, -25.0): 0.04357124599971273,
    (0.5, 3.0, -25.0): 0.02855982511614654,
    (0.3, 1.8, -10.0): 0.10281862293229917,
    (0.8, 2.3, -100.0): 0.011206660761579064,
}
# b = 3 lies about 2,000 steps of a = 0.001 above the contour region: a
# 60-digit Talbot inversion (mpmath) of the Laplace transform s^(a-b) / (s^a - z)
ML2_DEEP_AT_M2 = 0.16676920671780642382    # E_{0.001,3}(-2)
# b > 1 + a between -b^a and 0, where the series takes the point and lowering
# b would lose digits: 60-digit series sums
ML2_ABOVE_LOWERING_CUT = {
    (0.8, 20.0, -4.0): 6.0061748414390661109e-18,
    (1.0, 10.0, -1.5): 2.3924273160123173959e-06,
}
# past float64 overflow of the terms: a 60-digit series sum
ML2_H3_AT_25 = 1.390980848467833187e+266   # E_{0.5,3}(25)
# E_{a,b}(z) just inside and just past the series/contour cut z = -2.3^a,
# at z = -2.3^a * 0.999 and -2.3^a * 1.001, for b = a, 1, 1 + a
ML_AT_CUT = {
    0.1: ((0.02300691604377212, 0.02295769437491226), (0.464960243453175, 0.4644606737193175),
          (0.4927739962501881, 0.4922486194760563)),
    0.3: ((0.05802759788368005, 0.05788600876075357), (0.39348313678861013, 0.3929870802254094),
          (0.47288881412807426, 0.4723299737486588)),
    0.5: ((0.08067584774756698, 0.08044977062382741), (0.3191386546599543, 0.31864993690926047),
          (0.44939607227949124, 0.4488201070419793)),
    0.8: ((0.0969057745940147, 0.0965531371607831), (0.19627638346319587, 0.19580553577978552),
          (0.4131987249880108, 0.4126147348425477)),
    0.99: ((0.10034701763380065, 0.09989219177695273), (0.10566089413756495, 0.10519955135713482),
           (0.39248781216269957, 0.3919056801458692)),
}
# E_{a,b}(z) below a = 0.1, where every z <= 0 takes the contour, for
# b = a, 1, 1 + a (the series at a = 0.01 near z = -1.005 outlasts 2,000 terms)
ML_SMALL_ALPHA = {
    (0.01, -1.005): (0.002487592490947435, 0.4973100408776769, 0.5001890140520628),
    (0.01, -0.5): (0.004453093060344984, 0.6653888206397369, 0.6692223587205262),
    (0.001, -0.999): (0.00025025034195216833, 0.5001058212591935, 0.5003945733141206),
}
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

    def test_geometric_is_closed_form(self):
        # up to |z| = 0.9999, where a term-by-term sum would need over 2,000 terms
        z = np.linspace(-0.9999, 0.9999, 2001)
        assert np.array_equal(ml_one(0.0, z), 1.0 / (1.0 - z))
        assert ml_one(0.0, 0.95) == 1.0 / (1.0 - 0.95)

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
        # float64 summation would lose ~26 digits here; the point goes to exp
        assert float(ml_one(1.0, -30.0)) == pytest.approx(math.exp(-30.0), rel=1e-10)

    def test_half_is_erfcx(self):
        # E_{1/2}(-x) = exp(x^2) erfc(x)
        x = np.linspace(0.0, 30.0, 301)
        want = erfcx(x)
        got = np.asarray(ml_one(0.5, -x))
        assert got == pytest.approx(want, rel=1e-12)
        # each point takes the route its own argument picks, array or scalar
        assert np.array_equal(got, [ml_one(0.5, -xi) for xi in x])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [-1e160, -1e300])
    def test_half_is_erfcx_at_huge_argument(self, z):
        # the contour's gap^2 overflows to inf past |z| ~ 1e154, its right limit: silently, to the last bit
        assert ml_one(0.5, z) == erfcx(-z)

    def test_scalar_past_the_cut_is_fast(self):
        # a point past the cut costs one 27-node contour sum and no series loop
        ml_one(0.5, -20.0)
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            ml_one(0.5, -20.0)
            best = min(best, time.perf_counter() - start)
        assert best < 2e-3

    def test_exact_alpha_past_cancellation(self):
        # float64 gamma arguments gave 0.013770 and -180.5 here
        assert float(ml_one(0.8, -15.0)) == pytest.approx(ML_08_AT_M15, rel=1e-12)
        assert float(ml_one(0.8, -19.1)) == pytest.approx(ML_08_AT_M191, rel=1e-12)

    def test_array_matches_scalars(self):
        z = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        vec = np.asarray(ml_one(0.7, z))
        for zi, vi in zip(z, vec):
            assert vi == float(ml_one(0.7, float(zi)))

    def test_mixed_signs_are_summed_apart(self):
        # the z > 0 point's terms outgrow float64 and it takes the pole
        # residue; the z <= 0 point keeps its own float64 sum
        z = np.array([-1.0, 26.0])
        assert np.array_equal(ml_one(0.5, z), [ml_one(0.5, zi) for zi in z])

    def test_overflow_is_flagged_per_point(self):
        # E_0.5(26) overflows its float64 terms and takes the pole residue
        # 2 e^676; E_0.5(1) in the same array keeps its own sum
        got = ml_one(0.5, np.array([1.0, 26.0]))
        assert got[0] == pytest.approx(ML_HALF_AT_1, rel=1e-12)
        assert got[1] == pytest.approx(2.0 * math.exp(676.0), rel=1e-14)

    def test_exhaustion(self):
        # the terms of E_0.5(40) outgrow float64, and so does its residue 2 e^1600
        with pytest.raises(ConvergenceError):
            ml_one(0.5, 40.0)


class TestTermRatios:
    def test_sums_that_run_out_of_terms(self):
        # E_{0.05,1}(1.3) runs to _MAX_TERMS and takes the pole residue e^(z^20) / 0.05,
        # and E_{0.05,1}(1.4), whose residue overflows, raises
        assert ml_two(0.05, 1.0, 1.3) == math.exp(1.3**20) / 0.05
        with pytest.raises(ConvergenceError):
            ml_two(0.05, 1.0, 1.4)

    def test_concurrent_sums_match_sequential(self):
        # the series keeps no state between calls: four threads summing at once
        # get the bits of one after another
        cases = {
            (0.8, 1.0): np.linspace(-1.9, 20.0, 400),
            (0.5, 0.5): np.linspace(0.01, 9.0, 400),
            (1.5, 2.0): np.linspace(-30.0, 30.0, 400),
            (0.3, 1.3): np.linspace(0.01, 3.0, 400),
        }
        want = {key: ml_two(*key, z) for key, z in cases.items()}
        got = {}
        barrier = threading.Barrier(len(cases))

        def run(key):
            barrier.wait()
            got[key] = ml_two(*key, cases[key])

        threads = [threading.Thread(target=run, args=(key,)) for key in cases]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for key, value in want.items():
            assert value.tobytes() == got[key].tobytes()


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

    @pytest.mark.parametrize("alpha", sorted(ML_AT_CUT))
    def test_both_sides_of_the_cut(self, alpha):
        # the series is summed just inside the cut, the contour takes over
        # just past it; b < a is left out (near its zeros the series alone
        # carries about 7e-12)
        cut = -(specfun._CUT**alpha)
        z = np.array([0.999, 1.001]) * cut
        assert z[0] > cut >= z[1]
        for beta, want in zip((alpha, 1.0, 1.0 + alpha), ML_AT_CUT[alpha]):
            assert np.asarray(ml_two(alpha, beta, z)) == pytest.approx(want, rel=1e-12, abs=0)
            assert [ml_two(alpha, beta, zi) for zi in z] == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha, z", sorted(ML_SMALL_ALPHA))
    def test_small_alpha_takes_the_contour(self, alpha, z):
        for beta, want in zip((alpha, 1.0, 1.0 + alpha), ML_SMALL_ALPHA[alpha, z]):
            assert float(ml_two(alpha, beta, z)) == pytest.approx(want, rel=1e-12, abs=0)

    def test_exact_beta_off_contour(self):
        # b > 1 + a is outside the contour region: b is lowered by a until
        # the contour takes the point; a float64 series with float64 gamma
        # arguments gave 0.36139 and 4.7e26
        assert float(ml_two(0.3, 2.0, -3.0)) == pytest.approx(ML2_03_2_AT_M3, rel=1e-12)
        assert float(ml_two(0.3, 2.0, -4.0)) == pytest.approx(ML2_03_2_AT_M4, rel=1e-12)

    @pytest.mark.parametrize("alpha, beta, z", sorted(ML2_ABOVE_CONTOUR))
    def test_beta_above_contour_region(self, alpha, beta, z):
        # a float64 series sum is 1e-11 to 2e-10 off at the first four
        # points of ML2_ABOVE_CONTOUR; at the last four it cancels over 100
        # digits
        want = ML2_ABOVE_CONTOUR[alpha, beta, z]
        assert float(ml_two(alpha, beta, z)) == pytest.approx(want, rel=1e-13, abs=0)
        assert np.asarray(ml_two(alpha, beta, np.array([z, -0.5])))[0] == pytest.approx(want, rel=1e-13, abs=0)

    def test_cancelling_alpha_above_one_raises(self):
        # E_2(-1000) = cos(sqrt(1000)): its float64 series cancels 13 digits
        with pytest.raises(ConvergenceError):
            ml_one(2.0, -1000.0)

    def test_deep_lowering(self):
        # about 2,000 lowering steps, taken in a loop
        assert float(ml_two(0.001, 3.0, -2.0)) == pytest.approx(ML2_DEEP_AT_M2, rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha, beta, z", sorted(ML2_ABOVE_LOWERING_CUT))
    def test_large_beta_above_the_lowering_cut(self, alpha, beta, z):
        # lowering b at |z| < b^a lost 1e-11 here
        want = ML2_ABOVE_LOWERING_CUT[alpha, beta, z]
        assert float(ml_two(alpha, beta, z)) == pytest.approx(want, rel=1e-13, abs=0)

    def test_unconverged_sum_near_minus_one_raises(self):
        # at a = 0.001 the terms of E_{0.001,1.5}(-0.999) are still 0.04 after
        # 2,000 of them
        with pytest.raises(ConvergenceError):
            ml_two(0.001, 1.5, -0.999)

    def test_residue_past_float64_terms(self):
        # b > 1 + a at z > 0: the terms overflow, and the pole residue
        # (1/a) z^((1-b)/a) e^(z^(1/a)) is within eps of the function
        assert float(ml_two(0.5, 3.0, 25.0)) == pytest.approx(ML2_H3_AT_25, rel=1e-13, abs=0)

    def test_residue_is_refused_where_large_b_shows(self):
        # E_{0.02,20}(1.075) runs out of terms at z^(1/a) = 37, where the
        # algebraic -1/(z Gamma(b-a)) is 8e-6 of the pole residue
        with pytest.raises(ConvergenceError):
            ml_two(0.02, 20.0, 1.075)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.8, 1.0, 1.5])
    def test_array_is_per_element_scalar_calls(self, alpha):
        # each value depends on its own argument only, bit for bit.  The grid
        # crosses the contour, the lowering of b > 1 + a, the series at z <= 0
        # and z > 0, the pole residue (a = 0.5 at z = 26, a = 0.3 past z = 6)
        # and a > 1; z^(1/a) <= 680 keeps the values finite
        z = np.r_[np.linspace(-3.0, 8.0, 23), 26.0]
        z = z[z <= 680.0**alpha] if alpha <= 1.0 else z[z <= 8.0]
        checked = 0
        for beta in sorted({alpha, 1.0, 1.5, 1.0 + alpha, 3.0}):
            try:
                got = ml_two(alpha, beta, z)
                want = [ml_two(alpha, beta, zi) for zi in z]
            except ConvergenceError:
                continue
            assert got.tobytes() == np.array(want).tobytes(), (alpha, beta)
            checked += 1
        assert checked
        got = ml_one(alpha, z)
        assert got.tobytes() == np.array([ml_one(alpha, zi) for zi in z]).tobytes()

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
        # Gamma(beta), whose reciprocal starts the series, overflows
        for beta in (172.0, 1e-320):
            with pytest.raises(DomainError, match="Gamma"):
                ml_two(0.5, beta, -5.0)
        with pytest.raises(DomainError, match="Gamma"):
            kernel_deriv(DiscountSpec(1e-320, -1.0), 1.0)
        # the largest integer beta whose Gamma is a float keeps its value
        assert ml_two(0.5, 171.0, 1e3) == 8.164726071416845e-304


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

    @pytest.mark.parametrize("lam", [0.0, -0.5, -1.0, -7.25])
    def test_order_one_is_exp_bit_for_bit(self, lam):
        # E_1(z) is np.exp(z) at every z <= 0, across the series' old range (-2.3, 0] too
        spec = DiscountSpec(1.0, lam)
        t = np.linspace(0.0, 120.0, 24001)
        assert np.array_equal(kernel(spec, t), np.exp(lam * t))
        for ti in (0.0, 0.02, 0.37, 4.58, 120.0):
            assert kernel(spec, ti) == np.exp(lam * ti)

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
