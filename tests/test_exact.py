"""Exact values of lq1d and osc2d from the time-0 matrix Riccati equation.

With the discount kernel w(t) = E_a(lam t^a) as a time-varying weight, the
time-0 problem min int_0^T w(t) (x'Qx + u'Ru)/2 dt, dx = (Ax + Bu) dt, is a
linear-quadratic regulator with cost matrices wQ and wR.  Its value is
V(x0, 0) = x0' P(0) x0 / 2, where

    P' = P B R^-1 B' P / w - A'P - PA - wQ,    P(T) = 0.
"""

import numpy as np
import pytest

from mlhjb import DiscountSpec, cli, kernel, lqr_oracle

LAM = -0.5
ONE = np.ones((1, 1))
LQ1D = dict(A=np.zeros((1, 1)), B=ONE, Q=ONE, R=ONE, horizon=20.0, x0=np.ones(1))
OSC2D = dict(
    A=np.array([[0.0, 1.0], [-1.0, 0.0]]), B=np.array([[0.0], [1.0]]), Q=np.eye(2), R=ONE, horizon=5.0,
    x0=np.array([1.0, 0.0]),
)


def riccati_values(A, B, Q, R, horizon, x0, alphas, steps):
    """V(x0, 0) at each alpha in ``alphas``, lam = LAM, by classical RK4 backward from P(T) = 0.

    The weight is read on a uniform mesh of ``steps`` steps and their
    midpoints; the alphas are integrated side by side as one stack of P.
    """
    h = horizon / steps
    nodes = np.linspace(0.0, horizon, 2 * steps + 1)
    w = np.stack([kernel(DiscountSpec(a, LAM), nodes) for a in alphas], axis=1)[:, :, None, None]
    S_w = B @ np.linalg.solve(R, B.T) / w
    Q_w = w * Q

    def rhs(P, k):
        return (P @ S_w[k] - A.T) @ P - P @ A - Q_w[k]

    P = np.zeros((len(alphas),) + Q.shape)
    for k in range(2 * steps, 0, -2):
        k1 = rhs(P, k)
        k2 = rhs(P - 0.5 * h * k1, k - 1)
        k3 = rhs(P - 0.5 * h * k2, k - 1)
        k4 = rhs(P - h * k3, k - 2)
        P = P - h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return (P @ x0) @ x0 / 2.0


@pytest.fixture(scope="module")
def lq1d_values():
    """lq1d's exact value at alpha 1, 0.8 and 0.5 on 20,000 steps (dt = 0.001, the catalog's)."""
    return dict(zip((1.0, 0.8, 0.5), riccati_values(alphas=(1.0, 0.8, 0.5), steps=20_000, **LQ1D).tolist()))


class TestLq1d:
    def test_order_one_matches_lqr_oracle(self, lq1d_values):
        # at alpha = 1 the weight is exp(lam t), and T = 20 truncates the infinite horizon by about e^-41;
        # what is left is the rounding of 20,000 steps (2.2e-15 here)
        P, _ = lqr_oracle(0.0, 1.0, 1.0, 1.0, LAM)
        assert lq1d_values[1.0] == pytest.approx(P / 2.0, rel=1e-14, abs=0.0)

    def test_fractional_values_and_refinement(self, lq1d_values):
        # the kernel's t^a behaviour at t = 0 slows convergence: doubling the steps moves 7e-9 and 2.5e-7
        fine = riccati_values(alphas=(0.8, 0.5), steps=40_000, **LQ1D)
        assert fine[0] == pytest.approx(0.3813098, abs=1e-7)
        assert fine[1] == pytest.approx(0.3656509, abs=1e-7)
        assert abs(fine[0] - lq1d_values[0.8]) < 1e-8
        assert abs(fine[1] - lq1d_values[0.5]) < 3e-7

    @pytest.mark.parametrize("alpha", [1.0, 0.8, 0.5])
    def test_lqr_feedback_cost_at_or_above_exact_value(self, alpha, lq1d_values, capsys):
        # no feedback law does better than the optimum, up to the rollout's own discretisation
        assert cli.main(["cost", "--problem", "lq1d", "--feedback", "lqr", "--alpha", str(alpha)]) == 0
        cost = float(capsys.readouterr().out)
        assert cost >= lq1d_values[alpha] * (1.0 - 1e-6)


class TestOsc2d:
    def test_values_and_refinement(self):
        coarse = riccati_values(alphas=(1.0, 0.8), steps=2_000, **OSC2D)
        fine = riccati_values(alphas=(1.0, 0.8), steps=8_000, **OSC2D)
        assert coarse[0] == pytest.approx(fine[0], rel=1e-13, abs=0.0)
        assert fine[0] == pytest.approx(0.6026577, abs=1e-7)
        assert fine[1] == pytest.approx(0.6075651, abs=1e-7)
        assert abs(fine[1] - coarse[1]) < 1e-7
