"""Exact values of lq1d and osc2d from the time-0 matrix Riccati equation,
and of bounded1d at alpha = 1 from a threshold argument.

With the discount kernel w(t) = E_a(lam t^a) as a time-varying weight, the
time-0 problem min int_0^T w(t) (x'Qx + u'Ru)/2 dt, dx = (Ax + Bu) dt, is a
linear-quadratic regulator with cost matrices wQ and wR.  Its value is
V(x0, 0) = x0' P(0) x0 / 2, where

    P' = P B R^-1 B' P / w - A'P - PA - wQ,    P(T) = 0.
"""

import math

import numpy as np
import pytest

from mlhjb import DiscountSpec, SolverConfig, catalog, cli, evaluate_cost, kernel, lqr_oracle

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


class TestBounded1dExponential:
    """bounded1d at alpha = 1: L = x^2/2 + 0.1 |u|, dx = u dt, |u| <= 1, x0 = 1, T = 10, weight e^(-rho t), rho = 0.5.

    Resting at x from time t to T costs x^2/2 int_t^T e^(-rho s) ds, so one
    more unit of distance travelled now saves x e^(-rho t) (1 - e^(-rho (T-t))) / rho
    against the 0.1 e^(-rho t) it costs.  The threshold law moves at u = -1
    while x is above

        xbar(t) = 0.1 rho / (1 - e^(-rho (T - t)))

    and rests below it.  From x0 = 1 the path x = 1 - t meets xbar at
    t* = 0.94945248 (x = 0.05054752); xbar then rises towards T, so the
    path rests there, and

        V = int_0^t* e^(-rho s) ((1 - s)^2/2 + 0.1) ds + xbar(t*)^2/2 (e^(-rho t*) - e^(-rho T)) / rho
          = 0.22490251893795805

    (t* by root finding and V by quadrature in mpmath at 30 digits).  This is
    a consistency check of the rollout and of the solver against that value,
    not a proof that the threshold law is optimal.
    """

    RHO, HORIZON = 0.5, 10.0
    T_STAR = 0.949452481985347275848736965466
    V = 0.22490251893795805

    def law(self, x, t):
        # move while x (1 - e^(-rho (T - t))) > 0.1 rho, written so that t = T divides by nothing
        return -1.0 if -x[0] * math.expm1(-self.RHO * (self.HORIZON - t)) > 0.1 * self.RHO else 0.0

    def test_threshold_meets_path(self):
        xbar = 0.1 * self.RHO / -math.expm1(-self.RHO * (self.HORIZON - self.T_STAR))
        assert xbar == pytest.approx(1.0 - self.T_STAR, rel=1e-13)

    def test_threshold_law_rollout_converges_to_value(self):
        prob = catalog.get("bounded1d").problem
        spec = DiscountSpec(1.0, -self.RHO)
        costs = [
            evaluate_cost(prob, spec, self.law, (1.0,), SolverConfig(dt=dt, horizon=self.HORIZON, nx=129))
            for dt in (0.01, 0.005, 0.001)
        ]
        errors = [abs(cost / self.V - 1.0) for cost in costs]
        # 5.5e-4, 2.6e-4 and 5.0e-7: the switch time t* falls between steps
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 1e-6

    def test_catalog_solve_replay_at_or_above_value(self, capsys, tmp_path):
        # the replay of the catalog-default solve's policy reads 0.225357
        assert cli.main(["solve", "--problem", "bounded1d", "--alpha", "1", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        policy = str(tmp_path / "policy.csv")
        assert cli.main(["cost", "--problem", "bounded1d", "--alpha", "1", "--policy", policy]) == 0
        assert float(capsys.readouterr().out) >= self.V
