"""Grid solvers against Riccati, bound, scaling, and self-convergence oracles."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import erfcx

from mlhjb import (
    ConfigError,
    ControlProblem,
    DiscountSpec,
    DivergenceError,
    DomainError,
    FracOrder,
    Policy,
    SolverConfig,
    StateEscapeError,
    amplitude,
    catalog,
    evaluate_cost,
    kernel,
    lqr_oracle,
    rl_window_deriv,
    solve_classical,
    solve_fractional,
)
from mlhjb import hjb

LQ = catalog.get("lq1d").problem
COARSE = SolverConfig(dt=0.01, horizon=5.0, nx=65)


def _lq_scaled(c: float) -> ControlProblem:
    return ControlProblem(
        dynamics=lambda x, u: u,
        running_cost=lambda x, u: c * 0.5 * (x[..., 0] ** 2 + u[..., 0] ** 2),
        control_grid=np.linspace(-2.5, 2.5, 101)[:, None],
        state_box=[(-2.0, 2.0)],
    )


class TestProblemTypes:
    def test_control_problem_validation(self):
        for controls, box in [
            ([[0.0]], [(-1, 1)] * 3),  # three state dimensions
            ([], [(-1, 1)]),
            ([[0.0]], [(1, -1)]),
            ([[0.0]], [(-1, 1, 0)]),  # odd number of ends
            ([[0.0]], [(-math.inf, 1)]),
            ([[0.0]], [(-1, 1), (0, math.nan)]),
            ([[0.0]], [(-1, 1), (0,)]),  # ragged
            ([[0.0]], []),
            ([-1.0, 0.0, 1.0], [(-1, 1)]),  # 1-D grid: three controls, or one 3-D control?
            ([[0.0], [0.0, 1.0]], [(-1, 1)]),  # ragged grid
            ([[math.nan]], [(-1, 1)]),
            ([[0.0], [math.inf]], [(-1, 1)]),
            (np.empty((3, 0)), [(-1, 1)]),  # zero control dimensions
            ([[0.0]], [(-1, 1, -1, 1)]),  # flat box
            ([[0.0]], [-1, 1]),  # bare pair
            ([[0.0]], [[(-1, 1)]]),  # nested one level too deep
        ]:
            with pytest.raises(DomainError):
                ControlProblem(lambda x, u: u, lambda x, u: 0.0, controls, box)
        with pytest.raises(DomainError):
            ControlProblem(lambda x, u: u, lambda x, u: 0.0, [[0.0]], [(-1, 1)], boundary="wrap")
        with pytest.raises(TypeError):  # the state dimension is the box's, not declared
            ControlProblem(lambda x, u: u, lambda x, u: 0.0, [[0.0]], [(-1, 1)], dim_x=1)

    def test_solver_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(dt=0.0, horizon=1.0, nx=65)
        with pytest.raises(DomainError):
            SolverConfig(dt=0.3, horizon=1.0, nx=65)  # not an integer step count
        with pytest.raises(DomainError):
            SolverConfig(dt=0.1, horizon=1.0, nx=7)
        with pytest.raises(DomainError):
            SolverConfig(dt=0.1, horizon=1.0, nx=65, window=0)
        with pytest.raises(DomainError):
            SolverConfig(dt=0.1, horizon=math.inf, nx=65)
        with pytest.raises(DomainError, match="at least one dt step"):
            SolverConfig(dt=1.0, horizon=1e-10, nx=9)  # rounds to zero steps
        assert SolverConfig(dt=0.1, horizon=1.0, nx=65).steps == 10
        assert SolverConfig(dt=1.0, horizon=1.0, nx=9).steps == 1
        # numpy caps an array at sys.maxsize bytes, so sys.maxsize // 8 float64 values
        limit = sys.maxsize // 8
        for horizon, dt in ((2e18, 1.0), (1e300, 1.0), (1e300, 1e-300)):
            with pytest.raises(DomainError, match="dt steps"):
                SolverConfig(dt=dt, horizon=horizon, nx=9)
        with pytest.raises(DomainError, match="nx must be below"):
            SolverConfig(dt=1.0, horizon=1.0, nx=limit)
        assert SolverConfig(dt=1.0, horizon=1e18, nx=limit - 1).steps == 10**18

    def test_solver_config_integers(self):
        # any integer but a bool counts, stored as a Python int; True is not 1 in any field
        cfg = SolverConfig(dt=0.1, horizon=1.0, nx=np.int64(65), window=np.int64(8))
        assert (cfg.nx, cfg.window) == (65, 8) and type(cfg.nx) is type(cfg.window) is int
        good = dict(dt=0.1, horizon=1.0, nx=65, window=8)
        for field in good:
            with pytest.raises(DomainError, match=f"^{field} must be"):
                SolverConfig(**{**good, field: True})
        with pytest.raises(DomainError, match="nx must be an integer >= 8, got np.int64"):
            SolverConfig(dt=0.1, horizon=1.0, nx=np.int64(7))

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
    def test_step_weights(self, alpha):
        # every step takes the one-step kernel as its discount and dt as its running-cost weight
        for lam in (-4.0, -0.5, 0.0):
            spec = DiscountSpec(alpha, lam)
            d, c = hjb.step_weights(spec, 0.05, 7)
            assert d.shape == c.shape == (7,)
            assert np.all(d == float(kernel(spec, 0.05))) and np.all(c == 0.05)
            if alpha == 1.0:
                assert np.all(d == np.exp(lam * 0.05))

    @pytest.mark.parametrize("alpha, lam, dt", [(1.0, -200.0, 0.01), (0.5, -4.0, 0.25), (0.8, -0.5, 0.01)])
    def test_static_march_matches_its_closed_form(self, alpha, lam, dt):
        # L = 1 and no motion: V(x, 0) = dt (1 - d^n) / (1 - d) with d = kernel(spec, dt), at any dt;
        # d <= 1 for lam <= 0 (E_a(-x) is completely monotone), so no step size is out of range
        spec = DiscountSpec(alpha, lam)
        cfg = SolverConfig(dt=dt, horizon=40.0, nx=9)
        d = float(kernel(spec, dt))
        if alpha == 0.5:
            assert d == pytest.approx(erfcx(-lam * dt**0.5), rel=1e-14)
        fld, _ = solve_fractional(catalog.get("static1d").problem, spec, cfg, slices=[0])
        assert np.allclose(fld.values[0], dt * (1.0 - d**cfg.steps) / (1.0 - d), rtol=1e-12, atol=0.0)

    def test_growth_fails_on_numbers_only(self):
        # lam > 0: a short horizon solves without a warning, a long one passes the divergence limit
        static = catalog.get("static1d").problem
        fld, _ = solve_classical(static, DiscountSpec(1.0, 200.0), SolverConfig(dt=0.01, horizon=0.05, nx=9))
        assert fld.values[0] == pytest.approx(0.01 * math.expm1(10.0) / math.expm1(2.0), rel=1e-12)
        with pytest.raises(DivergenceError):
            solve_fractional(static, DiscountSpec(0.8, 5.0), SolverConfig(dt=0.01, horizon=40.0, nx=9))


class TestCatalog:
    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown problem 'nope'; choose from lq1d, bounded1d"):
            catalog.get("nope")

    @pytest.mark.parametrize("name", catalog.PROBLEM_NAMES)
    def test_each_call_builds_a_new_problem(self, name):
        first, second = catalog.get(name), catalog.get(name)
        assert first.name == name
        assert first.problem is not second.problem
        assert not np.shares_memory(first.problem.controls, second.problem.controls)
        assert first.problem.dim_x == len(first.x0) == first.problem.box.shape[0]


class TestSolveClassical:
    def test_zero_cost(self):
        prob = catalog.get("zero1d").problem
        fld, _ = solve_classical(prob, DiscountSpec(1.0, -0.5), SolverConfig(dt=0.01, horizon=1.0, nx=9))
        assert np.all(fld.values == 0.0)

    def test_requires_alpha_one(self):
        with pytest.raises(DomainError):
            solve_classical(LQ, DiscountSpec(0.8, -0.5), COARSE)

    def test_lqr_interior(self):
        cfg = SolverConfig(dt=0.005, horizon=10.0, nx=129)
        fld, _ = solve_classical(LQ, DiscountSpec(1.0, -0.5), cfg)
        P, _ = lqr_oracle(0.0, 1.0, 1.0, 1.0, -0.5)
        x = fld.axes[0]
        mask = np.abs(x) <= 1.0
        exact = 0.5 * P * x[mask] ** 2
        assert np.allclose(fld.values[0][mask], exact, rtol=0.02, atol=0.01)

    def test_strong_discount_bound(self):
        # V <= max L * dt / (1 - e^(lam dt)) for the geometric tail
        lam = -10.0
        cfg = SolverConfig(dt=0.01, horizon=2.0, nx=65)
        fld, _ = solve_classical(LQ, DiscountSpec(1.0, lam), cfg)
        lmax = 0.5 * (2.0**2 + 2.5**2)
        bound = lmax * cfg.dt / (1.0 - math.exp(lam * cfg.dt))
        assert fld.values.max() <= bound * (1.0 + 1e-12)

    def test_nonnegative_at_zero_rate(self):
        fld, _ = solve_classical(LQ, DiscountSpec(1.0, 0.0), COARSE)
        assert fld.values.min() >= 0.0

    def test_divergence_detected(self):
        prob = catalog.get("static1d").problem
        with pytest.raises(DivergenceError):
            solve_classical(prob, DiscountSpec(1.0, 5.0), SolverConfig(dt=0.01, horizon=20.0, nx=9))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_running_cost_detected(self, bad):
        # a NaN fails every comparison, so the check must not read it as "not above the limit"
        prob = ControlProblem(
            lambda x, u: np.zeros_like(x), lambda x, u: np.full(x.shape[:-1], bad), [[0.0]], [(-1, 1)]
        )
        with pytest.raises(DivergenceError, match="value field diverged at t = 0.99"):
            solve_classical(prob, DiscountSpec(1.0, -0.5), SolverConfig(dt=0.01, horizon=1.0, nx=9))


class TestSolveFractional:
    def test_alpha_one_routes_to_classical(self):
        fld_c, pol_c = solve_classical(LQ, DiscountSpec(1.0, -0.5), COARSE)
        fld_f, pol_f = solve_fractional(LQ, DiscountSpec(1.0, -0.5), COARSE)
        assert np.array_equal(fld_f.values, fld_c.values)
        assert np.array_equal(pol_f.controls, pol_c.controls)

    def test_tie_breaks_low_index(self):
        # every control costs the same and moves nothing: the argmin ties everywhere
        prob = ControlProblem(
            lambda x, u: np.zeros_like(x),
            lambda x, u: np.ones(x.shape[:-1]),
            [[-1.0], [0.0], [1.0]],
            [(-1, 1)],
        )
        cfg = SolverConfig(dt=0.01, horizon=1.0, nx=9)
        _, pol_c = solve_classical(prob, DiscountSpec(1.0, -0.5), cfg)
        _, pol_f = solve_fractional(prob, DiscountSpec(0.7, -0.5), cfg)
        assert np.unique(pol_c.controls).tolist() == [0]
        assert np.unique(pol_f.controls).tolist() == [0]

    def test_zero_cost_any_alpha(self):
        prob = catalog.get("zero1d").problem
        fld, _ = solve_fractional(prob, DiscountSpec(0.7, -0.5), SolverConfig(dt=0.01, horizon=1.0, nx=9))
        assert np.all(fld.values == 0.0)

    def test_kernel_ordering_then_field_ordering(self):
        # per-step discount comparison fixes the direction of the value ordering
        spec = DiscountSpec(0.8, -0.5)
        disc_frac = float(kernel(spec, COARSE.dt))
        disc_classical = math.exp(spec.lam * COARSE.dt)
        assert disc_frac < disc_classical  # heavier small-dt discounting for alpha < 1
        fld_f, _ = solve_fractional(LQ, spec, COARSE)
        fld_c, _ = solve_classical(LQ, DiscountSpec(1.0, spec.lam), COARSE)
        assert np.all(fld_f.values <= fld_c.values + 1e-12)

    def test_residual_field_shape_and_warmup(self):
        fld, _ = solve_fractional(LQ, DiscountSpec(0.8, -0.5), COARSE)
        assert fld.residual.shape == fld.values.shape
        assert np.all(np.isnan(fld.residual[: COARSE.window]))
        assert np.all(np.isfinite(fld.residual[COARSE.window : COARSE.steps]))

    def test_residual_self_convergence(self):
        # window sized so the leading L1 truncation term cancels: alpha/(1-alpha) steps
        def worst_residual(dt, nx):
            cfg = SolverConfig(dt=dt, horizon=2.0, nx=nx, window=4)
            fld, _ = solve_fractional(LQ, DiscountSpec(0.8, -0.5), cfg)
            nt = cfg.steps
            rows = fld.residual[max(4, nt // 4) : 3 * nt // 4]
            return np.abs(rows[:, 2:-2]).max()

        r_coarse = worst_residual(0.02, 65)
        r_fine = worst_residual(0.01, 129)
        assert r_coarse / r_fine >= 1.5

    @pytest.mark.parametrize("dt", [0.02, 0.005])
    def test_order_one_residual_closed_form(self, dt):
        # static1d at alpha = 1: min H = 1, no spatial error and D^0 V = V.  With x = -lam dt and
        # V_r >= dt, res_r = -lam dt (1 + lam V_r / 2) + x^2/2 - (V_r/dt - 1)(e^x - 1 - x - x^2/2),
        # so the remainder is at most x^2/2, reached at V_r = dt; V_t rounds to about eps |V| / dt
        lam = -0.5
        cfg = SolverConfig(dt=dt, horizon=4.0, nx=9, window=8)
        fld, _ = solve_fractional(catalog.get("static1d").problem, DiscountSpec(1.0, lam), cfg)
        rows = slice(cfg.window, cfg.steps)
        rem = fld.residual[rows] - (-lam * dt * (1.0 + lam * fld.values[rows] / 2.0))
        assert np.all(np.abs(rem) <= lam**2 * dt**2 / 2.0 + 1e-12)

    @pytest.mark.parametrize("alpha", [5e-17, 2.0**-54, 1e-300])
    def test_alpha_floor(self, alpha):
        # 1 - alpha rounds to 1, which no derivative order may be: the error names alpha
        with pytest.raises(DomainError, match="alpha must exceed 2\\^-54"):
            solve_fractional(LQ, DiscountSpec(alpha, -0.5), SolverConfig(dt=0.01, horizon=0.1, nx=9, window=100))
        fld, _ = solve_fractional(LQ, DiscountSpec(1.1e-16, -0.5), SolverConfig(dt=0.01, horizon=0.1, nx=9))
        assert np.all(np.isfinite(fld.values))


class TestTimeInvariance:
    CFG = SolverConfig(dt=0.02, horizon=0.5, nx=17, window=10)

    @pytest.mark.parametrize("residual", [True, False])
    def test_dynamics_calls(self, residual):
        # one (grid, controls) batch serves the march step and the residual pass
        calls = []

        def dynamics(x, u):
            calls.append(x.shape)
            return u

        prob = dataclasses.replace(LQ, dynamics=dynamics)
        if residual:
            solve_fractional(prob, DiscountSpec(0.8, -0.5), self.CFG)
        else:
            solve_classical(prob, DiscountSpec(1.0, -0.5), self.CFG)
        assert len(calls) == 1

    def test_time_dependent_callables_fail_loudly(self):
        # f(x, u, t) is not a problem's signature: it raises instead of being evaluated at t = 0
        prob = dataclasses.replace(LQ, dynamics=lambda x, u, t: u)
        with pytest.raises(TypeError):
            solve_fractional(prob, DiscountSpec(0.8, -0.5), self.CFG)
        with pytest.raises(TypeError):
            evaluate_cost(prob, DiscountSpec(0.8, -0.5), _LAWS[1], np.array([1.0]), self.CFG)
        prob = dataclasses.replace(LQ, running_cost=lambda x, u, t: x[..., 0] ** 2)
        with pytest.raises(TypeError):
            solve_classical(prob, DiscountSpec(1.0, -0.5), self.CFG)
        with pytest.raises(TypeError):
            evaluate_cost(prob, DiscountSpec(0.8, -0.5), _LAWS[1], np.array([1.0]), self.CFG)


def _unstreamed(prob, spec, cfg):
    """Every value slice, policy slice and residual row, marched without a ring."""
    nt, dt = cfg.steps, cfg.dt
    axes = tuple(np.linspace(lo, hi, cfg.nx) for lo, hi in prob.box)
    states = hjb._grid_states(axes)
    shape = states.shape[:-1]
    discs, weights = hjb.step_weights(spec, dt, nt)
    values = np.zeros((nt + 1,) + shape)
    policy = np.zeros((nt,) + shape, dtype=np.int32)
    L, F = hjb._batched_LF(prob, states)
    stencil = hjb._stencil(axes, states[..., None, :] + F * dt, prob.boundary)
    cand, tmp = np.empty(L.shape), np.empty(L.shape)
    for i in range(nt - 1, -1, -1):
        hjb._apply_stencil(stencil, values[i + 1], cand, tmp)
        cand = L * weights[i] + discs[i] * cand
        policy[i] = np.argmin(cand, axis=-1)
        values[i] = np.take_along_axis(cand, policy[i][..., None].astype(np.intp), axis=-1)[..., 0]
    res = np.full_like(values, np.nan)
    amp, order = amplitude(spec.alpha), FracOrder(1.0 - spec.alpha)
    for i in range(cfg.window, nt):
        frac = rl_window_deriv(values[i - cfg.window : i + 1], dt, order)
        grads = np.gradient(values[i], *axes) if len(axes) > 1 else [np.gradient(values[i], axes[0])]
        h = L.copy()
        for d in range(prob.dim_x):
            h += grads[d][..., None] * F[..., d]
        res[i] = -spec.lam * amp * frac - (values[i + 1] - values[i]) / dt - h.min(axis=-1)
    return values, policy, res


class TestStreaming:
    CFG = SolverConfig(dt=0.02, horizon=0.5, nx=17, window=10)

    @pytest.mark.parametrize("alpha", [0.8, 1.0])
    @pytest.mark.parametrize("name", ["lq1d", "bounded1d", "osc2d"])
    def test_subset_equals_full(self, name, alpha):
        # bounded1d extrapolates at the boundary, osc2d runs the 2-D stencil
        prob = catalog.get(name).problem
        cfg = dataclasses.replace(self.CFG, nx=9) if prob.dim_x == 2 else self.CFG
        spec = DiscountSpec(alpha, -0.5)
        nt = cfg.steps
        fld, pol = solve_fractional(prob, spec, cfg)
        values, policy, res = _unstreamed(prob, spec, cfg)
        assert np.array_equal(fld.times, np.arange(nt + 1) * cfg.dt)
        assert np.array_equal(pol.times, fld.times[:nt])
        assert np.array_equal(fld.values, values)
        assert np.array_equal(pol.controls, policy)
        assert np.array_equal(fld.residual, res, equal_nan=True)
        # a warm-up row, residual rows, and the last policy and value rows
        idx = [3, cfg.window, 17, nt - 1, nt]
        sub, sub_pol = solve_fractional(prob, spec, cfg, slices=idx)
        assert np.array_equal(sub.times, fld.times[idx])
        assert np.array_equal(sub.values, fld.values[idx])
        assert np.array_equal(sub.residual, fld.residual[idx], equal_nan=True)
        assert np.isnan(sub.residual[[0, -1]]).all() and np.isfinite(sub.residual[1:-1]).all()
        assert np.array_equal(sub_pol.times, fld.times[idx[:-1]])
        assert np.array_equal(sub_pol.controls, pol.controls[idx[:-1]])
        # without step nt - 1 kept, the terminal step brings its decision
        idx = [0, cfg.window, nt]
        sub, sub_pol = solve_fractional(prob, spec, cfg, slices=idx)
        assert np.array_equal(sub.values, fld.values[idx])
        assert np.array_equal(sub.residual, fld.residual[idx], equal_nan=True)
        assert np.array_equal(sub_pol.times, fld.times[[0, cfg.window, nt - 1]])
        assert np.array_equal(sub_pol.controls, pol.controls[[0, cfg.window, nt - 1]])

    @pytest.mark.parametrize("window", [1, 24, 25])
    @pytest.mark.parametrize("name", ["lq1d", "osc2d"])
    def test_ring_edge_windows_equal_unstreamed(self, name, window):
        # of CFG's 25 steps: window 1 gives the shortest ring, 24 the longest that still has a
        # residual row (the ring spans the horizon), and at 25 the ring falls back to 2 slices
        prob = catalog.get(name).problem
        cfg = dataclasses.replace(self.CFG, nx=9 if prob.dim_x == 2 else self.CFG.nx, window=window)
        assert cfg.steps == 25
        spec = DiscountSpec(0.8, -0.5)
        fld, pol = solve_fractional(prob, spec, cfg)
        values, policy, res = _unstreamed(prob, spec, cfg)
        assert np.array_equal(fld.values, values)
        assert np.array_equal(pol.controls, policy)
        assert np.array_equal(fld.residual, res, equal_nan=True)
        assert np.isnan(res[:window]).all() and np.isnan(res[-1]).all() and np.isfinite(res[window:-1]).all()

    @pytest.mark.parametrize("slices", [[], [3, 2], [2, 2], [-1, 3], [25, 26]])
    def test_bad_slices(self, slices):
        with pytest.raises(DomainError, match="slices must"):
            solve_fractional(LQ, DiscountSpec(0.8, -0.5), self.CFG, slices=slices)

    def test_memory_does_not_grow_with_horizon(self):
        def peak(horizon, keep):
            cfg = SolverConfig(dt=0.005, horizon=horizon, nx=257, window=64)
            nt = cfg.steps
            tracemalloc.start()
            try:
                solve_fractional(LQ, DiscountSpec(0.8, -0.5), cfg, slices=[0, nt // 2, nt] if keep else None)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        kept = [peak(h, True) for h in (1.0, 4.0)]
        full = [peak(h, False) for h in (1.0, 4.0)]
        # 600 more steps: a field of 257 nodes each is 1.2 MB more per array
        assert abs(kept[1] - kept[0]) < 0.5e6
        assert full[1] - full[0] > 2 * 600 * 257 * 8


class TestScalingAndConsistency:
    def test_cost_scaling_scales_value(self):
        spec = DiscountSpec(1.0, -0.5)
        f1, p1 = solve_classical(_lq_scaled(1.0), spec, COARSE)
        f2, p2 = solve_classical(_lq_scaled(2.0), spec, COARSE)
        assert np.array_equal(p1.controls, p2.controls)
        assert np.allclose(f2.values, 2.0 * f1.values, rtol=1e-12, atol=1e-12)

    def test_one_step_bellman_residual(self):
        # recompute the update at cell centers; interior residual is O(dt^2)-small
        spec = DiscountSpec(0.8, -0.5)
        cfg = SolverConfig(dt=0.01, horizon=2.0, nx=129)
        fld, _ = solve_fractional(LQ, spec, cfg)
        x = fld.axes[0]
        xc = 0.5 * (x[:-1] + x[1:])
        u = LQ.controls[:, 0]
        discs, weights = hjb.step_weights(spec, cfg.dt, cfg.steps)
        i = cfg.steps // 2
        feet = xc[:, None] + u[None, :] * cfg.dt
        cand = 0.5 * (xc[:, None] ** 2 + u[None, :] ** 2) * weights[i] + discs[i] * np.interp(feet, x, fld.values[i + 1])
        rhs = cand.min(axis=1)
        lhs = np.interp(xc, x, fld.values[i])
        assert np.abs(lhs - rhs).max() <= 5.0 * cfg.dt**2


class TestEvaluateCost:
    def test_zero_cost(self):
        entry = catalog.get("zero1d")
        cfg = SolverConfig(dt=0.01, horizon=1.0, nx=9)
        j = evaluate_cost(entry.problem, DiscountSpec(1.0, -0.5), lambda x, t: np.array([0.0]), np.array([0.0]), cfg)
        assert j == 0.0

    def test_constant_cost_integral(self):
        # frozen state, L = 1: J = int_0^T e^(lam t) dt -> -1/lam
        entry = catalog.get("static1d")
        cfg = SolverConfig(dt=0.0025, horizon=40.0, nx=9)
        j = evaluate_cost(entry.problem, DiscountSpec(1.0, -1.0), lambda x, t: np.array([0.0]), np.array([0.0]), cfg)
        assert j == pytest.approx(1.0, abs=1e-5)

    def test_half_order_cost_is_erfcx_trapezoid(self):
        # frozen state, L = 1, a = 1/2, lam = -1: the weights are
        # E_{1/2}(-sqrt(t)) = erfcx(sqrt(t)), so J is their trapezoid sum
        entry = catalog.get("static1d")
        cfg = SolverConfig(dt=entry.dt, horizon=entry.horizon, nx=entry.nx)
        j = evaluate_cost(entry.problem, DiscountSpec(0.5, -1.0), lambda x, t: np.array([0.0]), np.array([0.0]), cfg)
        y = erfcx(np.sqrt(np.arange(cfg.steps + 1) * cfg.dt))
        assert j == pytest.approx(cfg.dt * (0.5 * y[0] + y[1:-1].sum() + 0.5 * y[-1]), rel=1e-12)

    def test_lqr_feedback_cost(self):
        P, k = lqr_oracle(0.0, 1.0, 1.0, 1.0, -0.5)
        cfg = SolverConfig(dt=0.005, horizon=20.0, nx=65)
        j = evaluate_cost(LQ, DiscountSpec(1.0, -0.5), lambda x, t: np.array([k * x[0]]), np.array([1.0]), cfg)
        assert j == pytest.approx(0.5 * P, rel=2e-3)

    def test_escape(self):
        cfg = SolverConfig(dt=0.01, horizon=5.0, nx=65)
        with pytest.raises(StateEscapeError):
            evaluate_cost(LQ, DiscountSpec(1.0, -0.5), lambda x, t: np.array([2.5]), np.array([1.0]), cfg)

    def test_nan_state_escapes(self):
        cfg = SolverConfig(dt=0.01, horizon=5.0, nx=65)
        with pytest.raises(StateEscapeError, match="at t = 0.01$"):
            evaluate_cost(LQ, DiscountSpec(1.0, -0.5), lambda x, t: np.array([np.nan]), np.array([1.0]), cfg)

    def test_x0_outside_box(self):
        with pytest.raises(DomainError):
            evaluate_cost(LQ, DiscountSpec(1.0, -0.5), lambda x, t: np.array([0.0]), np.array([3.0]), COARSE)

    def test_x0_component_count(self):
        with pytest.raises(DomainError, match=r"x0 must have one component per state dimension \(1\), got 2"):
            evaluate_cost(LQ, DiscountSpec(1.0, -0.5), lambda x, t: np.array([0.0]), np.array([0.0, 0.0]), COARSE)

    @pytest.mark.parametrize("x0", [[math.nan], [-math.inf]], ids=["nan", "-inf"])
    def test_non_finite_x0_is_outside_box(self, x0):
        # NaN fails every comparison, so it must not pass as "not below lo, not above hi"
        with pytest.raises(DomainError, match=r"x0 \[(nan|-inf)\] lies outside the state box"):
            evaluate_cost(LQ, DiscountSpec(1.0, -0.5), lambda x, t: np.array([0.0]), np.array(x0), COARSE)

    def test_policy_rollout_and_perturbations(self):
        spec = DiscountSpec(1.0, -0.5)
        cfg = SolverConfig(dt=0.005, horizon=10.0, nx=129)
        fld, pol = solve_classical(LQ, spec, cfg)
        x0 = np.array([1.0])
        j_solved = evaluate_cost(LQ, spec, pol, x0, cfg)
        assert j_solved >= fld.at(x0) - 0.02
        rng = np.random.default_rng(20250814)
        nt = pol.controls.shape[0]
        for _ in range(10):
            perturbed = pol.controls.copy()
            start = rng.integers(0, nt - nt // 10)
            shift = rng.choice([-5, 5])
            block = perturbed[start : start + nt // 10]
            perturbed[start : start + nt // 10] = np.clip(block + shift, 0, len(LQ.controls) - 1)
            j_pert = evaluate_cost(LQ, spec, dataclasses.replace(pol, controls=perturbed), x0, cfg)
            assert j_pert >= j_solved - 1e-3

    def test_policy_rollout_ignores_config_grid(self):
        # the policy is looked up on its own grid, whatever nx and dt the rollout uses
        spec = DiscountSpec(1.0, -0.5)
        _, pol = solve_classical(LQ, spec, SolverConfig(dt=0.01, horizon=2.0, nx=33))
        x0 = np.array([1.0])
        costs = {
            (dt, nx): evaluate_cost(LQ, spec, pol, x0, SolverConfig(dt=dt, horizon=2.0, nx=nx))
            for dt in (0.01, 0.005)
            for nx in (17, 33, 65)
        }
        for dt in (0.01, 0.005):
            assert costs[(dt, 17)] == costs[(dt, 33)] == costs[(dt, 65)]
        assert costs[(0.005, 33)] == pytest.approx(costs[(0.01, 33)], rel=1e-2)


def _reference_rollout(prob, spec, law, x0, cfg):
    """The array-valued RK4 rollout: five law calls per step, one running cost per step."""
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if isinstance(law, Policy):
        law = law.control
    nt, dt = cfg.steps, cfg.dt
    times = np.arange(nt + 1) * dt
    weights = kernel(spec, times)
    box = prob.box
    center, half = 0.5 * (box[:, 0] + box[:, 1]), 0.5 * (box[:, 1] - box[:, 0])
    bounds = np.stack([center - 1.5 * half, center + 1.5 * half], axis=1)

    def f_at(xq, t):
        u = np.atleast_1d(np.asarray(law(xq, t), dtype=float))
        return np.atleast_1d(np.asarray(prob.dynamics(xq, u), dtype=float))

    run = np.empty(nt + 1)
    u = np.atleast_1d(np.asarray(law(x, 0.0), dtype=float))
    run[0] = float(np.asarray(prob.running_cost(x, u)))
    for i in range(nt):
        t = times[i]
        k1 = f_at(x, t)
        k2 = f_at(x + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = f_at(x + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = f_at(x + dt * k3, t + dt)
        x = x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if np.any(x < bounds[:, 0]) or np.any(x > bounds[:, 1]):
            raise StateEscapeError(f"trajectory escaped the inflated state box at t = {times[i + 1]:g}")
        u = np.atleast_1d(np.asarray(law(x, times[i + 1]), dtype=float))
        run[i + 1] = float(np.asarray(prob.running_cost(x, u)))
    y = weights * run
    return float(dt * (0.5 * y[0] + y[1:-1].sum() + 0.5 * y[-1]))


# a time-varying saturated feedback on the first state component, and on both for osc2d
_LAWS = {
    1: lambda x, t: np.clip(np.array([-0.9 * x[0] + 0.2 * math.sin(3.0 * t)]), -1.0, 1.0),
    2: lambda x, t: np.clip(np.array([-0.6 * x[0] - 0.8 * x[1] + 0.1 * t]), -1.0, 1.0),
}


def _random_policy(prob, rng, horizon):
    times = np.linspace(0.0, horizon, 7)
    axes = tuple(np.linspace(lo, hi, 9) for lo, hi in prob.box)
    controls = rng.integers(0, len(prob.controls), size=(len(times),) + (9,) * prob.dim_x)
    return Policy(controls=controls, control_grid=prob.controls, times=times, axes=axes)


class TestRollout:
    CFG = SolverConfig(dt=0.01, horizon=2.0, nx=9)

    @pytest.mark.parametrize("alpha", [0.8, 1.0])
    @pytest.mark.parametrize("kind", ["callable", "policy"])
    @pytest.mark.parametrize("name", ["lq1d", "bounded1d", "osc2d", "static1d"])
    def test_equals_array_rollout(self, name, kind, alpha):
        entry = catalog.get(name)
        prob = entry.problem
        if kind == "policy":
            law = _random_policy(prob, np.random.default_rng(7), self.CFG.horizon)
        else:
            law = _LAWS[prob.dim_x]
        spec = DiscountSpec(alpha, -0.5)
        x0 = np.array([0.6, -0.4][: prob.dim_x])
        assert evaluate_cost(prob, spec, law, x0, self.CFG) == _reference_rollout(prob, spec, law, x0, self.CFG)

    def test_declared_problem_costs_the_trajectory_once(self):
        calls = []

        def cost(x, u):
            calls.append(x.shape)
            return 0.5 * (x[..., 0] ** 2 + u[..., 0] ** 2)

        prob = dataclasses.replace(LQ, running_cost=cost)
        evaluate_cost(prob, DiscountSpec(0.8, -0.5), _LAWS[1], np.array([1.0]), self.CFG)
        assert calls == [(self.CFG.steps + 1, 1)]

    def test_law_called_once_per_stage(self):
        calls = []

        def law(x, t):
            calls.append(t)
            return np.array([-x[0]])

        evaluate_cost(LQ, DiscountSpec(0.8, -0.5), law, np.array([1.0]), self.CFG)
        assert len(calls) == 4 * self.CFG.steps + 1

    def test_escape_time_matches_array_rollout(self):
        spec = DiscountSpec(1.0, -0.5)
        law = lambda x, t: np.array([2.5])
        with pytest.raises(StateEscapeError) as want:
            _reference_rollout(LQ, spec, law, np.array([1.0]), self.CFG)
        with pytest.raises(StateEscapeError) as got:
            evaluate_cost(LQ, spec, law, np.array([1.0]), self.CFG)
        assert str(got.value) == str(want.value)
        # x = 1 + 2.5 t first passes the inflated bound 3 after t = 0.8
        assert str(got.value).endswith("at t = 0.81")


class TestPolicy:
    GRID = np.array([[-1.0], [0.0], [1.0]])

    def _policy(self):
        controls = np.array([[0, 1, 2], [2, 1, 0]])
        return Policy(controls=controls, control_grid=self.GRID, times=np.array([0.0, 0.5]), axes=(np.array([-1.0, 0.0, 1.0]),))

    def test_nearest_node(self):
        pol = self._policy()
        assert pol.control(np.array([0.2]), 0.1)[0] == 0.0
        assert pol.control(np.array([0.9]), 0.4)[0] == -1.0
        # outside the grid: the end nodes
        assert pol.control(np.array([-5.0]), 7.0)[0] == 1.0

    def test_ties_break_low(self):
        pol = self._policy()
        assert pol.control(np.array([0.5]), 0.0)[0] == 0.0
        assert pol.control(np.array([-0.5]), 0.25)[0] == -1.0

    def test_grid_shape_enforced(self):
        with pytest.raises(DomainError):
            Policy(controls=np.zeros((2, 4), dtype=int), control_grid=self.GRID, times=np.array([0.0, 0.5]), axes=(np.array([-1.0, 0.0, 1.0]),))

    @pytest.mark.parametrize(
        "times, axis",
        [
            ([0.0, 0.5], [1.0, 0.0, -1.0]),
            ([0.0, 0.5], [-1.0, 0.0, 0.0]),
            ([0.5, 0.0], [-1.0, 0.0, 1.0]),
            ([0.0, math.nan], [-1.0, 0.0, 1.0]),
            ([0.0, 0.5], [-1.0, 0.0, math.inf]),
            ([[0.0], [0.5]], [-1.0, 0.0, 1.0]),
        ],
        ids=["descending-x", "repeated-x", "descending-t", "nan-t", "inf-x", "2-D-t"],
    )
    def test_nodes_must_increase(self, times, axis):
        # a descending axis would look (1.0,) up at the node x = 0
        with pytest.raises(DomainError, match="strictly increasing"):
            Policy(controls=np.array([[0, 1, 2], [2, 1, 0]]), control_grid=self.GRID, times=np.array(times), axes=(np.array(axis),))

    @pytest.mark.parametrize(
        "controls",
        [[[0, 1, -1], [2, 1, 0]], [[0, 1, 3], [2, 1, 0]], [[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]], [[True] * 3, [False] * 3]],
        ids=["negative", "past-the-grid", "float", "bool"],
    )
    def test_controls_must_index_the_grid(self, controls):
        # -1 would wrap to the last control, 3 raise numpy's IndexError at lookup
        with pytest.raises(DomainError, match=r"integer indices in \[0, 3\)"):
            Policy(controls=np.array(controls), control_grid=self.GRID, times=np.array([0.0, 0.5]), axes=(np.array([-1.0, 0.0, 1.0]),))

    @pytest.mark.parametrize(
        "x, t, message",
        [
            ([0.5, 99.0], 0.1, "x must have one"),
            ([], 0.1, "x must have one"),
            ([math.nan], 0.1, "x must have one"),
            ([-math.inf], 0.1, "x must have one"),
            ([0.5], math.nan, "t must be finite"),
            ([0.5], math.inf, "t must be finite"),
        ],
        ids=["extra", "none", "nan", "-inf", "nan-t", "inf-t"],
    )
    def test_lookup_off_its_domain_raises(self, x, t, message):
        # a coordinate too many, too few or not finite has no nearest node
        with pytest.raises(DomainError, match=message):
            self._policy().control(np.array(x), t)


class TestValueField:
    # V(x) = |x| on three nodes
    FIELD = hjb.ValueField(times=np.array([0.0]), axes=(np.array([-1.0, 0.0, 1.0]),), values=np.array([[1.0, 0.0, 1.0]]))

    def test_interpolates_and_clamps(self):
        assert self.FIELD.at([0.25]) == 0.25
        assert self.FIELD.at(np.array([-0.5]), 0) == 0.5
        assert self.FIELD.at(0.75) == 0.75
        assert self.FIELD.at([99.0]) == 1.0  # outside the box: the clamped boundary value

    @pytest.mark.parametrize("k", [3, -1, 1.0, None, True], ids=["past", "negative", "float", "none", "bool"])
    def test_time_index_off_the_kept_slices_raises(self, k):
        # three kept slices: -1 would read the last one, 3 and 1.0 raise numpy's IndexError,
        # and True would be read as a mask that picks slice 0
        field = hjb.ValueField(times=np.array([0.0, 0.1, 0.2]), axes=self.FIELD.axes, values=np.repeat(self.FIELD.values, 3, axis=0))
        assert field.at([0.25], 2) == 0.25
        with pytest.raises(DomainError, match=r"time_index must be an integer in \[0, 3\)"):
            field.at([0.25], k)

    @pytest.mark.parametrize("x", [[0.5, 99.0], [], [math.nan], [math.inf], [[0.5]]], ids=["extra", "none", "nan", "inf", "nested"])
    def test_lookup_off_its_domain_raises(self, x):
        with pytest.raises(DomainError, match=r"one finite coordinate per axis \(1\)"):
            self.FIELD.at(x)

    def test_two_dimensional_needs_both_coordinates(self):
        fld, _ = solve_fractional(catalog.get("osc2d").problem, DiscountSpec(0.8, -0.5), SolverConfig(dt=0.02, horizon=0.1, nx=9))
        assert math.isfinite(fld.at([0.1, -0.2]))
        with pytest.raises(DomainError, match=r"one finite coordinate per axis \(2\)"):
            fld.at([0.1])


class TestTwoDimensional:
    def test_osc2d_solves(self):
        entry = catalog.get("osc2d")
        cfg = SolverConfig(dt=0.02, horizon=1.0, nx=33)
        fld, pol = solve_fractional(entry.problem, DiscountSpec(0.8, -0.5), cfg)
        assert np.all(np.isfinite(fld.values))
        assert fld.values[0].shape == (33, 33)
        assert pol.controls.min() >= 0 and pol.controls.max() < len(entry.problem.controls)
        # value at the resting origin is the smallest on the grid
        mid = fld.values[0][16, 16]
        assert mid == fld.values[0].min()

    def test_alpha_one_equality_2d(self):
        entry = catalog.get("osc2d")
        cfg = SolverConfig(dt=0.02, horizon=0.5, nx=17)
        fld_c, _ = solve_classical(entry.problem, DiscountSpec(1.0, -0.5), cfg)
        fld_f, _ = solve_fractional(entry.problem, DiscountSpec(1.0, -0.5), cfg)
        assert np.array_equal(fld_c.values, fld_f.values)


class TestLqrOracle:
    def test_undiscounted_unit(self):
        P, k = lqr_oracle(0.0, 1.0, 1.0, 1.0, 0.0)
        assert P == pytest.approx(1.0, rel=1e-15)
        assert k == pytest.approx(-1.0, rel=1e-15)

    def test_zero_cost(self):
        P, k = lqr_oracle(-1.0, 1.0, 0.0, 1.0, 0.0)
        assert P == 0.0 and k == 0.0

    def test_golden_ratio_case(self):
        P, _ = lqr_oracle(1.0, 1.0, 1.0, 1.0, -1.0)
        assert P == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-14)

    def test_riccati_equation_satisfied(self):
        a, b, q, r, lam = 0.3, 2.0, 1.5, 0.7, -0.4
        P, k = lqr_oracle(a, b, q, r, lam)
        assert (b * b / r) * P * P - (2.0 * a + lam) * P - q == pytest.approx(0.0, abs=1e-12)
        assert k == pytest.approx(-P * b / r, rel=1e-15)

    @pytest.mark.parametrize("lam", [-1e4, -1e8, -1e10])
    def test_no_cancellation_for_negative_rate(self, lam):
        # P (sqrt(disc) - (2a + lam)) = 2q; (2a + lam) + sqrt(disc) cancels, to P = 0 at lam = -1e10
        P, k = lqr_oracle(0.0, 1.0, 1.0, 1.0, lam)
        assert P * (math.sqrt(lam * lam + 4.0) - lam) == pytest.approx(2.0, rel=1e-15)
        assert k == -P

    def test_uncontrolled_root(self):
        # b = 0 leaves -(2a + lam) P - q = 0: P = q / |2a + lam| where that is positive
        assert lqr_oracle(-1.0, 0.0, 1.0, 1.0, 0.0) == (0.5, 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            lqr_oracle(0.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            lqr_oracle(0.0, 1.0, -1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            lqr_oracle(0.0, 0.0, 1.0, 1.0, 0.0)
        # so must the root and its gain: a square past float range, b * b = 0, or q / r = inf
        for args in (
            (0, 1, 1, 1, -1e300),
            (0, 1, 1, 1, 2e154),
            (0, 1e-200, 1, 1, 0),
            (0, 1, 1e300, 1e-300, 0),
            (0, 1, 1e300, 1e-300, -1),  # the conjugate form would return 0 here
        ):
            with pytest.raises(DomainError, match="not a finite float"):
                lqr_oracle(*args)
        # every argument must be finite
        for k in range(5):
            for bad in (math.nan, math.inf, -math.inf):
                args = [0.0, 1.0, 1.0, 1.0, 0.0]
                args[k] = bad
                with pytest.raises(DomainError):
                    lqr_oracle(*args)


class TestBoundaryModes:
    def _drift(self, boundary):
        # uncontrolled rightward drift: feet leave the box at the right edge
        return ControlProblem(
            dynamics=lambda x, u: np.ones_like(x),
            running_cost=lambda x, u: x[..., 0] ** 2,
            control_grid=[[0.0]],
            state_box=[(0.0, 1.0)],
            boundary=boundary,
        )

    def test_extrapolate_differs_from_clamp(self):
        cfg = SolverConfig(dt=0.01, horizon=2.0, nx=65)
        fld_e, _ = solve_classical(self._drift("extrapolate_linear"), DiscountSpec(1.0, -0.5), cfg)
        fld_c, _ = solve_classical(self._drift("clamp_gradient"), DiscountSpec(1.0, -0.5), cfg)
        assert np.all(np.isfinite(fld_e.values)) and np.all(np.isfinite(fld_c.values))
        assert not np.array_equal(fld_e.values, fld_c.values)
        # extrapolation sees the larger out-of-box cost at the right edge
        assert fld_e.values[0][-1] > fld_c.values[0][-1]
