"""Top-level acceptance checks, one per shipped guarantee.

Run standalone (`python3 tests/test_acceptance.py`) for one PASS/FAIL line
per criterion, or under pytest as ordinary tests.  Criterion 3 checks that
the defect Delta(1, s) at a = 1/2, lam = -1 decreases as s shrinks and that
its gap to the small-s expansion, whose leading term goes as s^a, closes at
the relative rate O(s); the expansion uses closed forms (erfc, gamma) that
do not depend on the series engine.
"""

import contextlib
import io
import math
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mlhjb import (
    DiscountSpec,
    FracOrder,
    QuadratureConfig,
    SolverConfig,
    amplitude,
    catalog,
    cli,
    delta_ml,
    evaluate_cost,
    kernel,
    l1_frac_deriv,
    lqr_oracle,
    ml_one,
    rl_window_deriv,
    solve_classical,
    solve_fractional,
)


def _rel(err, ref):
    return np.abs(err) / np.maximum(np.abs(ref), 1e-300)


def _criterion_1():
    """Closed-form exactness of the series engine at alpha = 1, 2, 0."""
    start = time.perf_counter()
    z1 = np.linspace(-20.0, 20.0, 201)
    e1 = max(_rel(ml_one(1.0, z) - math.exp(z), math.exp(z)) for z in z1)
    z2 = np.linspace(0.0, 50.0, 201)
    e2 = max(_rel(ml_one(2.0, z) - math.cosh(math.sqrt(z)), math.cosh(math.sqrt(z))) for z in z2)
    z0 = np.linspace(-0.95, 0.95, 201)
    e0 = max(_rel(ml_one(0.0, z) - 1.0 / (1.0 - z), 1.0 / (1.0 - z)) for z in z0)
    wall = time.perf_counter() - start
    ok = e1 <= 1e-10 and e2 <= 1e-10 and e0 <= 1e-12 and wall < 1.0
    return ok, f"rel err exp {e1:.2e} (<=1e-10), cosh {e2:.2e} (<=1e-10), geometric {e0:.2e} (<=1e-12); {wall:.2f} s < 1 s"


def _criterion_2():
    """Kernel composition identity across a parameter grid, with quadrature refinement."""
    start = time.perf_counter()
    alphas = (0.3, 0.5, 0.7, 0.9)
    lams = (-1.0, -0.5, 0.5)
    times = (0.25, 0.5, 1.0)
    worst = {8: 0.0, 16: 0.0}
    for panels in (8, 16):
        quad = QuadratureConfig(panels=panels)
        for alpha in alphas:
            for lam in lams:
                spec = DiscountSpec(alpha, lam)
                for t in times:
                    for s in times:
                        lhs = float(kernel(spec, t)) * float(kernel(spec, s)) - delta_ml(spec, t, s, quad)
                        resid = abs(lhs - float(kernel(spec, t + s)))
                        worst[panels] = max(worst[panels], resid)
    wall = time.perf_counter() - start
    shrink = worst[8] / max(worst[16], 1e-300)
    ok = worst[8] <= 1e-5 and shrink >= 10.0 and wall < 30.0
    return ok, f"max residual {worst[8]:.2e} (<=1e-5), doubling panels shrinks {shrink:.0f}x (>=10x); {wall:.1f} s < 30 s"


def _criterion_3():
    """Decay of the defect as the second time argument shrinks, at the rate s^a.

    E(t)E(s) - E(t+s) expands for small s as
    E(t) [lam s^a / Gamma(1+a) + lam^2 s^(2a) / Gamma(1+2a)] - s E'(t),
    with relative remainder O(s) at a = 1/2.  At t = 1 the closed forms are
    E(1) = E_{1/2}(-1) = e erfc(1) and E'(1) = lam E_{1/2,1/2}(-1) =
    lam (1/sqrt(pi) - e erfc(1)).
    """
    a, lam = 0.5, -1.0
    spec = DiscountSpec(a, lam)
    e1 = math.e * math.erfc(1.0)
    de1 = lam * (1.0 / math.sqrt(math.pi) - e1)
    svals = (0.1, 0.01, 0.001)
    deltas = [delta_ml(spec, 1.0, s) for s in svals]
    vals = [abs(d) for d in deltas]
    leading = [e1 * lam * s**a / math.gamma(1.0 + a) for s in svals]
    expansion = [
        lead + e1 * lam**2 * s ** (2.0 * a) / math.gamma(1.0 + 2.0 * a) - s * de1
        for lead, s in zip(leading, svals)
    ]
    gaps = [abs(d - x) / abs(x) for d, x in zip(deltas, expansion)]
    ratios = [v / abs(lead) for v, lead in zip(vals, leading)]
    decreasing = vals[0] > vals[1] > vals[2]
    shrinking = gaps[0] >= 5.0 * gaps[1] and gaps[1] >= 5.0 * gaps[2]
    ok = decreasing and gaps[2] <= 2e-3 and shrinking
    return ok, (
        f"|defect(1,s)| = {vals[0]:.4e}, {vals[1]:.4e}, {vals[2]:.4e} at s = 0.1, 0.01, 0.001 "
        f"(monotone decrease: {'yes' if decreasing else 'no'}); "
        f"|defect| / leading s^a term {ratios[0]:.3f}, {ratios[1]:.3f}, {ratios[2]:.3f}; "
        f"gap to expansion {gaps[0]:.1e}, {gaps[1]:.1e}, {gaps[2]:.1e} "
        f"(final <= 2e-3: {'yes' if gaps[2] <= 2e-3 else 'no'}; >= 5x drop per step: {'yes' if shrinking else 'no'})"
    )


def _criterion_4():
    """Fractional solver collapses to the classical one at order one."""
    configs = {
        "lq1d": SolverConfig(dt=0.005, horizon=5.0, nx=129),
        "bounded1d": SolverConfig(dt=0.005, horizon=5.0, nx=129),
        "osc2d": SolverConfig(dt=0.02, horizon=1.0, nx=129),
        "static1d": SolverConfig(dt=0.01, horizon=2.0, nx=129),
        "zero1d": SolverConfig(dt=0.01, horizon=1.0, nx=129),
    }
    spec = DiscountSpec(1.0, -0.5)
    worst_diff = 0.0
    worst_wall = 0.0
    for name in catalog.PROBLEM_NAMES:
        start = time.perf_counter()
        prob = catalog.get(name).problem
        fld_c, _ = solve_classical(prob, spec, configs[name])
        fld_f, _ = solve_fractional(prob, spec, configs[name])
        worst_wall = max(worst_wall, time.perf_counter() - start)
        worst_diff = max(worst_diff, float(np.abs(fld_f.values - fld_c.values).max()))
    amp_ok = amplitude(1.0) == 1.0
    window = 1.7 + 0.3 * np.arange(5)
    degenerate_ok = rl_window_deriv(window, 0.1, FracOrder(0.0)) == window[-1]
    ok = worst_diff <= 1e-12 and amp_ok and degenerate_ok and worst_wall < 10.0
    return ok, (
        f"max |fractional - classical| {worst_diff:.1e} (<=1e-12) over {len(catalog.PROBLEM_NAMES)} problems, "
        f"A(1)={amplitude(1.0):g}, order-0 window derivative is the identity: {'yes' if degenerate_ok else 'no'}; "
        f"slowest problem {worst_wall:.1f} s < 10 s"
    )


def _criterion_5():
    """Solved linear-quadratic value and rollout cost against the Riccati solution."""
    start = time.perf_counter()
    entry = catalog.get("lq1d")
    spec = DiscountSpec(1.0, -0.5)
    cfg = SolverConfig(dt=1e-3, horizon=20.0, nx=257)
    fld, pol = solve_classical(entry.problem, spec, cfg)
    P, _ = lqr_oracle(0.0, 1.0, 1.0, 1.0, -0.5)
    x = fld.axes[0]
    mask = np.abs(x) <= 1.0
    exact = 0.5 * P * x[mask] ** 2
    scale = 0.5 * P * 1.0**2
    # 2% of the value scale on the half box; the exact value vanishes at the origin
    ok_field = np.allclose(fld.values[0][mask], exact, rtol=0.02, atol=0.02 * scale)
    err_field = float(np.abs(fld.values[0][mask] - exact).max())
    j = evaluate_cost(entry.problem, spec, pol, np.asarray(entry.x0), cfg)
    err_cost = abs(j - scale) / scale
    wall = time.perf_counter() - start
    ok = ok_field and err_cost <= 0.02 and wall < 60.0
    return ok, (
        f"field err {err_field:.2e} (<= 2% of {scale:.4f}), rollout cost {j:.6f} vs {scale:.6f} "
        f"({100 * err_cost:.3f}% <= 2%); {wall:.1f} s < 60 s"
    )


def _criterion_6():
    """Windowed L1 derivative against monomial closed forms, with its convergence order."""
    start = time.perf_counter()

    def l1_at_one(g, mu, dt):
        n = round(1.0 / dt)
        return l1_frac_deriv(np.array([g(k * dt) for k in range(n + 1)]), dt, FracOrder(mu))

    worst_rel = 0.0
    min_order = math.inf
    for mu in (0.25, 0.5, 0.75):
        exact_lin = 1.0 / math.gamma(2.0 - mu)
        exact_sq = 2.0 / math.gamma(3.0 - mu)
        worst_rel = max(worst_rel, _rel(l1_at_one(lambda t: t, mu, 1e-3) - exact_lin, exact_lin))
        worst_rel = max(worst_rel, _rel(l1_at_one(lambda t: t * t, mu, 1e-3) - exact_sq, exact_sq))
        # order read off the quadratic case; the linear case is reproduced exactly
        dts = np.array([4e-3, 2e-3, 1e-3])
        errs = np.array([abs(l1_at_one(lambda t: t * t, mu, dt) - exact_sq) for dt in dts])
        order = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        min_order = min(min_order, order)
    wall = time.perf_counter() - start
    ok = worst_rel <= 1e-3 and min_order >= 1.2 and wall < 5.0
    return ok, f"worst rel err {worst_rel:.2e} (<=1e-3) at dt=1e-3, min observed order {min_order:.2f} (>=1.2); {wall:.1f} s < 5 s"


def _criterion_7():
    """Small-step expansion of the kernel: remainder slope on a log-log fit."""
    lam = -0.5
    dts = np.array([1e-2, 5e-3, 2.5e-3])
    slopes = {}
    for alpha in (0.5, 0.8):
        spec = DiscountSpec(alpha, lam)
        rem = np.array(
            [abs(float(kernel(spec, dt)) - 1.0 - lam * dt**alpha / math.gamma(alpha + 1.0)) for dt in dts]
        )
        slopes[alpha] = np.polyfit(np.log(dts), np.log(rem), 1)[0]
    ok = all(slopes[a] >= 1.9 * a for a in slopes)
    return ok, ", ".join(f"alpha={a}: slope {slopes[a]:.3f} >= {1.9 * a:.2f}" for a in slopes)


def _criterion_8():
    """One-step dynamic-programming residual decays quadratically in the step."""
    start = time.perf_counter()
    entry = catalog.get("lq1d")
    spec = DiscountSpec(0.8, -0.5)

    def worst_residual(dt, nx):
        cfg = SolverConfig(dt=dt, horizon=2.0, nx=nx)
        fld, _ = solve_fractional(entry.problem, spec, cfg)
        x = fld.axes[0]
        xc = 0.5 * (x[:-1] + x[1:])
        u = entry.problem.controls[:, 0]
        disc = float(kernel(spec, dt))
        nt = cfg.steps
        worst = 0.0
        for i in range(nt // 4, 3 * nt // 4):
            feet = xc[:, None] + u[None, :] * dt
            cand = 0.5 * (xc[:, None] ** 2 + u[None, :] ** 2) * dt + disc * np.interp(feet, x, fld.values[i + 1])
            resid = np.interp(xc, x, fld.values[i]) - cand.min(axis=1)
            worst = max(worst, float(np.abs(resid[2:-2]).max()))
        return worst

    coarse = worst_residual(0.02, 65)
    fine = worst_residual(0.01, 129)
    wall = time.perf_counter() - start
    ratio = coarse / max(fine, 1e-300)
    ok = ratio >= 3.0
    return ok, f"interior residual {coarse:.2e} -> {fine:.2e} when dt halves, ratio {ratio:.1f} (>=3); {wall:.1f} s"


def _criterion_9():
    """Byte-stable solve output and the documented failure exit codes."""
    fast = ["--dt", "0.02", "--horizon", "1", "--nx", "33", "--window", "8", "--alpha", "0.8"]
    sink = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        warnings.simplefilter("ignore")
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a", Path(tmp) / "b"
            ok_runs = cli.main(["solve", *fast, "--out", str(a)]) == 0 and cli.main(["solve", *fast, "--out", str(b)]) == 0
            identical = all(
                (a / name).read_bytes() == (b / name).read_bytes() for name in ("value.csv", "policy.csv", "residual.csv")
            )
            code1 = cli.main(["verify", "--alpha", "0.5", "--tol", "1e-20"])
            code2 = cli.main(["ml", "--alpha", "0", "--z", "2"])
            code3 = cli.main(["solve", "--problem", "static1d", "--lambda", "5", "--alpha", "0.8", "--out", str(a)])
    ok = ok_runs and identical and code1 == 1 and code2 == 2 and code3 == 3
    return ok, (
        f"repeat solve byte-identical: {'yes' if identical else 'no'}; "
        f"exit codes observed 1={code1}, 2={code2}, 3={code3}"
    )


_CRITERIA = [
    ("special-case exactness", _criterion_1),
    ("composition identity", _criterion_2),
    ("small-s defect decay", _criterion_3),
    ("classical-limit reduction", _criterion_4),
    ("linear-quadratic oracle", _criterion_5),
    ("L1 derivative oracle", _criterion_6),
    ("kernel expansion slope", _criterion_7),
    ("dynamic-programming consistency", _criterion_8),
    ("CLI determinism and exit codes", _criterion_9),
]


def _report(index, ok, detail):
    print(f"criterion {index}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1():
    ok, detail = _criterion_1()
    _report(1, ok, detail)
    assert ok, detail


def test_criterion_2():
    ok, detail = _criterion_2()
    _report(2, ok, detail)
    assert ok, detail


def test_criterion_3():
    ok, detail = _criterion_3()
    _report(3, ok, detail)
    assert ok, detail


def test_criterion_4():
    ok, detail = _criterion_4()
    _report(4, ok, detail)
    assert ok, detail


def test_criterion_5():
    ok, detail = _criterion_5()
    _report(5, ok, detail)
    assert ok, detail


def test_criterion_6():
    ok, detail = _criterion_6()
    _report(6, ok, detail)
    assert ok, detail


def test_criterion_7():
    ok, detail = _criterion_7()
    _report(7, ok, detail)
    assert ok, detail


def test_criterion_8():
    ok, detail = _criterion_8()
    _report(8, ok, detail)
    assert ok, detail


def test_criterion_9():
    ok, detail = _criterion_9()
    _report(9, ok, detail)
    assert ok, detail


if __name__ == "__main__":
    failures = 0
    for index, (_, checker) in enumerate(_CRITERIA, start=1):
        ok, detail = checker()
        _report(index, ok, detail)
        failures += 0 if ok else 1
    sys.exit(1 if failures else 0)
