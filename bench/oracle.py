"""Independent reference values for the benchmark's output checks.

Three kinds of reference, none computed by the ``mlhjb`` package itself:

- arbitrary-precision Mittag-Leffler sums with *exact* ``mp.mpf`` parameters
  (the float the CLI receives is converted without rounding), for the
  static1d cost T E_{a,2}(lam T^a) and the semigroup defect
  E(t) E(s) - E(t+s) that ``verify`` tabulates;
- a plain float64 rollout of a nearest-node policy table or a linear
  feedback, for ``cost --policy`` and ``cost --feedback lqr``;
- frozen references of ``solve`` output taken from the seed program: the
  SHA-256 of ``policy.csv`` and sampled rows of ``value.csv`` and
  ``residual.csv``.

The mpmath and solve references are frozen in ``oracle.json`` with their
tolerances.  Regenerate it (about one minute) with

    python3 bench/oracle.py --freeze
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile

import mpmath as mp
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_PATH = os.path.join(HERE, "oracle.json")

# Inputs of the kernel-cost workload: cost --problem static1d at alpha 0.8
# and dt 0.01, as (lam, horizon).  Both push most kernel points onto the
# arbitrary-precision path.  Longer horizons at lam -1 are left out: the seed
# program misses the oracle there (by 2.7e-3 at T = 30 and prints -205.04
# against 2.22678 at the catalog horizon 40), and every operation of a
# workload must pass.
STATIC1D = {"alpha": 0.8, "dt": 0.01, "cases": [(-0.75, 18.0), (-1.0, 13.0)]}

# verify grid of the replay-verify workload; the seed draws t and s from the pools.
VERIFY_ALPHAS = [0.3, 0.5, 0.8]
VERIFY_LAMS = [-1.0, 1.0]
VERIFY_PANELS = [8, 16]
VERIFY_T_POOL = [0.5, 1.0, 2.0]
VERIFY_S_POOL = [0.1, 0.25, 0.5, 1.0, 2.0]
# Relative tolerance on delta per panel count.  The worst relative errors of
# the seed program over the whole pool are 5.1e-7 (8 panels) and 2.1e-9
# (16 panels); the bounds leave about 20x headroom and keep the >= 10x gain
# that doubling the panels must buy.
DELTA_RTOL = {8: 1e-5, 16: 1e-7}
# product and composed are kernel values printed with 12 significant digits.
KERNEL_RTOL = 1e-10

# Catalog settings the solve and replay workloads run at (alpha 0.8, lam -0.5).
SOLVE_ALPHA = 0.8
SOLVE_LAM = -0.5
SOLVE_PROBLEMS = {
    "lq1d": {"dt": 1e-3, "horizon": 20.0, "nx": 257, "box": [(-2.0, 2.0)]},
    "osc2d": {"dt": 0.01, "horizon": 5.0, "nx": 65, "box": [(-2.0, 2.0), (-2.0, 2.0)]},
}
# Flags of the solve workloads, so that one solve takes one to three seconds
# and a run takes the median of many.  lq1d: 1,000 march steps, every 40th
# slice written, so the march and the residual keep most of the time.  osc2d:
# 70 steps on a 45 x 45 grid, enough to fill the 64-slice memory window and
# write residual rows; every slice is written, so CSV emission keeps most of
# the time.
SOLVE_FLAGS = {"lq1d": {"horizon": 1.0, "stride": 40}, "osc2d": {"horizon": 0.7, "nx": 45}}
# |V - ref| <= V_TOL * max(1, |ref|); the CSV prints 12 significant digits.
V_TOL = 1e-9
RESIDUAL_TOL = 1e-6
SAMPLE_ROWS = 256
X0_CANDIDATES = 64
# Replayed and LQR rollout costs against the float64 reference rollout.
ROLLOUT_RTOL = 1e-8


# ---------------------------------------------------------------- mpmath sums


def ml_mp(alpha: float, beta: float, z) -> mp.mpf:
    """E_{alpha,beta}(z) by its power series with exact mpf parameters.

    The working precision is raised until it exceeds the digits lost between
    the largest term and the sum by a 25-digit margin.
    """
    a = mp.mpf(alpha)
    b = mp.mpf(beta)
    dps = max(30, mp.mp.dps)
    while True:
        with mp.workdps(dps):
            zm = mp.mpf(z)
            # terms peak near n = |z|^(1/a) / a; sum well past the peak
            n_min = int(float(abs(zm)) ** (1.0 / float(a)) / float(a)) + 5
            total = mp.mpf(0)
            peak = mp.mpf(0)
            small = 0
            n = 0
            while True:
                term = zm**n / mp.gamma(a * n + b)
                total += term
                peak = max(peak, abs(term))
                if n > n_min and abs(term) <= mp.eps * abs(total):
                    small += 1
                    if small >= 3:
                        break
                n += 1
            lost = int(mp.log10(peak / abs(total))) if total != 0 else 0
            if dps >= lost + 25:
                return +total
        dps = lost + 35


# Working precision of the arithmetic around the series sums.
_DPS = 40


def kernel_mp(alpha: float, lam: float, t) -> mp.mpf:
    """Discount kernel E_a(lam t^a) with exact parameters."""
    with mp.workdps(_DPS):
        return ml_mp(alpha, 1.0, mp.mpf(lam) * mp.mpf(t) ** mp.mpf(alpha))


def static1d_cost_mp(alpha: float, lam: float, horizon: float) -> mp.mpf:
    """int_0^T E_a(lam t^a) dt = T E_{a,2}(lam T^a), the static1d cost."""
    with mp.workdps(_DPS):
        T = mp.mpf(horizon)
        return T * ml_mp(alpha, 2.0, mp.mpf(lam) * T ** mp.mpf(alpha))


def delta_mp(alpha: float, lam: float, t: float, s: float) -> mp.mpf:
    """Semigroup defect E(t) E(s) - E(t+s), t + s summed exactly."""
    with mp.workdps(_DPS):
        ts = mp.mpf(t) + mp.mpf(s)
        return kernel_mp(alpha, lam, t) * kernel_mp(alpha, lam, s) - kernel_mp(alpha, lam, ts)


# ------------------------------------------------------------- float64 rollout


def kernel_f64(alpha: float, lam: float, times: np.ndarray) -> np.ndarray:
    """E_a(lam t^a) by the float64 power series, for moderate |lam t^a|.

    Each term divides z^n by ``math.gamma`` directly (a few ulp) rather than
    by a ratio of neighbours.  Valid while fewer than about 5 digits cancel,
    which holds for the replay horizons (|z| <= 6 at alpha 0.8).
    """
    z = lam * np.power(np.asarray(times, dtype=float), alpha)
    if np.max(np.abs(z), initial=0.0) > 6.0:
        raise ValueError("kernel_f64 is only accurate for |z| <= 6")
    total = np.zeros_like(z)
    zn = np.ones_like(z)
    for n in range(400):
        term = zn / math.gamma(alpha * n + 1.0)
        total += term
        if n > 10 and np.max(np.abs(term)) <= 1e-17 * np.min(np.abs(total)):
            return total
        zn = zn * z
    raise ArithmeticError("kernel_f64 series did not converge")


def lq1d_dynamics(x, u):
    return [u[0]]


def lq1d_cost(x, u):
    return 0.5 * (x[0] ** 2 + u[0] ** 2)


def osc2d_dynamics(x, u):
    return [x[1], -x[0] + u[0]]


def osc2d_cost(x, u):
    return 0.5 * (x[0] ** 2 + x[1] ** 2 + u[0] ** 2)


PROBLEM_FUNCS = {"lq1d": (lq1d_dynamics, lq1d_cost), "osc2d": (osc2d_dynamics, osc2d_cost)}


def nearest(values: list, x: float) -> int:
    """Index of the sorted ``values`` entry closest to ``x``, lowest on ties."""
    j = bisect.bisect_left(values, x)
    if j == 0:
        return 0
    if j == len(values):
        return j - 1
    return j - 1 if abs(values[j - 1] - x) <= abs(values[j] - x) else j


def table_law(tvals, axes, table):
    """Nearest (t, x) node lookup into a policy table of shape (nt, nx, ..., du)."""
    tvals = [float(t) for t in tvals]
    axes = [[float(v) for v in ax] for ax in axes]
    table = np.asarray(table).tolist()

    def law(x, t):
        row = table[nearest(tvals, t)]
        for d, ax in enumerate(axes):
            row = row[nearest(ax, x[d])]
        return row

    return law


def rollout_cost(problem: str, law, x0, alpha: float, lam: float, dt: float, horizon: float) -> float:
    """Discounted cost of ``law`` from ``x0``: RK4 steps, trapezoid in time.

    Follows the documented contract of ``mlhjb cost``: the control is
    re-evaluated at each RK4 stage and the running cost at each step's end.
    Scalar float arithmetic in the same order as the package's array code,
    so the trajectory, and every nearest-node choice along it, agree exactly.
    """
    dynamics, running = PROBLEM_FUNCS[problem]
    nt = round(horizon / dt)
    grid = np.arange(nt + 1) * dt
    times = grid.tolist()
    x = [float(v) for v in x0]
    half = 0.5 * dt

    def f_at(xq, t):
        return dynamics(xq, law(xq, t))

    run = [running(x, law(x, 0.0))]
    for i in range(nt):
        t = times[i]
        k1 = f_at(x, t)
        k2 = f_at([a + half * b for a, b in zip(x, k1)], t + half)
        k3 = f_at([a + half * b for a, b in zip(x, k2)], t + half)
        k4 = f_at([a + dt * b for a, b in zip(x, k3)], t + dt)
        x = [a + dt * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        run.append(running(x, law(x, times[i + 1])))
    y = kernel_f64(alpha, lam, grid) * np.array(run)
    return float(dt * (0.5 * y[0] + y[1:-1].sum() + 0.5 * y[-1]))


def lqr_gain(lam: float) -> float:
    """Stationary feedback gain of lq1d (a=0, b=q=r=1) under rate lam."""
    P = (lam + math.sqrt(lam * lam + 4.0)) / 2.0
    return -P


# ----------------------------------------------------------------- freezing


def load() -> dict:
    with open(ORACLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _sample(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    data = lines[1:]
    every = max(1, len(data) // SAMPLE_ROWS)
    return {
        "header": lines[0],
        "rows": len(data),
        "every": every,
        "sample": [[float(v) for v in data[k].split(",")] for k in range(0, len(data), every)],
    }


def _x0_candidates(path: str) -> list:
    """t = 0 rows of value.csv at every k-th grid node, as (x..., V)."""
    with open(path, encoding="utf-8") as fh:
        next(fh)
        first = []
        for line in fh:
            row = [float(v) for v in line.split(",")]
            if row[0] != 0.0:
                break
            first.append(row[1:])
    every = max(1, len(first) // X0_CANDIDATES)
    return first[::every][:X0_CANDIDATES]


def solve_argv(problem: str) -> list[str]:
    """``mlhjb`` arguments of a solve workload's operation, without --x0 and --out."""
    flags = [arg for key, value in SOLVE_FLAGS[problem].items() for arg in (f"--{key}", repr(value))]
    return ["solve", "--problem", problem, "--alpha", str(SOLVE_ALPHA), *flags]


def freeze_solve(problem: str, src: str) -> dict:
    """Run the seed program's solve once and keep compact references."""
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, PYTHONPATH=src)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli", "--", *solve_argv(problem), "--out", out]
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        with open(os.path.join(out, "policy.csv"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return {
            "policy_sha256": digest,
            "value": _sample(os.path.join(out, "value.csv")),
            "residual": _sample(os.path.join(out, "residual.csv")),
            "x0": _x0_candidates(os.path.join(out, "value.csv")),
        }


def freeze(src: str) -> dict:
    a = STATIC1D["alpha"]
    static = [
        {
            "alpha": a,
            "lam": lam,
            "horizon": horizon,
            "value": float(static1d_cost_mp(a, lam, horizon)),
            # trapezoid error of step dt on an integrand that behaves like t^a at 0
            "atol": STATIC1D["dt"] ** (1.0 + a),
        }
        for lam, horizon in STATIC1D["cases"]
    ]
    kernels = {}
    deltas = {}
    for alpha in VERIFY_ALPHAS:
        for lam in VERIFY_LAMS:
            key = f"{alpha}/{lam}"
            times = sorted({*VERIFY_T_POOL, *VERIFY_S_POOL, *(t + s for t in VERIFY_T_POOL for s in VERIFY_S_POOL)})
            kernels[key] = {repr(t): float(kernel_mp(alpha, lam, t)) for t in times}
            deltas[key] = {
                f"{t!r}/{s!r}": float(delta_mp(alpha, lam, t, s)) for t in VERIFY_T_POOL for s in VERIFY_S_POOL
            }
    return {
        "static1d": static,
        "verify": {
            "kernel": kernels,
            "delta": deltas,
            "delta_rtol": {str(k): v for k, v in DELTA_RTOL.items()},
            "kernel_rtol": KERNEL_RTOL,
        },
        "solve": {p: freeze_solve(p, src) for p in SOLVE_PROBLEMS},
        "solve_tol": {"v": V_TOL, "residual": RESIDUAL_TOL},
    }


def main(argv: list[str]) -> int:
    if argv != ["--freeze"]:
        print("usage: python3 bench/oracle.py --freeze", file=sys.stderr)
        return 2
    src = os.path.join(os.path.dirname(HERE), "src")
    data = freeze(src)
    with open(ORACLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"wrote {ORACLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
