"""Checks of the benchmark's own oracle, policy writer and span arithmetic."""

import json
import math
import os
import shutil
import subprocess
import sys
import types

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfcx

import oracle
import policygen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize("x", [0.1, 1.0, 4.0, 20.0])
def test_ml_half_is_erfcx(x):
    # E_{1/2}(-x) = exp(x^2) erfc(x) = erfcx(x)
    assert float(oracle.ml_mp(0.5, 1.0, -x)) == pytest.approx(erfcx(x), rel=1e-14)


@pytest.mark.parametrize("lam", [-0.5, -1.0])
def test_static1d_classical_closed_form(lam):
    # at alpha = 1 the cost is int_0^T e^(lam t) dt = (1 - e^(lam T)) / (-lam)
    T = 40.0
    with mp.workdps(40):
        want = (1 - mp.exp(mp.mpf(lam) * T)) / (-mp.mpf(lam))
        assert abs(oracle.static1d_cost_mp(1.0, lam, T) - want) < mp.mpf(10) ** -25


def test_defect_vanishes_for_exponential():
    with mp.workdps(40):
        assert abs(oracle.delta_mp(1.0, -1.0, 0.7, 0.3)) < mp.mpf(10) ** -25


def test_ml_exact_alpha_differs_from_rounded_gamma_arguments():
    # z = -40^0.8 at alpha 0.8: the cancellation is ~17 digits deep, so only
    # an exact-parameter sum gives the static1d reference 2.22678...
    assert float(oracle.static1d_cost_mp(0.8, -1.0, 40.0)) == pytest.approx(2.2267756389947, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
def test_kernel_f64_matches_mpmath(alpha):
    times = np.array([0.0, 0.3, 2.0, 9.0])
    got = oracle.kernel_f64(alpha, -0.5, times)
    want = [float(oracle.kernel_mp(alpha, -0.5, t)) for t in times]
    assert got == pytest.approx(want, rel=1e-13)


def test_reference_rollout_closed_form():
    # alpha = 1, u = k x: x = x0 e^(kt), cost = (1+k^2) x0^2 / 2 * int e^((2k+lam) t)
    k, lam, x0, T = -0.8, -0.5, 0.9, 10.0
    got = oracle.rollout_cost("lq1d", lambda x, t: [k * x[0]], [x0], 1.0, lam, 1e-3, T)
    rate = 2 * k + lam
    want = 0.5 * (1 + k * k) * x0 * x0 * (1 - math.exp(rate * T)) / (-rate)
    assert got == pytest.approx(want, rel=1e-6)


def test_nearest_breaks_ties_low():
    vals = [0.0, 1.0, 2.0]
    assert [oracle.nearest(vals, x) for x in (-1.0, 0.5, 0.6, 1.5, 9.0)] == [0, 0, 1, 1, 2]


def test_policy_files_follow_the_seed(tmp_path):
    paths = []
    for seed in (5, 5, 6):
        path = tmp_path / f"p{len(paths)}.csv"
        policygen.write_policy(str(path), *policygen.policy_table("osc2d", seed, times=[0.0, 0.01], nx=9))
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] != paths[2]
    assert paths[0].startswith(b"t,x1,x2,u\n0,-2,-2,")


def test_slice_times_match_solve_schedule():
    times = policygen.slice_times(1e-3, 20.0)
    assert len(times) == 201 and times[1] == pytest.approx(0.1) and times[-1] == pytest.approx(19.999)


@pytest.mark.parametrize("problem", ["lq1d", "osc2d"])
def test_cost_accepts_generated_policy(problem, tmp_path, capsys):
    from mlhjb import cli

    cfg = oracle.SOLVE_PROBLEMS[problem]
    times = [k * cfg["dt"] for k in range(5)]
    table = policygen.policy_table(problem, 11, times=times, nx=17)
    path = tmp_path / "policy.csv"
    policygen.write_policy(str(path), *table)
    x0 = [0.4, -0.3][: len(cfg["box"])]
    horizon = 5 * cfg["dt"]
    argv = ["cost", "--problem", problem, "--alpha", "0.8", "--policy", str(path),
            "--horizon", repr(horizon), "--x0=" + ",".join(map(repr, x0))]
    assert cli.main(argv) == 0
    got = float(capsys.readouterr().out)
    law = oracle.table_law(*policygen.parsed_table(*table))
    want = oracle.rollout_cost(problem, law, x0, 0.8, -0.5, cfg["dt"], horizon)
    assert got == pytest.approx(want, rel=1e-10)


def test_times_sum_per_operation_means():
    import run

    def res(wall):
        return run.Result(0, "", "", wall, 0.0, 0)

    passes = [[res(1.0), res(10.0)], [res(3.0), res(30.0)], [res(2.0), res(80.0)]]
    # means 2 and 40
    assert run.op_mean_sum(passes, lambda r: r.wall) == 42.0


def test_self_time_subtracts_union_of_children():
    s = [
        [0, -1, "root", 0.0, 10.0, 0],
        [1, 0, "a", 1.0, 4.0, 5],
        [2, 0, "a", 3.0, 6.0, 7],  # overlaps the first child by 1
        [3, 1, "b", 1.5, 2.0, 0],
        [4, -1, "root", 20.0, 21.0, 0],
    ]
    selfs = spans.self_times(s)
    assert selfs == {0: 5.0, 1: 2.5, 2: 3.0, 3: 0.5, 4: 1.0}
    tot = spans.totals(s)
    assert tot["root"] == {"s": 11.0, "self_s": 6.0, "calls": 2, "count": 0}
    assert tot["a"] == {"s": 6.0, "self_s": 5.5, "calls": 2, "count": 12}


def test_tracer_records_nesting_and_counts(tmp_path):
    mod = types.SimpleNamespace()
    mod.inner = lambda arr: np.asarray(arr) * 2
    mod.outer = lambda arr: mod.inner(arr).sum()
    tracer = spans.Tracer()
    tracer.wrap(mod, "inner", "m.inner", lambda arr: int(np.size(arr)))
    tracer.wrap(mod, "outer", "m.outer")
    assert mod.outer([1, 2, 3]) == 12
    (outer, inner) = tracer.spans
    assert outer[:3] == [0, -1, "m.outer"] and inner[:3] == [1, 0, "m.inner"]
    assert inner[5] == 3 and outer[3] <= inner[3] <= inner[4] <= outer[4]
    assert tracer.overhead_s > 0.0
    tracer.dump(str(tmp_path / "s.json"))
    dumped = json.loads((tmp_path / "s.json").read_text())
    assert dumped["spans"] == tracer.spans and dumped["overhead_s"] >= tracer.overhead_s


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel-cost", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
