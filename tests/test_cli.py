"""End-to-end CLI checks: exact output bytes, exit codes, config handling."""

import ast
import csv
import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mlhjb import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMl:
    def test_exponential_line(self, capsys):
        code, out, _ = run(["ml", "--alpha", "1", "--z", "1"], capsys)
        assert code == 0
        assert out == "2.718281828459\n"

    def test_cosh_line(self, capsys):
        code, out, _ = run(["ml", "--alpha", "2", "--z", "4"], capsys)
        assert code == 0
        assert out == f"{math.cosh(2.0):.12f}\n"

    def test_two_parameter(self, capsys):
        code, out, _ = run(["ml", "--alpha", "1", "--beta", "2", "--z", "1"], capsys)
        assert code == 0
        assert out == f"{math.e - 1.0:.12f}\n"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "ml.txt"
        code, out, _ = run(["ml", "--alpha", "1", "--z", "1", "--out", str(path)], capsys)
        assert code == 0
        assert path.read_text() == "2.718281828459\n"

    def test_out_symlink_to_file_is_replaced(self, capsys, tmp_path):
        # --out is created anew, as solve and verify create theirs
        target = tmp_path / "elsewhere.txt"
        target.write_text("keep\n")
        link = tmp_path / "ml.txt"
        link.symlink_to(target)
        code, out, _ = run(["ml", "--alpha", "1", "--z", "1", "--out", str(link)], capsys)
        assert code == 0
        assert out == "2.718281828459\n"
        assert not link.is_symlink()
        assert link.read_text() == out
        assert target.read_text() == "keep\n"

    def test_console_script_entry_point(self):
        # the installed `mlhjb` script calls console_main, which exits with main's code
        script = (
            "import sys\n"
            "from mlhjb import cli\n"
            "sys.argv = ['mlhjb', 'ml', '--alpha', '1', '--z', '1']\n"
            "cli.console_main()\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert (res.returncode, res.stdout, res.stderr) == (0, "2.718281828459\n", "")

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(["ml", "--alpha", "0", "--z", "2"], capsys)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("z", ["nan", "inf"])
    def test_non_finite_z_exits_2(self, z, capsys):
        code, out, err = run(["ml", "--z", z], capsys)
        assert (code, out) == (2, "")
        assert "series argument must be finite" in err

    def test_missing_z_exits_2(self, capsys):
        code, _, err = run(["ml", "--alpha", "1"], capsys)
        assert code == 2
        assert "--z" in err

    def test_cancelling_sum_exits_3(self, capsys):
        # E_2(-1000) = cos(sqrt(1000)): the float64 series cancels 13 digits
        code, out, err = run(["ml", "--alpha", "2", "--z", "-1000"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error:")


    @pytest.mark.parametrize("beta", ["172", "1e-320"])
    def test_gamma_overflow_exits_2(self, beta, capsys):
        code, out, err = run(["ml", "--alpha", "0.5", "--beta", beta, "--z=-5"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ml_two requires Gamma(beta)") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--z=-1e300"], ["--beta", "2", "--z=-1e300"]])
    def test_huge_negative_argument_is_quiet(self, argv, capsys):
        assert run(["ml", "--alpha", "0.5", *argv], capsys) == (0, "0.000000000000\n", "")

    def test_deep_beta_lowering(self, capsys):
        # about 2,000 steps of a lower b to the contour region, in a loop
        code, out, _ = run(["ml", "--alpha", "0.001", "--beta", "3", "--z", "-2"], capsys)
        assert code == 0
        assert out == "0.166769206718\n"


class TestVerify:
    def test_default_passes(self, capsys):
        code, out, _ = run(["verify", "--alpha", "0.5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,s,product,delta,composed,residual"
        assert len(lines) == 4
        for line in lines[1:]:
            assert abs(float(line.split(",")[-1])) <= 1e-5

    def test_unreachable_tolerance_exits_1(self, capsys):
        code, _, _ = run(["verify", "--alpha", "0.5", "--tol", "1e-20"], capsys)
        assert code == 1

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_invalid_tolerance_exits_2(self, tol, capsys):
        code, out, err = run(["verify", "--alpha", "0.5", "--s", "0.5", "--tol=" + tol], capsys)
        assert code == 2
        assert out == ""
        assert "--tol" in err

    def test_alpha_too_small_for_quadrature_exits_2(self, capsys):
        code, out, err = run(["verify", "--alpha", "0.02"], capsys)
        assert (code, out) == (2, "")
        assert "at alpha = 0.02" in err

    @pytest.mark.parametrize("argv", [["--panels", "3"], ["--panels", "3", "--alpha", "1"]], ids=["a0.5", "a1"])
    def test_too_few_panels_exits_2(self, argv, capsys):
        # delta_ml checks the panel count before its alpha = 1 early return
        assert run(["verify", *argv], capsys) == (2, "", "error: panels must be an integer >= 4, got 3\n")

    @pytest.mark.parametrize("alpha", ["1e-310", "5e-324"])
    def test_subnormal_alpha_exits_2(self, alpha, capsys):
        code, out, err = run(["verify", "--alpha", alpha], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: graded quadrature nodes on [0, 0.5] underflow to 0 at alpha = ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("lam", ["-1", "-0.5", "1"])
    def test_alpha_near_one_passes(self, lam, capsys):
        code, out, _ = run(["verify", "--alpha", "0.99", "--lambda=" + lam], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_invalid_tolerance_in_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("tol = nan\n")
        code, out, _ = run(["verify", "--alpha", "0.5", "--s", "0.5", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""

    def test_classical_residual_is_roundoff(self, capsys):
        code, out, _ = run(["verify", "--alpha", "1", "--t", "0.3", "--s", "0.1,0.7"], capsys)
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert abs(float(line.split(",")[-1])) <= 1e-12

    def test_out_file_and_quiet_stdout(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run(["verify", "--alpha", "0.5", "--out", str(path)], capsys)
        assert code == 0
        assert out == ""
        rows = path.read_text().splitlines()
        assert rows[0] == "t,s,product,delta,composed,residual"
        assert len(rows) == 4

    def test_out_symlink_to_device_is_written_through(self, capsys, tmp_path):
        link = tmp_path / "sink"
        link.symlink_to(os.devnull)
        code, out, _ = run(["verify", "--alpha", "0.5", "--out", str(link)], capsys)
        assert code == 0
        assert out == ""
        assert link.is_symlink()
        assert os.readlink(link) == os.devnull

    def test_identity_columns_consistent(self, capsys):
        code, out, _ = run(["verify", "--alpha", "0.7", "--lambda", "-0.5", "--s", "0.5"], capsys)
        assert code == 0
        _, _, product, delta, composed, residual = (float(v) for v in out.strip().splitlines()[1].split(","))
        # columns carry 12 significant digits, so recomposition is good to ~1e-12
        assert product - delta - composed == pytest.approx(residual, abs=5e-12)

    def test_empty_s_exits_2(self, capsys):
        code, _, _ = run(["verify", "--s", ","], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--s", "0.5,-1"], "s must be non-negative and finite, got -1.0"),
            (["--s", "nan"], "s must be non-negative and finite, got nan"),
            (["--t", "-1"], "t must be positive and finite, got -1.0"),
            (["--t", "nan"], "t must be positive and finite, got nan"),
        ],
        ids=["neg-s", "nan-s", "neg-t", "nan-t"],
    )
    def test_bad_t_or_s_is_named(self, argv, message, capsys):
        assert run(["verify", "--alpha", "0.5", *argv], capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--alpha", "0.5"], "4c76748fa21ed82fa45d91ed6a7da33107cd9fcb5b7c0651202cec81c4f855a3"),
            (
                ["--alpha", "0.3", "--lambda=0.5", "--t", "0.7", "--s", "0.1,0.4,2.0", "--panels", "16",
                 "--scheme", "gauss_legendre"],
                "494e385bd1754acdfbb71255663dc7afe79589f5a1abf728bc52c9807e7db4a1",
            ),
            (
                ["--alpha", "0.9", "--lambda=-2", "--t", "3", "--s", "0.01,0.5", "--panels", "4"],
                "4cb91b0e4677e278698792ee4e31c032de2318199222f6883085bdb0258c385a",
            ),
            (
                ["--alpha", "0.5", "--lambda=1.5", "--t", "0.2", "--s", "0.05,1.0", "--panels", "8",
                 "--scheme", "gauss_legendre"],
                "7ca015a3dc7e97f6b3e466d73836d767341180573070eece35a1146b294b6389",
            ),
        ],
        ids=["default", "a0.3-panels16", "a0.9-panels4", "a0.5-positive-lambda"],
    )
    def test_golden_bytes(self, argv, digest, capsys):
        code, out, _ = run(["verify", *argv], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_scheme_flag_is_the_default(self, capsys):
        plain = run(["verify", "--alpha", "0.5", "--s", "0.5"], capsys)
        flagged = run(["verify", "--alpha", "0.5", "--s", "0.5", "--scheme", "gauss_legendre"], capsys)
        assert flagged == plain

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["--scheme", "adaptive_simpson"], None),
            ([], "scheme = adaptive_simpson\n"),
            ([], "scheme = midpoint\n"),
        ],
        ids=["flag-simpson", "config-simpson", "config-midpoint"],
    )
    def test_unknown_scheme_exits_2(self, argv, config, capsys, tmp_path):
        if config is not None:
            path = tmp_path / "verify.cfg"
            path.write_text(config)
            argv = [*argv, "--config", str(path)]
        code, out, err = run(["verify", "--alpha", "0.5", "--s", "0.5", *argv], capsys)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err


FAST_SOLVE = ["--dt", "0.02", "--horizon", "1", "--nx", "33", "--window", "8", "--alpha", "0.8"]
SOLVE_CSVS = ("value.csv", "policy.csv", "residual.csv")
# frozen SHA-256 of the SOLVE_CSVS of `solve --problem lq1d FAST_SOLVE`
LQ1D_GOLDEN = (
    "be959f1bd64f4b6deaf80999ec05aa15c136c22e3a0e4f47c00f3c4d9e14a3bb",
    "f92b3eaa813a58731e3d5a48a9758cfd0462440d98ce72bc59221ac661f27157",
    "a47aa90979b052e838dce7a093b450b1dbedaa964b7ad9c013076faffe50774d",
)


def _digests(outdir):
    return tuple(hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in SOLVE_CSVS)


class TestSolve:
    def test_writes_three_csvs_and_summary(self, capsys, tmp_path):
        code, out, _ = run(["solve", "--problem", "lq1d", *FAST_SOLVE, "--out", str(tmp_path)], capsys)
        assert code == 0
        assert out.startswith("V(x0,0) = ")
        float(out.split("=")[1])
        for name in ("value.csv", "policy.csv", "residual.csv"):
            assert (tmp_path / name).exists()
        with open(tmp_path / "value.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x", "V"]
        assert len({row[1] for row in rows[1:] if row[0] == "0"}) == 33

    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["solve", *FAST_SOLVE, "--out", str(a)], capsys)[0] == 0
        assert run(["solve", *FAST_SOLVE, "--out", str(b)], capsys)[0] == 0
        for name in ("value.csv", "policy.csv", "residual.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_env_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MLHJB_OUT", str(tmp_path))
        code, _, _ = run(["solve", *FAST_SOLVE], capsys)
        assert code == 0
        assert (tmp_path / "value.csv").exists()

    def test_out_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        envdir = tmp_path / "env"
        envdir.mkdir()
        monkeypatch.setenv("MLHJB_OUT", str(envdir))
        outdir = tmp_path / "flag"
        code, _, _ = run(["solve", *FAST_SOLVE, "--out", str(outdir)], capsys)
        assert code == 0
        assert (outdir / "value.csv").exists()
        assert not (envdir / "value.csv").exists()

    def test_bad_dt_exits_2(self, capsys, tmp_path):
        code, _, err = run(["solve", "--dt", "0", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "dt" in err

    @pytest.mark.parametrize("stride", ["0", "-5"])
    def test_bad_stride_exits_2_before_writing(self, stride, capsys, tmp_path):
        code, out, err = run(["solve", "--problem", "zero1d", "--stride=" + stride, "--out", str(tmp_path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--stride" in err
        assert list(tmp_path.glob("*.csv")) == []

    def test_divergence_exits_3(self, capsys, tmp_path):
        code, _, err = run(
            ["solve", "--problem", "static1d", "--lambda", "5", "--alpha", "0.8", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert err.startswith("error: value field diverged") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, summary",
        [
            # d = E_0.5(-2) = erfcx(2) at every step: dt (1 - d^160) / (1 - d) = 0.3357487890498094
            (["--lambda=-4", "--dt", "0.25"], "V(x0,0) = 0.335748789050"),
            (["--lambda=-1e300", "--horizon", "0.05", "--dt", "0.01"], "V(x0,0) = 0.010000000000"),
        ],
        ids=["coarse-dt", "huge-rate"],
    )
    def test_any_dt_and_rate_solve_quietly(self, argv, summary, capsys, tmp_path):
        code, out, err = run(["solve", "--problem", "static1d", "--alpha", "0.5", *argv, "--out", str(tmp_path)], capsys)
        assert (code, err) == (0, "")
        assert summary in out

    @pytest.mark.parametrize("argv", [["--alpha", "5e-17"], ["--alpha", "1e-300", "--window", "100"]])
    def test_alpha_below_its_floor_exits_2(self, argv, capsys, tmp_path):
        # 1 - alpha rounds to 1; the error names alpha, not the residual's derivative order
        base = ["solve", "--problem", "lq1d", "--horizon", "0.1", "--dt", "0.01", "--nx", "9", "--out", str(tmp_path)]
        code, out, err = run([*base, *argv], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: alpha must exceed 2^-54") and err.count("\n") == 1
        # below 2^-53, but above 2^-54: 1 - alpha rounds to 1 - 2^-53 and the solve runs
        code, out, _ = run([*base, "--alpha", "1.1e-16"], capsys)
        assert code == 0 and "V(x0,0) = 0.014739877051" in out

    def test_unknown_problem_exits_2(self, capsys):
        assert run(["solve", "--problem", "nosuch"], capsys)[0] == 2

    # frozen SHA-256 of (value.csv, policy.csv, residual.csv): the bytes of a
    # solve are a contract (see README), and repeat-run identity alone cannot
    # catch a change in formatting
    @pytest.mark.parametrize(
        "argv, digests",
        [
            (["--problem", "lq1d", *FAST_SOLVE], LQ1D_GOLDEN),
            (
                # 2-D grid, every 3rd slice, residual warm-up rows skipped
                ["--problem", "osc2d", "--dt", "0.02", "--horizon", "0.4", "--nx", "9", "--window", "8",
                 "--alpha", "0.8", "--stride", "3"],
                (
                    "db2fde2b1ab595c10bbbbcbf88ff5b23a1f26ccc1519480d67d4a3dbfc68ec3e",
                    "ee4c63898e6fad361e016569d60f2e2f920412a7f1449cfe2f3796f110c74637",
                    "bd416e563516a657e650d272928602bde2bb89a0fd1bfa8da2e351eaa5668165",
                ),
            ),
            (
                # extrapolate_linear boundary
                ["--problem", "bounded1d", "--dt", "0.02", "--horizon", "0.5", "--nx", "17", "--window", "8",
                 "--alpha", "0.8"],
                (
                    "19a953fb31a675cc7691c1058bf1b22eeb65b45537ff29250d28119153f6a35a",
                    "5726feb68d69c920230556e31ce689270bf54b52a1c57af6d43ac6c0d3318554",
                    "217031d70436172228c966a56c7afd41d63445b690cd75835a83434126c63bfb",
                ),
            ),
            (
                # all-zero values
                ["--problem", "zero1d", "--alpha", "0.8"],
                (
                    "46f298768080ed1ef19112f0ebf7518bc1cd594c55a5dc3214af48aaf968eb4b",
                    "f867a34ed445efb13458e155a96d3c32c5867c3c83e874e229cca03610af50e4",
                    "e8408342eae15d83f2660251e24176405b4291e0f6d153cd7b5ae9954f3783d3",
                ),
            ),
        ],
        ids=["lq1d", "osc2d-stride", "bounded1d", "zero1d"],
    )
    def test_golden_bytes(self, argv, digests, capsys, tmp_path):
        assert run(["solve", *argv, "--out", str(tmp_path)], capsys)[0] == 0
        assert _digests(tmp_path) == digests

    def test_policy_rows_match_per_cell_format(self, tmp_path):
        # a two-column control grid whose labels print in exponent form, as -0 and with 12 digits
        grid = np.array([[-0.0, 1e-7], [1 / 3, -2.5e15], [123456789.012345, 0.5]])
        axes = (np.linspace(-1.0, 1.0, 3), np.array([0.0, 1e-5]))
        times = [0.0, 0.1]
        index = [np.array([[0, 1], [2, 0], [1, 1]], dtype=np.int32), np.array([[2, 2], [0, 1], [1, 0]], dtype=np.int32)]
        path = tmp_path / "policy.csv"
        cli._write_field_csv(str(path), ["t", "x1", "x2", "u1", "u2"], axes, zip(times, index), grid)
        want = ["t,x1,x2,u1,u2"]
        for t, idx in zip(times, index):
            for (x1, x2), j in zip(itertools.product(*axes), idx.ravel()):
                want.append(",".join("%.12g" % v for v in (t, x1, x2, *grid[j])))
        assert path.read_text() == "\n".join(want) + "\n"
        assert "-0,1e-07" in want[1] and "0.333333333333,-2.5e+15" in want[2]

    def test_existing_files_are_replaced(self, capsys, tmp_path):
        # a longer value.csv must leave no stale tail, and a symlinked
        # policy.csv becomes a regular file without touching its target
        out = tmp_path / "out"
        out.mkdir()
        (out / "value.csv").write_bytes(b"9" * 100_000)
        target = tmp_path / "elsewhere.csv"
        target.write_bytes(b"keep\n")
        (out / "policy.csv").symlink_to(target)
        argv = ["solve", "--problem", "lq1d", *FAST_SOLVE, "--out", str(out)]
        assert run(argv, capsys)[0] == 0
        assert _digests(out) == LQ1D_GOLDEN
        assert not (out / "policy.csv").is_symlink()
        assert target.read_bytes() == b"keep\n"
        assert run(argv, capsys)[0] == 0
        assert _digests(out) == LQ1D_GOLDEN

    def test_bad_x0_exits_2_before_writing(self, capsys, tmp_path):
        code, _, err = run(["solve", "--problem", "osc2d", "--x0", "1", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "--x0 must have one component per state dimension of osc2d (2), got 1" in err
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize(
        "problem, x0",
        [("lq1d", "-2.001"), ("lq1d", "2.001"), ("lq1d", "5"), ("lq1d", "nan"), ("osc2d", "1,2.5"), ("osc2d", "-3,0")],
    )
    def test_x0_outside_box_exits_2_before_writing(self, problem, x0, capsys, tmp_path):
        code, _, err = run(["solve", "--problem", problem, "--x0=" + x0, "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "lies outside the state box" in err
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize("x0", ["-2", "2"])
    def test_x0_on_box_edge_is_accepted(self, x0, capsys, tmp_path):
        code, out, _ = run(["solve", "--problem", "lq1d", *FAST_SOLVE, "--x0=" + x0, "--out", str(tmp_path)], capsys)
        assert code == 0
        assert out.startswith("V(x0,0) = ")

    def test_stride_thins_slices(self, capsys, tmp_path):
        code, _, _ = run(["solve", *FAST_SOLVE, "--stride", "25", "--out", str(tmp_path)], capsys)
        assert code == 0
        with open(tmp_path / "value.csv", newline="") as fh:
            tcol = {row[0] for row in list(csv.reader(fh))[1:]}
        assert tcol == {"0", "0.5", "1"}

    def test_one_residual_row_per_written_slice(self, capsys, tmp_path, monkeypatch):
        # step nt - 1 = 49 is off the stride: it is a policy row, not a value or residual row
        from mlhjb import hjb

        deriv, calls = hjb.rl_window_deriv, []

        def counted(*args, **kwargs):
            calls.append(1)
            return deriv(*args, **kwargs)

        monkeypatch.setattr(hjb, "rl_window_deriv", counted)
        code, _, _ = run(["solve", "--problem", "lq1d", *FAST_SOLVE, "--stride", "3", "--out", str(tmp_path)], capsys)
        assert code == 0
        with open(tmp_path / "residual.csv", newline="") as fh:
            written = {row[0] for row in list(csv.reader(fh))[1:]}
        assert len(written) == 14
        assert len(calls) == len(written)

    def test_policy_times_are_value_times_with_the_last_decision(self, capsys, tmp_path):
        # nt = 201 is a multiple of the default's 201 slices: both files use the value stride
        code, _, _ = run(["solve", "--problem", "zero1d", "--horizon", "2.01", "--out", str(tmp_path)], capsys)
        assert code == 0
        times = {}
        for name in ("value.csv", "policy.csv"):
            with open(tmp_path / name, newline="") as fh:
                times[name] = sorted({float(row[0]) for row in list(csv.reader(fh))[1:]})
        assert len(times["value.csv"]) == 102
        assert times["policy.csv"] == times["value.csv"][:-1]


class TestOutputErrors:
    # an output path that cannot be written is a usage error, not "tolerance unmet"
    @pytest.mark.parametrize(
        "argv",
        [
            ["ml", "--z", "1"],
            ["verify", "--alpha", "0.5", "--s", "0.5"],
            ["cost", "--problem", "zero1d"],
            ["solve", "--problem", "zero1d", "--horizon", "0.1"],
        ],
        ids=["ml", "verify", "cost", "solve"],
    )
    def test_directory_as_output_exits_2(self, argv, capsys, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        if argv[0] == "solve":
            (out / "policy.csv").mkdir()
        code, stdout, err = run([*argv, "--out", str(out)], capsys)
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestInfiniteHorizon:
    # an infinite horizon has no step count; it is a domain error, not a crash
    @pytest.mark.parametrize("command", ["solve", "cost"])
    def test_exits_2(self, command, capsys, tmp_path):
        code, out, err = run([command, "--problem", "zero1d", "--horizon", "inf", "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "horizon" in err


class TestSubStepHorizon:
    # a horizon that rounds to zero steps has no march and no rollout
    @pytest.mark.parametrize(
        "argv",
        [
            ["cost", "--dt", "1", "--horizon", "1e-10"],
            ["cost", "--problem", "static1d", "--dt", "0.01", "--horizon", "1e-11"],
            ["solve", "--dt", "1", "--horizon", "1e-10"],
        ],
        ids=["cost", "cost-static1d", "solve"],
    )
    def test_exits_2(self, argv, capsys, tmp_path):
        code, out, err = run([*argv, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "at least one dt step" in err
        assert not (tmp_path / "o").exists()


class TestUnallocatableSizes:
    # every count here fails at once: past numpy's sys.maxsize-byte cap, or petabytes past the address space
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cost", "--problem", "static1d", "--dt", "1", "--horizon", "1e15"], "Unable to allocate"),
            (["cost", "--problem", "static1d", "--dt", "1", "--horizon", "2e18"], "dt steps"),
            (["cost", "--problem", "static1d", "--dt", "1", "--horizon", "1e300"], "dt steps"),
            (["solve", "--problem", "osc2d", "--nx", "1000000000000000"], "Unable to allocate"),
            (["solve", "--problem", "lq1d", "--nx", "2000000000000000000"], "nx must be below"),
        ],
        ids=["cost-horizon-1e15", "cost-horizon-2e18", "cost-horizon-1e300", "solve-osc2d-nx-1e15", "solve-lq1d-nx-2e18"],
    )
    def test_exits_2(self, argv, message, capsys, tmp_path):
        code, out, err = run([*argv, "--out", str(tmp_path / "o")], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = 0.02\nhorizon = 1\nnx = 17  # coarse\nwindow = 8\nlambda = -0.25\nalpha = 0.8\n")
        code, _, _ = run(["solve", "--config", str(cfg), "--out", str(tmp_path)], capsys)
        assert code == 0
        with open(tmp_path / "value.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len({row[1] for row in rows[1:] if row[0] == "0"}) == 17

    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = 0.02\nhorizon = 1\nnx = 17\nwindow = 8\nalpha = 0.8\n")
        code, _, _ = run(["solve", "--config", str(cfg), "--nx", "9", "--out", str(tmp_path)], capsys)
        assert code == 0
        with open(tmp_path / "value.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len({row[1] for row in rows[1:] if row[0] == "0"}) == 9

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nxx = 17\n")
        code, _, err = run(["solve", "--config", str(cfg)], capsys)
        assert code == 2
        assert "nxx" in err

    def test_malformed_line_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert run(["ml", "--z", "1", "--config", str(cfg)], capsys)[0] == 2

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert run(["ml", "--z", "1", "--config", str(tmp_path / "absent.cfg")], capsys)[0] == 2

    def test_config_for_ml(self, capsys, tmp_path):
        cfg = tmp_path / "ml.cfg"
        cfg.write_text("alpha = 1\nz = 1\n")
        code, out, _ = run(["ml", "--config", str(cfg)], capsys)
        assert code == 0
        assert out == "2.718281828459\n"

    def test_lambda_is_unknown_for_ml(self, capsys, tmp_path):
        cfg = tmp_path / "ml.cfg"
        cfg.write_text("z = 1\nlambda = 1\n")
        code, out, err = run(["ml", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "lam" in err

    def test_comment_and_blank_lines_are_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "ml.cfg"
        cfg.write_text("# E_1(1) = e\n\n   # indented comment\nalpha = 1\nz = 1\n")
        code, out, _ = run(["ml", "--config", str(cfg)], capsys)
        assert (code, out) == (0, "2.718281828459\n")

    def test_empty_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "ml.cfg"
        cfg.write_text("z = 1\n= 1\n")
        code, out, err = run(["ml", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert ":2: empty key" in err

    def test_config_value_is_checked_like_its_flag(self, capsys, tmp_path):
        cfg = tmp_path / "cost.cfg"
        cfg.write_text("feedback = pid\n")
        code, out, err = run(["cost", "--problem", "zero1d", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "--feedback" in err and "pid" in err


def _seeded_policy(path, dim_x, seed, newline="\n"):
    """Write a seeded t,x...,u policy file with shuffled rows; return its text.

    Node values are written once each in one of three float formats, and the
    controls, a stabilizing feedback plus noise, in a format drawn per row.
    """
    rng = np.random.default_rng([seed, dim_x])
    fmts = (repr, "{:.12g}".format, "{:.6e}".format)
    nt, nx = (21, 41) if dim_x == 1 else (11, 9)
    times = np.linspace(0.0, 1.0, nt) + rng.uniform(0.0, 0.01, nt) * (np.arange(nt) > 0)
    axes = [np.sort(rng.uniform(-2.0, 2.0, nx)) for _ in range(dim_x)]
    cols = [[fmts[k](v) for k, v in zip(rng.integers(0, 3, len(vals)), vals.tolist())] for vals in (times, *axes)]
    nodes = np.stack(np.meshgrid(*[np.arange(len(c)) for c in cols], indexing="ij"), axis=-1).reshape(-1, 1 + dim_x)
    rows = []
    for node in rng.permutation(nodes):
        x = np.array([axes[d][node[1 + d]] for d in range(dim_x)])
        u = float(np.clip(-1.2 * x.sum() + rng.normal(0.0, 0.05), -1.0, 1.0))
        rows.append(",".join([*(cols[d][i] for d, i in enumerate(node)), fmts[rng.integers(0, 3)](u)]))
    xcols = ["x"] if dim_x == 1 else ["x1", "x2"]
    text = newline.join([",".join(["t", *xcols, "u"]), *rows]) + newline
    path.write_bytes(text.encode("ascii"))
    return text


def _policy_by_float(text, dim_x):
    """(controls, control_grid, times, axes) of a policy file, each cell read by float()."""
    rows = [[float(c) for c in line.split(",")] for line in text.splitlines()[1:]]
    nodes = [sorted({row[d] for row in rows}) for d in range(1 + dim_x)]
    where = [{v: i for i, v in enumerate(vals)} for vals in nodes]
    controls = np.full([len(vals) for vals in nodes], -1, dtype=np.intp)
    for r, row in enumerate(rows):
        controls[tuple(where[d][row[d]] for d in range(1 + dim_x))] = r
    grid = np.array([row[1 + dim_x :] for row in rows])
    return controls, grid, np.array(nodes[0]), tuple(np.array(vals) for vals in nodes[1:])


# frozen `cost --policy` stdout on the seeded files
_SEEDED_COST = {1: "0.096650187214\n", 2: "0.161939875678\n"}


class TestCost:
    def test_zero_cost_line(self, capsys):
        code, out, _ = run(["cost", "--problem", "zero1d"], capsys)
        assert code == 0
        assert out == "0.000000000000\n"

    def test_constant_cost_limit(self, capsys):
        code, out, _ = run(["cost", "--problem", "static1d", "--lambda", "-1"], capsys)
        assert code == 0
        assert float(out) == pytest.approx(1.0, abs=1e-3)

    def test_static1d_fractional_matches_closed_form(self, capsys):
        # T E_{0.8,2}(-T^0.8) at the default T = 40, where the kernel's float64
        # series cancels 17 digits; trapezoid error O(dt^1.8) at dt = 0.01
        code, out, _ = run(["cost", "--problem", "static1d", "--alpha", "0.8", "--lambda=-1"], capsys)
        assert code == 0
        assert float(out) == pytest.approx(2.2267756389947, abs=2.5e-4)

    def test_catalog_commands_do_not_import_mpmath(self, tmp_path):
        script = (
            "import sys\n"
            "from mlhjb import cli\n"
            "assert cli.main(['cost', '--problem', 'static1d', '--alpha', '0.8', '--lambda=-1']) == 0\n"
            "assert cli.main(['verify', '--alpha', '0.5']) == 0\n"
            f"assert cli.main(['solve', '--problem', 'lq1d', *{FAST_SOLVE!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "assert cli.main(['ml', '--alpha', '0.3', '--beta', '2', '--z', '-3']) == 0\n"
            "assert cli.main(['ml', '--alpha', '0.5', '--z', '26']) == 0\n"
            "print('mpmath' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "False"

    def test_package_does_not_import_mpmath(self):
        package = os.path.dirname(os.path.abspath(cli.__file__))
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), name)
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        modules = [node.module or ""]
                    else:
                        continue
                    assert not any(m.split(".")[0] == "mpmath" for m in modules), name

    def test_lqr_feedback_near_riccati_value(self, capsys):
        code, out, _ = run(["cost", "--problem", "lq1d", "--feedback", "lqr", "--x0", "1.0"], capsys)
        assert code == 0
        assert float(out) == pytest.approx(0.3903882032022076, rel=0.02)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--problem", "lq1d", "--x0", "nan"], "lies outside the state box of lq1d"),
            (["--problem", "static1d", "--x0=nan", "--alpha", "0.8"], "lies outside the state box of static1d"),
            (["--problem", "lq1d", "--x0=-inf"], "lies outside the state box of lq1d"),
            (["--problem", "lq1d", "--x0", "2.001"], "lies outside the state box of lq1d"),
            (["--problem", "osc2d", "--x0=1,2.5"], "lies outside the state box of osc2d"),
            (["--problem", "osc2d", "--x0", "1"], "--x0 must have one component per state dimension of osc2d (2), got 1"),
            (["--problem", "lq1d", "--x0", "1,2"], "--x0 must have one component per state dimension of lq1d (1), got 2"),
        ],
        ids=[
            "lq1d-nan", "static1d-nan", "lq1d-inf", "lq1d-above", "osc2d-x2-above", "osc2d-one-component",
            "lq1d-two-components",
        ],
    )
    def test_bad_x0_exits_2_before_reading_policy(self, argv, message, capsys, tmp_path):
        # the policy file is missing, so an error that names x0 shows that x0 was checked first
        code, out, err = run(["cost", *argv, "--policy", str(tmp_path / "absent.csv")], capsys)
        assert (code, out) == (2, "")
        assert message in err

    def test_missing_policy_exits_2(self, capsys, tmp_path):
        code, out, err = run(["cost", "--policy", str(tmp_path / "absent.csv")], capsys)
        assert (code, out) == (2, "")
        assert "cannot read policy file" in err

    def test_lqr_feedback_without_a_finite_root_exits_2(self, capsys):
        code, out, err = run(["cost", "--problem", "lq1d", "--feedback", "lqr", "--lambda=-1e300"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: the Riccati root is not a finite float") and err.count("\n") == 1

    def test_lqr_feedback_other_problem_exits_2(self, capsys):
        assert run(["cost", "--problem", "static1d", "--feedback", "lqr"], capsys)[0] == 2

    def test_policy_replay_matches_summary(self, capsys, tmp_path):
        code, out, _ = run(
            ["solve", "--dt", "0.02", "--horizon", "2", "--nx", "65", "--window", "8", "--stride", "1", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        v0 = float(out.split("=")[1])
        code, out, _ = run(
            [
                "cost",
                "--policy", str(tmp_path / "policy.csv"),
                "--dt", "0.02",
                "--horizon", "2",
                "--x0", "1.0",
            ],
            capsys,
        )
        assert code == 0
        assert float(out) == pytest.approx(v0, abs=0.05)

    def test_escaping_policy_exits_3(self, capsys, tmp_path):
        path = tmp_path / "policy.csv"
        path.write_text("t,x,u\n0,-2,2.5\n0,2,2.5\n")
        code, _, err = run(["cost", "--policy", str(path), "--dt", "0.01", "--horizon", "5"], capsys)
        assert code == 3
        assert "escaped" in err

    def test_nan_policy_exits_3(self, capsys, tmp_path):
        # a NaN control makes a NaN state, which escapes as an out-of-box one does
        path = tmp_path / "policy.csv"
        path.write_text("t,x,u\n0,-2,nan\n0,2,nan\n")
        code, out, err = run(["cost", "--policy", str(path), "--dt", "0.01", "--horizon", "5"], capsys)
        assert (code, out) == (3, "")
        assert "escaped the inflated state box at t = 0.01" in err

    def test_malformed_policy_exits_2(self, capsys, tmp_path):
        path = tmp_path / "policy.csv"
        path.write_text("t,x,u\n0,-2\n")
        code, _, err = run(["cost", "--policy", str(path)], capsys)
        assert code == 2
        assert "does not match" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,x,u\n0,-2\n0,2\n", "does not match"),
            ("t,x,u\n0,-2,0.1,7\n0,2,0.1,7\n", "does not match"),
            ("t,x,u\n0,-2,0.1\n0,2\n", "ragged rows"),
            ("t,x,u\n0,-2,0.1\n0,2,0.1,7\n", "ragged rows"),
            ("t,x,u\n0,-2,0.1\n0,2,abc\n", "non-numeric"),
            ("t,x,u\n0,-2,0.1\n\n0,2,0.1\n", "ragged rows"),
            ("t,x,u\n0,-2,0.1\n0,2,0.1\n\n", "ragged rows"),
            ("t,x,u\n0,-2,0.1\x0c\n0,2,0.1\n", "ragged rows"),
            # float() reads these cells, np.loadtxt does not
            ("t,x,u\n0,-2,0.1\n0,2,1_0\n", "non-numeric"),
            ("t,x,u\n0,-2,0.1\n0,2,\u0661\n", "non-numeric"),
            ("t,x,u\r0,-2,0.1\r0,2,0.1\r", "line end other than LF or CRLF"),
            # latin-1 bytes, which np.loadtxt alone would read
            (b"t,x,u\n0,-2,0.1\xa0\n0,2,0.1\n", "is not UTF-8 text"),
            (b"t,x,u\xff\n0,-2,0.1\n0,2,0.1\n", "is not UTF-8 text"),
            # lq1d has one state and one control: neither x2 nor u2 may be read as its control
            ("t,x1,x2,u\n0,-2,-2,0.1\n0,-2,2,0.1\n0,2,-2,0.1\n0,2,2,0.1\n", "does not match"),
            ("t,x,u1,u2\n0,-2,0.1,0.3\n0,2,0.1,0.3\n", "does not match"),
            # a non-finite time or coordinate is no grid node; a non-finite control parses
            ("t,x,u\n0,-1,0.5\n0,1,0.5\nnan,-1,0.5\nnan,1,0.5\n", "line 4 column 1: non-finite t or x cell nan"),
            ("t,x,u\n0,-1,0.5\n0,1,0.5\ninf,-1,0.5\ninf,1,0.5\n", "line 4 column 1: non-finite t or x cell inf"),
            ("t,x,u\n0,-1,0.5\n0,nan,0.5\n", "line 3 column 2: non-finite t or x cell nan"),
            ("t,x,u\n0,-1,0.5\n0,-inf,0.5\n", "line 3 column 2: non-finite t or x cell -inf"),
        ],
        ids=[
            "all-short", "all-long", "short-row", "long-row", "non-numeric", "blank-line", "blank-last", "form-feed",
            "underscore", "arabic-indic-digit", "lone-cr", "latin-1-cell", "latin-1-header", "osc2d-file", "extra-control",
            "nan-time", "inf-time", "nan-coordinate", "minus-inf-coordinate",
        ],
    )
    def test_policy_row_errors_exit_2(self, text, message, capsys, tmp_path):
        path = tmp_path / "policy.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        code, _, err = run(["cost", "--policy", str(path)], capsys)
        assert code == 2
        assert message in err

    def test_policy_cells_parse_as_float(self, tmp_path):
        cells = ["-0", "1e-300", "0.1", "-2.5e3", " 7 "]
        path = tmp_path / "policy.csv"
        path.write_text("t,x,u\n" + "".join(f"0,{k},{c}\n" for k, c in enumerate(cells)))
        got = cli._read_policy(str(path), 1).control_grid[:, 0]
        want = np.array([float(c) for c in cells])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_policy_cells_parse_in_c_as_float(self, tmp_path):
        # no cell here needs float()'s own reader, so np.loadtxt parses them all
        cells = ["-0", "0", "1e-300", "4.9e-324", "-2.5e3", "+.5", "5.", " 7 ", "\t-1", "nan", "-inf", "Infinity", "1E+2"]
        path = tmp_path / "policy.csv"
        path.write_text("t,x,u\n" + "".join(f"0,{k},{c}\n" for k, c in enumerate(cells)))
        got = cli._read_policy(str(path), 1).control_grid[:, 0]
        want = np.array([float(c) for c in cells])
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize(
        "dim_x, newline", [(1, "\n"), (2, "\n"), (1, "\r\n"), (2, "\r\n")], ids=["1d", "2d", "1d-crlf", "2d-crlf"]
    )
    def test_policy_reads_as_float_reference(self, dim_x, newline, capsys, tmp_path):
        # np.loadtxt parses LF and CRLF files alike
        path = tmp_path / "policy.csv"
        text = _seeded_policy(path, dim_x, seed=7, newline=newline)
        got = cli._read_policy(str(path), dim_x)
        controls, grid, times, axes = _policy_by_float(text, dim_x)
        for a, b in zip((got.controls, got.control_grid, got.times, *got.axes), (controls, grid, times, *axes)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        problem = "lq1d" if dim_x == 1 else "osc2d"
        x0 = "0.5" if dim_x == 1 else "0.5,-0.25"
        argv = ["cost", "--problem", problem, "--alpha", "0.8", "--policy", str(path), "--dt", "0.01", "--horizon", "1", "--x0=" + x0]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert out == _SEEDED_COST[dim_x]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_policy_read_holds_about_one_copy(self, newline, tmp_path):
        # 201 x 30 x 30 = 180,900 rows, about 4 MB
        import mlhjb.hjb  # noqa: F401  (loaded by the read; not counted in its peak)

        times, axis = np.linspace(0.0, 2.0, 201), np.linspace(-2.0, 2.0, 30)
        t, x1, x2 = (g.ravel() for g in np.meshgrid(times, axis, axis, indexing="ij"))
        path = tmp_path / "policy.csv"
        np.savetxt(path, np.column_stack([t, x1, x2, np.clip(-x1 - x2, -1.0, 1.0)]), fmt="%.6g",
                   delimiter=",", newline=newline, header="t,x1,x2,u", comments="")
        size = os.path.getsize(path)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            policy = cli._read_policy(str(path), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * size, f"peak {peak / size:.2f} x the file's {size} bytes"
        assert policy.control_grid.base is None
        assert policy.control_grid.shape == (t.size, 1)

    @pytest.mark.parametrize("kind", ["policy", "config"])
    def test_non_utf8_file_exits_2(self, kind, capsys, tmp_path):
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(b"t,x,u\n0,-2,0.1\xff\n0,2,0.1\n" if kind == "policy" else b"alpha = 0.8 # \xff\n")
        code, out, err = run(["cost", "--problem", "zero1d", f"--{kind}", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {kind} file {str(path)!r} is not UTF-8 text\n"

    def test_header_only_policy_exits_2(self, capsys, tmp_path):
        path = tmp_path / "policy.csv"
        path.write_text("t,x,u\n")
        assert run(["cost", "--policy", str(path)], capsys)[0] == 2

    def test_incomplete_grid_policy_exits_2(self, capsys, tmp_path):
        path = tmp_path / "policy.csv"
        path.write_text("t,x,u\n0,-2,0.1\n0,2,0.1\n1,-2,0.1\n")
        assert run(["cost", "--policy", str(path)], capsys)[0] == 2

    def test_duplicate_node_policy_exits_2(self, capsys, tmp_path):
        # four rows for a 2 x 2 grid, but (0, -2) twice and (0.05, -2) never
        path = tmp_path / "policy.csv"
        path.write_text("t,x,u\n0,-2,0.5\n0,-2,0.5\n0,2,0.5\n0.05,2,0.5\n")
        code, _, err = run(["cost", "--policy", str(path)], capsys)
        assert code == 2
        assert "repeats" in err


class TestParser:
    def test_no_subcommand_exits_2(self, capsys):
        assert cli.main([]) == 2

    def test_bad_flag_exits_2(self, capsys):
        assert cli.main(["ml", "--nope"]) == 2

    def test_non_numeric_x0_exits_2(self, capsys):
        assert cli.main(["cost", "--x0", "a,b"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["cost", "--x0=1,,"], ["verify", "--s", "0.25,,1"], ["solve", "--x0=,1"]],
        ids=["cost-x0", "verify-s", "solve-x0"],
    )
    def test_empty_list_cell_exits_2(self, argv, capsys, tmp_path):
        code, out, err = run([*argv, "--out", str(tmp_path / "out")], capsys)
        assert (code, out) == (2, "")
        assert "expected comma-separated floats" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ml", "--z", "1", "--seed", "3"],
            ["verify", "--seed", "3"],
            ["solve", "--seed", "3"],
            ["cost", "--seed", "3"],
            ["solve", "--tol", "1e-3"],
            ["cost", "--tol", "1e-3"],
            ["cost", "--nx", "17"],
            ["ml", "--z", "1", "--tol", "1e-3"],
            ["ml", "--z", "1", "--lambda", "1"],
        ],
    )
    def test_removed_flag_exits_2(self, argv, capsys):
        assert cli.main(argv) == 2


# modules a command should not load, where it matters for start-up time
_HEAVY = ("mlhjb.hjb", "mlhjb.catalog", "mlhjb.fracderiv", "mlhjb.defect", "numpy.polynomial", "numpy.ma", "csv")


class TestImports:
    # "{tmp}" in argv stands for a fresh directory, which holds a 2 x 2 lq1d policy.csv
    @pytest.mark.parametrize(
        "argv, absent",
        [
            ([], _HEAVY),
            (["ml", "--z", "1"], ("mlhjb.hjb", "mlhjb.fracderiv", "mlhjb.defect", "numpy.polynomial", "csv")),
            (["verify", "--alpha", "0.5", "--s", "0.5"], ("mlhjb.hjb", "mlhjb.fracderiv", "csv")),
            (["cost", "--problem", "zero1d"], ("mlhjb.defect", "numpy.polynomial", "csv")),
            (
                ["cost", "--policy", "{tmp}/policy.csv", "--horizon", "0.002", "--dt", "0.001", "--x0=0.5"],
                ("mlhjb.defect", "numpy.polynomial", "numpy.ma", "csv"),
            ),
            (["solve", "--problem", "lq1d", *FAST_SOLVE, "--out", "{tmp}"], ("mlhjb.defect", "numpy.polynomial", "csv")),
        ],
        ids=["import", "ml", "verify", "cost", "cost-policy", "solve"],
    )
    def test_command_loads_only_its_modules(self, argv, absent, tmp_path):
        (tmp_path / "policy.csv").write_text("t,x,u\n0,-1,0.5\n0,1,0.5\n0.001,-1,0.5\n0.001,1,0.5\n")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        script = (
            "import sys\n"
            "from mlhjb import cli\n"
            f"assert not {argv!r} or cli.main({argv!r}) == 0\n"
            f"print(*(m for m in {_HEAVY!r} if m in sys.modules))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert res.returncode == 0, res.stderr
        loaded = res.stdout.splitlines()[-1].split()
        assert not set(loaded) & set(absent)

    def test_package_names_resolve(self):
        import mlhjb

        for name in mlhjb.__all__:
            assert getattr(mlhjb, name) is not None, name
        assert mlhjb.evaluate_cost is mlhjb.hjb.evaluate_cost
        assert mlhjb.catalog.get("zero1d").name == "zero1d"
        with pytest.raises(AttributeError):
            mlhjb.no_such_name
