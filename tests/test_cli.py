"""End-to-end CLI checks: exact output bytes, exit codes, config handling."""

import csv
import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mlhjb import cli

# coarse solves here use short memory windows on purpose
pytestmark = pytest.mark.filterwarnings("ignore:memory window")


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

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(["ml", "--alpha", "0", "--z", "2"], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_missing_z_exits_2(self, capsys):
        code, _, err = run(["ml", "--alpha", "1"], capsys)
        assert code == 2
        assert "--z" in err


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
        "argv, digest",
        [
            (["--alpha", "0.5"], "6186d33af9f0ffa783119302ab154a419c0e663daf505c8c12d677d8bf1dc44e"),
            (
                ["--alpha", "0.3", "--lambda=0.5", "--t", "0.7", "--s", "0.1,0.4,2.0", "--panels", "16",
                 "--scheme", "gauss_legendre"],
                "d9b8d6900b43d23ca9116d5fce2b4f9c8b2c3808b8cd7ce4440706bcdc0ff1a1",
            ),
            (
                ["--alpha", "0.9", "--lambda=-2", "--t", "3", "--s", "0.01,0.5", "--panels", "4"],
                "c66e1ebf2ebf60686a42d1330429df1b91a6257854922cc8328656a16f9bb54e",
            ),
            (
                ["--alpha", "0.5", "--lambda=1.5", "--t", "0.2", "--s", "0.05,1.0", "--panels", "8",
                 "--scheme", "gauss_legendre"],
                "9bb92c7ef38a96358a754ba9625555a05a3f0e82a285a5622bdc08619b4fa7fb",
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

    def test_divergence_exits_3(self, capsys, tmp_path):
        code, _, err = run(
            ["solve", "--problem", "static1d", "--lambda", "5", "--alpha", "0.8", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert "diverged" in err

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
        assert "--x0 must have 2 components" in err
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
            "print('mpmath' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "False"

    def test_lqr_feedback_near_riccati_value(self, capsys):
        code, out, _ = run(["cost", "--problem", "lq1d", "--feedback", "lqr", "--x0", "1.0"], capsys)
        assert code == 0
        assert float(out) == pytest.approx(0.3903882032022076, rel=0.02)

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
        ],
        ids=["all-short", "all-long", "short-row", "long-row", "non-numeric", "blank-line", "blank-last", "form-feed"],
    )
    def test_policy_row_errors_exit_2(self, text, message, capsys, tmp_path):
        path = tmp_path / "policy.csv"
        path.write_text(text)
        code, _, err = run(["cost", "--policy", str(path)], capsys)
        assert code == 2
        assert message in err

    def test_policy_cells_parse_as_float(self, tmp_path):
        cells = ["-0", "1e-300", "0.1", "-2.5e3", "1_0", " 7 "]
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
        [
            ["ml", "--z", "1", "--seed", "3"],
            ["verify", "--seed", "3"],
            ["solve", "--seed", "3"],
            ["cost", "--seed", "3"],
            ["solve", "--tol", "1e-3"],
            ["cost", "--tol", "1e-3"],
            ["cost", "--nx", "17"],
            ["ml", "--z", "1", "--tol", "1e-3"],
        ],
    )
    def test_removed_flag_exits_2(self, argv, capsys):
        assert cli.main(argv) == 2


# modules a command should not load, where it matters for start-up time
_HEAVY = ("mlhjb.hjb", "mlhjb.catalog", "mlhjb.fracderiv", "mlhjb.defect", "numpy.polynomial", "csv")


class TestImports:
    @pytest.mark.parametrize(
        "argv, absent",
        [
            ([], _HEAVY),
            (["ml", "--z", "1"], ("mlhjb.hjb", "mlhjb.fracderiv", "mlhjb.defect", "numpy.polynomial", "csv")),
            (["verify", "--alpha", "0.5", "--s", "0.5"], ("mlhjb.hjb", "mlhjb.fracderiv")),
            (["cost", "--problem", "zero1d"], ("mlhjb.defect", "numpy.polynomial", "csv")),
        ],
        ids=["import", "ml", "verify", "cost"],
    )
    def test_command_loads_only_its_modules(self, argv, absent):
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
