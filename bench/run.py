"""Benchmark of the ``mlhjb`` command line on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one ``mlhjb`` command in its own child process, run one
at a time from this process (the reference machine has 2 cores), so each
child's wall time, CPU time and peak RSS (from ``wait4``) are its own.  A
run repeats the workload's operations in passes, at least three and as many
more as fit in ``--seconds``; times are summed over the operations of each
one's mean over the passes.  Every output is checked against an oracle
(see ``oracle.py``).  The last line of stdout is one JSON object:
with ``--trace 0`` the end-to-end metrics; with ``--trace 1`` the passes run
traced (see ``spans.py``) and it holds the per-layer metrics.

Workloads, each loading one layer heavily and the others lightly:

- solve-lq1d: ``solve --problem lq1d --alpha 0.8 --horizon 1 --stride 40``;
  the backward march and the residual pass dominate, CSV output is small.
- solve-osc2d: ``solve --problem osc2d --alpha 0.8 --horizon 0.7 --nx 45``;
  CSV output dominates, and it runs the 2-D interpolation stencil.
- kernel-cost: ``cost --problem static1d --alpha 0.8`` at (lam, horizon)
  (-0.75, 18) and (-1, 13); nearly all time is the discount kernel over
  1,801 and 1,301 points.
- replay-verify: short commands on the CSV read path, the rollout and the
  defect quadrature: ``cost --policy`` on seeded policy files, ``cost
  --feedback lqr`` and a ``verify`` grid; many process starts.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle
import policygen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("solve-lq1d", "solve-osc2d", "kernel-cost", "replay-verify")
SETUP_PER_PASS = 2
MIN_PASSES = 3

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ops_ok": "share"}
PER_LAYER_UNITS = {
    "specfun.kernel.s": "s",
    "specfun.kernel.calls": "count",
    "specfun.kernel.points": "count",
    "specfun.ml_two.s": "s",
    "specfun.kernel_deriv.s": "s",
    "defect.delta_ml.s": "s",
    "defect.delta_ml.self_s": "s",
    "defect.delta_ml.calls": "count",
    "hjb.march_s": "s",
    "hjb.residual_s": "s",
    "hjb.march_step_us": "us",
    "fracderiv.rl_window_deriv.s": "s",
    "fracderiv.rl_window_deriv.calls": "count",
    "hjb.evaluate_cost.s": "s",
    "hjb.evaluate_cost.self_s": "s",
    "hjb.rollout_steps": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "cli.rows_written": "count",
    "cli.read_s": "s",
    "cli.bytes_read": "B",
    "trace.overhead_s": "s",
}


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    maxrss_kb: int


@dataclass
class Op:
    """One CLI command, the check of its output, and what the trace needs."""

    name: str
    argv: list[str]
    check: Callable[[Result], str | None]  # failure reason, or None when correct
    kind: str = "other"  # "solve" (writes CSVs) or "read" (replays a policy file)
    problem: str = ""
    outdir: str = ""
    policy: str = ""
    failures: list[str] = field(default_factory=list)


def child_env() -> dict:
    # one BLAS thread: on a small shared host, idle BLAS threads spinning
    # beside the interpreter add noise to CPU time and wall time
    return dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run_child(args: list[str], tag: str) -> Result:
    """Run ``child.py ARGS`` to completion; stdout and stderr go through files."""
    out_path = os.path.join(WORK, f"{tag}.out")
    err_path = os.path.join(WORK, f"{tag}.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, *args], stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return Result(proc.returncode, stdout, stderr, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


# ------------------------------------------------------------------- checks


def _float_line(res: Result) -> float:
    """The number on the last stdout line (after ``=`` if any), or NaN."""
    try:
        return float(res.stdout.strip().splitlines()[-1].split("=")[-1])
    except (ValueError, IndexError):
        return math.nan


def _ok_exit(res: Result) -> str | None:
    if res.rc != 0:
        return f"exit code {res.rc}: {res.stderr.strip()[-200:]}"
    return None


def _close(value: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)


def check_scalar(ref: float, rtol: float, atol: float = 0.0):
    def check(res: Result) -> str | None:
        bad = _ok_exit(res)
        if bad:
            return bad
        got = _float_line(res)
        if not _close(got, ref, rtol, atol):
            return f"printed {got!r}, oracle {ref!r} (rtol {rtol:g}, atol {atol:g})"
        return None

    return check


def _check_sampled(path: str, ref: dict, tol: float) -> str | None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != ref["header"] or len(lines) - 1 != ref["rows"]:
        return f"{os.path.basename(path)}: header or row count differs from the seed reference"
    for k, want in zip(range(1, len(lines), ref["every"]), ref["sample"]):
        got = [float(v) for v in lines[k].split(",")]
        if got[:-1] != want[:-1] or not _close(got[-1], want[-1], tol, tol):
            return f"{os.path.basename(path)} row {k}: {got} vs seed {want}"
    return None


def check_solve(ref: dict, tol: dict, v0: float, outdir: str):
    def check(res: Result) -> str | None:
        bad = _ok_exit(res)
        if bad:
            return bad
        got = _float_line(res)
        if not _close(got, v0, tol["v"], tol["v"]):
            return f"V(x0,0) = {got!r}, seed reference {v0!r}"
        with open(os.path.join(outdir, "policy.csv"), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != ref["policy_sha256"]:
                return "policy.csv differs from the seed reference"
        return _check_sampled(os.path.join(outdir, "value.csv"), ref["value"], tol["v"]) or _check_sampled(
            os.path.join(outdir, "residual.csv"), ref["residual"], tol["residual"]
        )

    return check


def check_verify(rows_ref: list[tuple], rtol: float, krtol: float):
    def check(res: Result) -> str | None:
        bad = _ok_exit(res)
        if bad:
            return bad
        lines = res.stdout.strip().splitlines()
        if lines[0] != "t,s,product,delta,composed,residual" or len(lines) != len(rows_ref) + 1:
            return f"unexpected table {res.stdout[:200]!r}"
        for line, (t, s, product, delta, composed) in zip(lines[1:], rows_ref):
            got = [float(v) for v in line.split(",")]
            if got[0] != t or got[1] != s:
                return f"row {line!r} is not (t, s) = ({t}, {s})"
            if not _close(got[3], delta, rtol):
                return f"delta({t}, {s}) = {got[3]!r}, oracle {delta!r} (rtol {rtol:g})"
            if not (_close(got[2], product, krtol) and _close(got[4], composed, krtol)):
                return f"kernel values at ({t}, {s}) differ from the oracle: {line!r}"
        return None

    return check


# ---------------------------------------------------------------- workloads


def ops_solve(problem: str, rng, ref: dict) -> list[Op]:
    solve = ref["solve"][problem]
    node = solve["x0"][int(rng.integers(len(solve["x0"])))]
    x0, v0 = node[:-1], node[-1]
    outdir = os.path.join(WORK, f"solve-{problem}")
    argv = [*oracle.solve_argv(problem), "--x0=" + ",".join(f"{v:.12g}" for v in x0), "--out", outdir]
    return [Op(f"solve {problem} x0={x0}", argv, check_solve(solve, ref["solve_tol"], v0, outdir),
               kind="solve", problem=problem, outdir=outdir)]


def ops_kernel_cost(rng, ref: dict) -> list[Op]:
    ops = []
    for entry in ref["static1d"]:
        # static1d's state is frozen and its cost constant, so x0 must not matter
        x0 = round(float(rng.uniform(-1.0, 1.0)), 6)
        argv = ["cost", "--problem", "static1d", "--alpha", repr(entry["alpha"]), "--lambda=" + repr(entry["lam"]),
                "--horizon", repr(entry["horizon"]), "--x0=" + repr(x0)]
        name = f"cost static1d lam={entry['lam']} horizon={entry['horizon']}"
        ops.append(Op(name, argv, check_scalar(entry["value"], 0.0, entry["atol"])))
    return ops


def ops_replay_verify(rng, seed: int, ref: dict) -> list[Op]:
    ops = []
    alpha, lam = oracle.SOLVE_ALPHA, oracle.SOLVE_LAM
    res = run_child(["policies", str(seed), WORK], "policies")
    if res.rc != 0:
        raise RuntimeError(f"writing the policy files failed: {res.stderr.strip()[-300:]}")
    for rep in json.loads(res.stdout):
        problem = rep["problem"]
        accepts(problem, seed)
        argv = ["cost", "--problem", problem, "--alpha", repr(alpha), "--policy", rep["path"],
                "--horizon", repr(rep["horizon"]), "--x0=" + ",".join(repr(v) for v in rep["x0"])]
        ops.append(Op(f"cost {problem} --policy", argv, check_scalar(rep["want"], oracle.ROLLOUT_RTOL),
                      kind="read", problem=problem, policy=rep["path"]))

    cfg = oracle.SOLVE_PROBLEMS["lq1d"]
    horizon = policygen.REPLAY["lq1d"]["horizon"]
    x0 = round(float(rng.uniform(-1.5, 1.5)), 6)
    gain = oracle.lqr_gain(lam)
    want = oracle.rollout_cost("lq1d", lambda x, t: [gain * x[0]], [x0], alpha, lam, cfg["dt"], horizon)
    argv = ["cost", "--problem", "lq1d", "--alpha", repr(alpha), "--feedback", "lqr",
            "--horizon", repr(horizon), "--x0=" + repr(x0)]
    ops.append(Op("cost lq1d --feedback lqr", argv, check_scalar(want, oracle.ROLLOUT_RTOL)))

    vref = ref["verify"]
    for a in oracle.VERIFY_ALPHAS:
        for lam_v in oracle.VERIFY_LAMS:
            kern = vref["kernel"][f"{a}/{lam_v}"]
            deltas = vref["delta"][f"{a}/{lam_v}"]
            for panels in oracle.VERIFY_PANELS:
                t = float(rng.choice(oracle.VERIFY_T_POOL))
                svals = sorted(float(s) for s in rng.choice(oracle.VERIFY_S_POOL, size=3, replace=False))
                rows = [(t, s, kern[repr(t)] * kern[repr(s)], deltas[f"{t!r}/{s!r}"], kern[repr(t + s)]) for s in svals]
                rtol = vref["delta_rtol"][str(panels)]
                # residual = product - delta - composed; it stays under this bound
                # exactly when delta is within rtol of the oracle
                tol = rtol * max(abs(r[3]) for r in rows) + 1e-12
                argv = ["verify", "--alpha", repr(a), "--lambda=" + repr(lam_v), "--t", repr(t),
                        "--s", ",".join(repr(s) for s in svals), "--panels", str(panels),
                        "--scheme", "gauss_legendre", "--tol", repr(tol)]
                ops.append(Op(f"verify a={a} lam={lam_v} panels={panels}", argv,
                              check_verify(rows, rtol, vref["kernel_rtol"])))
    return ops


def accepts(problem: str, seed: int) -> None:
    """Check that ``cost`` reads a small file from the policy writer correctly."""
    cfg = oracle.SOLVE_PROBLEMS[problem]
    steps = 4
    times = [k * cfg["dt"] for k in range(steps)]
    table = policygen.policy_table(problem, seed, times=times, nx=9)
    path = os.path.join(WORK, f"accept-{problem}.csv")
    policygen.write_policy(path, *table)
    x0 = [0.5] * len(cfg["box"])
    want = oracle.rollout_cost(problem, oracle.table_law(*policygen.parsed_table(*table)), x0,
                               oracle.SOLVE_ALPHA, oracle.SOLVE_LAM, cfg["dt"], steps * cfg["dt"])
    argv = ["cost", "--problem", problem, "--alpha", repr(oracle.SOLVE_ALPHA), "--policy", path,
            "--horizon", repr(steps * cfg["dt"]), "--x0=" + ",".join(repr(v) for v in x0)]
    res = run_child(["cli", "--", *argv], f"accept-{problem}")
    bad = check_scalar(want, oracle.ROLLOUT_RTOL)(res)
    if bad:
        raise RuntimeError(f"cost does not accept the generated {problem} policy file: {bad}")


def build_ops(workload: str, seed: int, ref: dict) -> list[Op]:
    rng = np.random.default_rng(seed)
    if workload == "solve-lq1d":
        return ops_solve("lq1d", rng, ref)
    if workload == "solve-osc2d":
        return ops_solve("osc2d", rng, ref)
    if workload == "kernel-cost":
        return ops_kernel_cost(rng, ref)
    return ops_replay_verify(rng, seed, ref)


# ------------------------------------------------------------------ running


def run_pass(ops: list[Op], label: str, trace: bool = False) -> list[Result]:
    results = []
    for k, op in enumerate(ops):
        tag = f"{label}-{k}"
        args = ["cli", *(["--trace", os.path.join(WORK, f"{tag}.spans.json")] if trace else []), "--", *op.argv]
        res = run_child(args, tag)
        results.append(res)
        try:
            reason = op.check(res)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            reason = f"output not readable: {exc!r}"
        if reason:
            op.failures.append(reason)
            print(f"FAIL {label} {op.name}: {reason}")
    return results


def op_mean_sum(passes: list[list[Result]], key: Callable[[Result], float]) -> float:
    """Sum over the operations of each one's mean over the passes.

    A mean, not a median: on a shared host the speed of one and the same
    operation switches between two levels (1.0 s and 1.7 s, say) for
    stretches of several seconds.  The median of a run's passes jumps
    between the levels with the share of slow stretches; the mean moves
    with it smoothly, and gave the smaller run-to-run spread.
    """
    return sum(statistics.fmean(key(res) for res in per_op) for per_op in zip(*passes))


def measure_setup(tag: str) -> float:
    """Seconds a fresh interpreter takes to ``import mlhjb.cli`` and build the parser."""
    res = run_child(["setup"], tag)
    if res.rc != 0:
        raise RuntimeError(f"import mlhjb.cli failed: {res.stderr.strip()[-300:]}")
    return float(res.stdout)


def pass_layers(ops: list[Op], label: str) -> dict[str, float]:
    """Per-layer sums over the spans and output files of one traced pass."""
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for k, op in enumerate(ops):
        with open(os.path.join(WORK, f"{label}-{k}.spans.json")) as fh:
            data = json.load(fh)
        tot = spans.totals(data["spans"])

        def get(name: str, key: str) -> float:
            return tot.get(name, {}).get(key, 0)

        for caller in ("cli.kernel", "hjb.kernel"):
            m["specfun.kernel.s"] += get(caller, "s")
            m["specfun.kernel.calls"] += get(caller, "calls")
            m["specfun.kernel.points"] += get(caller, "count")
        m["specfun.ml_two.s"] += get("defect.ml_two", "s")
        m["specfun.kernel_deriv.s"] += get("defect.kernel_deriv", "s")
        m["defect.delta_ml.s"] += get("cli.delta_ml", "s")
        m["defect.delta_ml.self_s"] += get("cli.delta_ml", "self_s")
        m["defect.delta_ml.calls"] += get("cli.delta_ml", "calls")
        # the whole fractional solve for now; layer_metrics subtracts the march
        m["hjb.residual_s"] += get("cli.solve_fractional", "s")
        m["fracderiv.rl_window_deriv.s"] += get("hjb.rl_window_deriv", "s")
        m["fracderiv.rl_window_deriv.calls"] += get("hjb.rl_window_deriv", "calls")
        m["hjb.evaluate_cost.s"] += get("cli.evaluate_cost", "s")
        m["hjb.evaluate_cost.self_s"] += get("cli.evaluate_cost", "self_s")
        m["hjb.rollout_steps"] += get("cli.evaluate_cost", "count")
        m["trace.overhead_s"] += data["overhead_s"]
        if op.kind == "solve":
            m["cli.write_s"] += get("cli.main", "self_s")
            for name in ("value.csv", "policy.csv", "residual.csv"):
                path = os.path.join(op.outdir, name)
                m["cli.bytes_written"] += os.path.getsize(path)
                with open(path, "rb") as fh:
                    m["cli.rows_written"] += sum(1 for _ in fh) - 1
        if op.kind == "read":
            m["cli.read_s"] += get("cli.main", "self_s")
            m["cli.bytes_read"] += os.path.getsize(op.policy)
    return m


def layer_metrics(ops: list[Op], per_pass: list[dict]) -> dict[str, float]:
    """Median over traced passes, plus one classical-march probe per solve op."""
    m = {k: statistics.median(d[k] for d in per_pass) for k in PER_LAYER_UNITS}
    march_s = 0.0
    steps = 0
    for k, op in enumerate(ops):
        if op.kind != "solve":
            continue
        probe = run_child(["march", op.problem], f"march-{k}")
        if probe.rc != 0:
            raise RuntimeError(f"march probe failed: {probe.stderr.strip()[-300:]}")
        info = json.loads(probe.stdout)
        march_s += info["march_s"]
        steps += info["steps"]
    m["hjb.march_s"] = march_s
    # derived: the fractional solve minus a classical march on the same grid
    m["hjb.residual_s"] -= march_s
    m["hjb.march_step_us"] = 1e6 * march_s / steps if steps else 0.0
    return {k: int(v) if PER_LAYER_UNITS[k] in ("count", "B") else v for k, v in m.items()}


def environment() -> dict:
    def cache(level: int) -> str:
        base = "/sys/devices/system/cpu/cpu0/cache"
        try:
            for idx in sorted(os.listdir(base)):
                with open(os.path.join(base, idx, "level")) as fh:
                    if fh.read().strip() == str(level):
                        with open(os.path.join(base, idx, "size")) as fh2:
                            return fh2.read().strip()
        except OSError:
            pass
        return "unknown"

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": cache(2),
        "l3": cache(3),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mlhjb", "cli.py")):
        print(f"error: no mlhjb sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        env = environment()
        print("env " + json.dumps(env))
        ref = oracle.load()
        ops = build_ops(args.workload, args.seed, ref)
        measure_setup("setup-warm")  # compiles bytecode; not counted

        passes = []
        per_pass = []
        setup_times = []
        start = time.perf_counter()
        longest = 0.0
        # a pass starts only if a pass as long as the longest so far still fits
        while len(passes) < MIN_PASSES or time.perf_counter() - start + longest <= args.seconds:
            label = f"pass{len(passes)}"
            t0 = time.perf_counter()
            # set-up samples spread over the run, so that their median spans
            # the same stretch of time as the operations
            setup_times += [measure_setup(f"setup-{label}-{k}") for k in range(SETUP_PER_PASS)]
            passes.append(run_pass(ops, label, trace=bool(args.trace)))
            if args.trace:
                per_pass.append(pass_layers(ops, label))
            longest = max(longest, time.perf_counter() - t0)

        attempted = len(ops) * len(passes)
        failed = sum(len(op.failures) for op in ops)
        for op, results in zip(ops, zip(*passes)):
            walls = " ".join(f"{res.wall:.3f}" for res in results)
            print(f"op {'FAIL' if op.failures else 'ok  '} {op.name}: wall s {walls}")
        if args.trace:
            values = layer_metrics(ops, per_pass)
            units = PER_LAYER_UNITS
        else:
            values = {
                "wall_s": op_mean_sum(passes, lambda res: res.wall),
                "cpu_s": op_mean_sum(passes, lambda res: res.cpu),
                "peak_rss_mb": max(res.maxrss_kb for results in passes for res in results) / 1024.0,
                "setup_s": statistics.median(setup_times),
                "ops_ok": (attempted - failed) / attempted,
            }
            units = END_TO_END_UNITS
        print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es) of {len(ops)} op(s)")
        for name, value in values.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        }
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
