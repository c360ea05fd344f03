"""Seeded policy files in the format ``mlhjb solve`` writes for ``policy.csv``.

The law is a saturated linear state feedback whose gains ramp linearly in
time, snapped to the nearest value of the problem's control grid.  The gains
come from the workload seed, so the replayed files, and the time it takes to
read them, do not depend on how fast the solver is.  Rows cover the same time
slices as a ``solve`` at catalog defaults, on the node grid of ``REPLAY``.

``prepare`` writes the files of one seed and computes the reference cost of
each replay; ``child.py policies`` runs it in a process of its own, so the
benchmark process stays small and the peak RSS its children inherit from it
stays below their own.
"""

from __future__ import annotations

import math
import os

import numpy as np

import oracle
from oracle import SOLVE_PROBLEMS

# Control grids of the catalog problems (lo, hi, count).
CONTROLS = {"lq1d": (-2.5, 2.5, 101), "osc2d": (-1.0, 1.0, 9)}
# Nodes per axis of the replayed files and the --horizon of the replays:
# 52k rows for lq1d, 219k rows (4 MB) for osc2d.
REPLAY = {"osc2d": {"nx": 33, "horizon": 2.0}, "lq1d": {"nx": 257, "horizon": 2.0}}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def slice_times(dt: float, horizon: float) -> np.ndarray:
    """Times of the policy slices ``solve`` writes: about 201, last step kept."""
    nt = round(horizon / dt)
    stride = max(1, math.ceil(nt / 201))
    idx = list(range(0, nt, stride))
    if idx[-1] != nt - 1:
        idx.append(nt - 1)
    return (np.arange(nt + 1) * dt)[idx]


def gains(problem: str, rng: np.random.Generator) -> np.ndarray:
    """Feedback gains at t = 0 and at the horizon, one row per state dimension."""
    dim = len(SOLVE_PROBLEMS[problem]["box"])
    if dim == 1:
        return rng.uniform(0.6, 1.6, size=(2, 1))
    return np.stack([rng.uniform(0.3, 1.2, size=2), rng.uniform(0.5, 1.5, size=2)], axis=1)


def policy_table(problem: str, seed: int, times=None, nx=None):
    """(times, axes, controls) of the seeded law; controls has shape (nt, nx, ...)."""
    cfg = SOLVE_PROBLEMS[problem]
    rng = np.random.default_rng([seed, len(cfg["box"])])
    k = gains(problem, rng)
    if times is None:
        times = slice_times(cfg["dt"], cfg["horizon"])
    nx = cfg["nx"] if nx is None else nx
    axes = [np.linspace(lo, hi, nx) for lo, hi in cfg["box"]]
    lo, hi, count = CONTROLS[problem]
    ugrid = np.linspace(lo, hi, count)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    frac = (np.asarray(times) / cfg["horizon"])[:, None]
    gain = k[0][None, :] * (1.0 - frac) + k[1][None, :] * frac  # (nt, dim)
    u = -np.einsum("...d,td->t...", mesh, gain)
    u = np.clip(u, lo, hi)
    controls = ugrid[np.abs(u[..., None] - ugrid).argmin(axis=-1)]
    return np.asarray(times), axes, controls


def write_policy(path: str, times, axes, controls) -> None:
    """Write ``t,x,u`` (``t,x1,x2,u`` in 2D) rows, slices outer, nodes in C order."""
    xcols = ["x"] if len(axes) == 1 else ["x1", "x2"]
    nodes = [",".join(p) for p in _node_strings(axes)]
    lines = [",".join(["t"] + xcols + ["u"])]
    values, codes = np.unique(controls, return_inverse=True)
    ustr = [_fmt(v) for v in values]
    codes = codes.reshape(len(times), -1)
    for i, t in enumerate(times):
        ts = _fmt(t)
        lines.extend(f"{ts},{n},{ustr[c]}" for n, c in zip(nodes, codes[i].tolist()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _node_strings(axes):
    cols = [[_fmt(v) for v in ax] for ax in axes]
    if len(cols) == 1:
        return [(c,) for c in cols[0]]
    return [(a, b) for a in cols[0] for b in cols[1]]


def parsed_table(times, axes, controls):
    """The table as ``cost`` sees it after parsing the 12-digit CSV fields."""
    rt = np.array([float(_fmt(t)) for t in times])
    rax = [np.array([float(_fmt(v)) for v in ax]) for ax in axes]
    values, codes = np.unique(controls, return_inverse=True)
    ru = np.array([float(_fmt(v)) for v in values])[codes].reshape(controls.shape)
    return rt, rax, ru[..., None]


def prepare(seed: int, work: str) -> list[dict]:
    """Write the seed's policy files into ``work``; per file its replay and reference cost."""
    rng = np.random.default_rng(seed)
    out = []
    for problem, rep in REPLAY.items():
        cfg = SOLVE_PROBLEMS[problem]
        table = policy_table(problem, seed, nx=rep["nx"])
        path = os.path.join(work, f"policy-{problem}.csv")
        write_policy(path, *table)
        x0 = [round(float(v), 6) for v in rng.uniform(-1.0, 1.0, size=len(cfg["box"]))]
        law = oracle.table_law(*parsed_table(*table))
        want = oracle.rollout_cost(problem, law, x0, oracle.SOLVE_ALPHA, oracle.SOLVE_LAM, cfg["dt"], rep["horizon"])
        out.append({"problem": problem, "path": path, "horizon": rep["horizon"], "x0": x0, "want": want})
    return out
