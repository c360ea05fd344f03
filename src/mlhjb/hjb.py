"""Discounted optimal-control solvers on rectangular grids.

The classical solver marches the Bellman recursion

    V(x, t) = min_u [ L(x, u) dt + e^(lam dt) V(x + f(x, u) dt, t + dt) ]

backward from a terminal slice, evaluating the shifted value by multilinear
interpolation (semi-Lagrangian).  The fractional solver replaces the
per-step discount e^(lam dt) with the Mittag-Leffler kernel E_a(lam dt^a)
and, as a diagnostic, evaluates the residual of the nonlocal PDE form

    -lam A(a) D^(1-a) V - dV/dt - min_u H(x, u, dV/dx)

per time slice with the windowed L1 derivative.  Control minimization is
exhaustive over a finite control grid; ties break to the lowest index.
Problems are autonomous: the discount kernel carries all time dependence,
and dynamics and running cost are callables f(x, u), L(x, u) that accept
numpy arrays with leading batch dimensions (state shape (..., dim_x),
control shape (..., dim_u)).

The march step is built once per solve, then applied at every step.
Building evaluates L and f on the (grid nodes, controls) batch and turns
the feet x + f dt into an interpolation stencil: base node indices and the
weights (1 - f), f per axis.  Applying it to a value slice is a gather, a
multiply-add and an argmin, written into buffers allocated once per solve;
the residual pass likewise evaluates L and f once and reuses one
Hamiltonian buffer.

The march keeps the last window + 2 slices in a ring, each held twice, so
that the window of every residual row is one contiguous, time-ordered view
of the ring.  It copies out only the time slices the caller asks for and
their decisions; the residual of a kept slice is computed from that view as
soon as its window is complete.  Memory then grows with the grid and the
number of kept slices, not with the horizon.

A solved Policy carries its own time and state grid; the forward rollout
looks its control up at the nearest (t, x) node, lowest index on ties.

A solve takes any dt that divides the horizon and warns of nothing.  For
lam <= 0 the step's discount E_a(lam dt^a) lies in [0, 1] at every dt
(E_a(-x) is completely monotone), so the step is a monotone contraction; a
value slice past 1e12 in magnitude, or NaN, raises DivergenceError.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, DomainError, StateEscapeError
from .fracderiv import FracOrder, amplitude, rl_window_deriv
from .specfun import DiscountSpec, kernel

__all__ = [
    "ControlProblem",
    "SolverConfig",
    "ValueField",
    "Policy",
    "solve_classical",
    "solve_fractional",
    "evaluate_cost",
    "lqr_oracle",
]

_BOUNDARIES = ("clamp_gradient", "extrapolate_linear")
_DIVERGENCE_LIMIT = 1e12
_ESCAPE_INFLATION = 1.5
# numpy caps an array at sys.maxsize bytes: no float64 array holds a value per time node or axis node past this
_MAX_VALUES = sys.maxsize // 8


def _float_array(seq) -> np.ndarray:
    """``seq`` as a float array; an empty one if it is ragged or not numeric."""
    try:
        return np.asarray(seq, dtype=float)
    except (TypeError, ValueError):
        return np.empty(0)


@dataclass(frozen=True)
class ControlProblem:
    """Dynamics f(x, u), running cost L(x, u), control grid, and state box of one problem.

    The control grid is a non-empty, finite (count, dim_u) array.  The state
    box is one or two [lo, hi] pairs, each finite with lo < hi; the state
    dimension ``dim_x`` is the number of pairs.
    """

    dynamics: Callable
    running_cost: Callable
    control_grid: Sequence
    state_box: Sequence
    boundary: str = "clamp_gradient"

    def __post_init__(self) -> None:
        controls, box = _float_array(self.control_grid), _float_array(self.state_box)
        if controls.ndim != 2 or controls.size == 0 or not np.all(np.isfinite(controls)):
            raise DomainError(f"control_grid must be a non-empty, finite (count, dim_u) array, got {self.control_grid!r}")
        if box.shape not in ((1, 2), (2, 2)) or not (np.all(np.isfinite(box)) and np.all(box[:, 0] < box[:, 1])):
            raise DomainError(
                f"state_box must be one or two [lo, hi] pairs, each finite with lo < hi, got {self.state_box!r}"
            )
        if self.boundary not in _BOUNDARIES:
            raise DomainError(f"boundary must be one of {_BOUNDARIES}, got {self.boundary!r}")
        object.__setattr__(self, "_controls", controls)
        object.__setattr__(self, "_box", box)

    @property
    def controls(self) -> np.ndarray:
        """Control grid as a (count, dim_u) array."""
        return self._controls

    @property
    def box(self) -> np.ndarray:
        """State box as a (dim_x, 2) array."""
        return self._box

    @property
    def dim_x(self) -> int:
        """State dimension: the number of [lo, hi] pairs in the box."""
        return len(self._box)


@dataclass(frozen=True)
class SolverConfig:
    """Time step, horizon truncation, grid resolution, and memory window."""

    dt: float
    horizon: float
    nx: int
    window: int = 64

    def __post_init__(self) -> None:
        if not (isinstance(self.dt, (int, float)) and math.isfinite(self.dt) and self.dt > 0.0):
            raise DomainError(f"dt must be positive and finite, got {self.dt!r}")
        if not (isinstance(self.horizon, (int, float)) and math.isfinite(self.horizon) and self.horizon > 0.0):
            raise DomainError(f"horizon must be positive and finite, got {self.horizon!r}")
        steps = self.horizon / self.dt
        if not steps < _MAX_VALUES:
            raise DomainError(f"horizon must be fewer than {_MAX_VALUES} dt steps, got {self.horizon!r} at dt {self.dt!r}")
        if abs(steps - round(steps)) > 1e-8 * max(1.0, steps):
            raise DomainError("horizon must be an integer number of dt steps")
        if round(steps) < 1:
            raise DomainError(f"horizon must be at least one dt step, got {self.horizon!r} at dt {self.dt!r}")
        if not (isinstance(self.nx, int) and self.nx >= 8):
            raise DomainError(f"nx must be an integer >= 8, got {self.nx!r}")
        if self.nx >= _MAX_VALUES:
            raise DomainError(f"nx must be below {_MAX_VALUES}, got {self.nx!r}")
        if not (isinstance(self.window, int) and self.window >= 1):
            raise DomainError(f"window must be a positive integer, got {self.window!r}")

    @property
    def steps(self) -> int:
        return round(self.horizon / self.dt)


@dataclass
class ValueField:
    """Value function samples over (time, state grid), plus diagnostics.

    ``values[k]`` is the slice at ``times[k]``: every time step, or the
    ones a solve was asked to keep.  ``residual`` holds the per-slice PDE
    residual filled in by solve_fractional; rows without enough trailing
    history are NaN.
    """

    times: np.ndarray
    axes: tuple
    values: np.ndarray
    residual: np.ndarray | None = None

    def at(self, x, time_index: int = 0) -> float:
        """Multilinear interpolation of the slice at ``time_index``, at ``x`` of one finite coordinate per axis.

        ``time_index`` is an integer in [0, len(times)): the k-th kept slice.
        """
        if not (isinstance(time_index, (int, np.integer)) and 0 <= time_index < len(self.times)):
            raise DomainError(f"time_index must be an integer in [0, {len(self.times)}), got {time_index!r}")
        stencil = _stencil(self.axes, _coords(x, len(self.axes))[None, :], "clamp_gradient")
        return float(_apply_stencil(stencil, self.values[time_index], np.empty(1), np.empty(1))[0])


def _coords(x, dim: int) -> np.ndarray:
    """``x`` as a (dim,) float array of finite coordinates, else DomainError."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape != (dim,) or not np.all(np.isfinite(arr)):
        raise DomainError(f"x must have one finite coordinate per axis ({dim}), got {x!r}")
    return arr


def _nearest(nodes: list, v: float) -> int:
    """Index of the sorted ``nodes`` entry closest to ``v``, lowest on ties."""
    j = bisect_left(nodes, v)
    if j == 0:
        return 0
    if j == len(nodes):
        return j - 1
    return j - 1 if v - nodes[j - 1] <= nodes[j] - v else j


@dataclass(frozen=True)
class Policy:
    """Feedback law tabulated on a (time, state grid).

    ``controls`` holds integer indices into ``control_grid`` with shape
    (len(times), len(axes[0]), ...); ``times`` and each axis are non-empty,
    1-D, finite and strictly increasing.
    """

    controls: np.ndarray
    control_grid: np.ndarray
    times: np.ndarray
    axes: tuple

    def __post_init__(self) -> None:
        nodes = [_float_array(ax) for ax in (self.times, *self.axes)]
        for ax in nodes:
            if not (ax.ndim == 1 and ax.size and np.all(np.isfinite(ax)) and np.all(ax[1:] > ax[:-1])):
                raise DomainError(f"policy times and axes must be non-empty, 1-D, finite and strictly increasing, got {ax!r}")
        grid = tuple(len(ax) for ax in nodes)
        controls = np.asarray(self.controls)
        if controls.shape != grid:
            raise DomainError(f"policy controls of shape {controls.shape} do not match the grid {grid}")
        count = len(self.control_grid)
        if not (np.issubdtype(controls.dtype, np.integer) and controls.min() >= 0 and controls.max() < count):
            raise DomainError(f"policy controls must be integer indices in [0, {count})")
        object.__setattr__(self, "_nodes", [ax.tolist() for ax in nodes])

    def control(self, x, t: float) -> np.ndarray:
        """Control of the node nearest to finite (t, x) per axis, lowest index on ties."""
        if not math.isfinite(t):
            raise DomainError(f"t must be finite, got {t!r}")
        return self._lookup([float(t), *_coords(x, len(self.axes)).tolist()])

    def _lookup(self, point: list) -> np.ndarray:
        """``control`` without its checks, at the floats [t, *x]."""
        return self.control_grid[self.controls[tuple(map(_nearest, self._nodes, point))]]


def _axes_for(prob: ControlProblem, nx: int) -> tuple:
    return tuple(np.linspace(lo, hi, nx) for lo, hi in prob.box)


def _grid_states(axes: tuple) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def _stencil(axes: tuple, feet: np.ndarray, boundary: str) -> tuple:
    """Multilinear interpolation stencil of a grid at arbitrary feet.

    Returns (base, corners): the flat index of each foot's lowest cell
    corner, and the cell corners in the order the interpolant sums them,
    each as (flat offset from base, weights) with one weight per axis:
    (1 - f) on the lower node and f on the upper one.  clamp_gradient clips
    feet into the box (constant continuation); extrapolate_linear continues
    the outermost cell's linear model.
    """
    base, corners = 0, [(0, [])]
    for d, ax in enumerate(axes):
        step = ax[1] - ax[0]
        g = (feet[..., d] - ax[0]) / step
        if boundary == "clamp_gradient":
            g = np.clip(g, 0.0, len(ax) - 1.0)
        lower = np.clip(np.floor(g).astype(np.int64), 0, len(ax) - 2)
        f = g - lower
        base = base * len(ax) + lower
        ends = ((0, 1.0 - f), (1, f))
        corners = [(off * len(ax) + k, weights + [w]) for off, weights in corners for k, w in ends]
    return base, corners


def _apply_stencil(stencil: tuple, values: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Interpolate ``values`` with a stencil from _stencil into ``out``.

    ``out`` and ``tmp`` have the stencil's shape.  Each corner is the node
    value times its weights, left to right, and the corners add up in order.
    """
    base, corners = stencil
    flat = values.ravel()
    for k, (off, weights) in enumerate(corners):
        term = tmp if k else out
        np.take(flat[off:], base, out=term, mode="clip")
        for w in weights:
            np.multiply(term, w, out=term)
        if k:
            out += term
    return out


def _batched_LF(prob: ControlProblem, states: np.ndarray):
    """Running cost and velocity over (grid shape, control count) batches."""
    U = prob.controls
    shape = states.shape[:-1]
    xb = np.broadcast_to(states[..., None, :], shape + (U.shape[0], prob.dim_x))
    ub = np.broadcast_to(U, shape + U.shape)
    F = np.asarray(prob.dynamics(xb, ub), dtype=float)
    L = np.asarray(prob.running_cost(xb, ub), dtype=float)
    F = np.broadcast_to(F, xb.shape)
    L = np.broadcast_to(L, shape + (U.shape[0],))
    return L, F


def _kept(slices, nt: int) -> list:
    """The step indices a solve returns: every one by default, else ``slices``."""
    if slices is None:
        return list(range(nt + 1))
    kept = [operator.index(s) for s in slices]
    if not kept or kept[0] < 0 or kept[-1] > nt or any(a >= b for a, b in zip(kept, kept[1:])):
        raise DomainError(f"slices must be a non-empty increasing list of step indices in [0, {nt}]")
    return kept


def _residual_rows(prob: ControlProblem, spec: DiscountSpec, cfg: SolverConfig, axes: tuple, L, F):
    """Function writing the PDE residual -lam A(a) D^(1-a) V - V_t - min H of one slice.

    ``L`` and ``F`` are the running cost and velocity from _batched_LF.
    ``row(samples, out)`` takes the window + 2 slices from t - window dt to
    t + dt in ``samples``, oldest first.  The order-(1-a) derivative is the
    windowed L1 form over the trailing cfg.window intervals up to t, and
    dV/dt the forward difference to t + dt.
    """
    amp = amplitude(spec.alpha)
    order = FracOrder(1.0 - spec.alpha)
    h = np.empty(L.shape)
    tmp = np.empty_like(h)

    def row(samples: np.ndarray, out: np.ndarray) -> None:
        frac = rl_window_deriv(samples[:-1], cfg.dt, order)
        now, after = samples[-2], samples[-1]
        v_t = (after - now) / cfg.dt
        grads = np.gradient(now, *axes) if len(axes) > 1 else [np.gradient(now, axes[0])]
        # h = L + p . f over the grid controls, summed left to right
        np.copyto(h, L)
        for d in range(prob.dim_x):
            np.multiply(grads[d][..., None], F[..., d], out=tmp)
            np.add(h, tmp, out=h)
        out[...] = -spec.lam * amp * frac - v_t - h.min(axis=-1)

    return row


def _march(
    prob: ControlProblem, spec: DiscountSpec, cfg: SolverConfig, *, slices=None, residual: bool = False
) -> tuple[ValueField, Policy]:
    """March backward from the zero terminal slice, keeping only the ``slices`` steps.

    The Policy row of kept step k is the decision at step min(k, nt - 1):
    the terminal step has none of its own and takes the last one.  The last
    R = window + 2 slices (2 when no residual row has a full window) live in
    a ring of 2R rows.  Each step writes its slice straight into row
    k = i mod R of the ring (the chosen candidates, read by flat index: row
    offset plus argmin) and copies it to row k + R, so that rows k .. k + R - 1
    hold slices i .. i + R - 1 in time order; step i reads slice i + 1 at
    row k + 1, with no wrap.  With ``residual`` the residual of each kept step
    window <= r < nt is computed as soon as slice r - window exists, from
    the view of slices r - window .. r + 1; other rows are NaN.
    """
    nt = cfg.steps
    kept = _kept(slices, nt)
    decided = sorted({min(k, nt - 1) for k in kept})
    where = dict(zip(kept, range(len(kept))))
    decision = dict(zip(decided, range(len(decided))))
    axes = _axes_for(prob, cfg.nx)
    states = _grid_states(axes)
    shape = states.shape[:-1]
    times = np.arange(nt + 1) * cfg.dt
    disc = float(kernel(spec, cfg.dt))
    ring_len = cfg.window + 2 if residual and cfg.window < nt else 2
    ring = np.empty((2 * ring_len,) + shape)
    values = np.empty((len(kept),) + shape)
    policy = np.zeros((len(decided),) + shape, dtype=np.int32)
    res = np.full_like(values, np.nan) if residual else None
    # one (grid, controls) batch serves the step and the residual
    L, F = _batched_LF(prob, states)
    row = _residual_rows(prob, spec, cfg, axes, L, F) if residual else None
    l_dt = L * cfg.dt
    stencil = _stencil(axes, states[..., None, :] + F * cfg.dt, prob.boundary)
    cand = np.empty(shape + (len(prob.controls),))
    tmp = np.empty_like(cand)
    # flat index of each node's first candidate, and of its chosen one
    offsets = np.arange(0, cand.size, cand.shape[-1]).reshape(shape)
    pick = np.empty(shape, dtype=np.intp)
    for i in range(nt, -1, -1):
        k = i % ring_len
        slice_i = ring[k]
        if i == nt:
            slice_i.fill(0.0)
        else:
            # cand = L dt + disc * V(feet), rounded as that expression would be
            _apply_stencil(stencil, ring[k + 1], cand, tmp)
            np.multiply(cand, disc, out=cand)
            np.add(l_dt, cand, out=cand)
            best = np.argmin(cand, axis=-1)
            np.take(cand, np.add(offsets, best, out=pick), out=slice_i)
            if not np.abs(slice_i).max() <= _DIVERGENCE_LIMIT:  # NaN fails too
                raise DivergenceError(f"value field diverged at t = {times[i]:g}")
            if i in decision:
                policy[decision[i]] = best
        ring[k + ring_len] = slice_i
        if i in where:
            values[where[i]] = slice_i
        r = i + cfg.window
        if row is not None and r < nt and r in where:
            row(ring[k : k + ring_len], res[where[r]])
    return (
        ValueField(times=times[kept], axes=axes, values=values, residual=res),
        Policy(controls=policy, control_grid=prob.controls, times=times[decided], axes=axes),
    )


def solve_classical(prob: ControlProblem, spec: DiscountSpec, cfg: SolverConfig) -> tuple[ValueField, Policy]:
    """Backward value iteration with the exponential per-step discount e^(lam dt)."""
    if spec.alpha != 1.0:
        raise DomainError("solve_classical requires alpha = 1")
    return _march(prob, spec, cfg)


def solve_fractional(
    prob: ControlProblem, spec: DiscountSpec, cfg: SolverConfig, *, slices=None
) -> tuple[ValueField, Policy]:
    """Backward value iteration discounted by E_a(lam dt^a) per step.

    At alpha = 1 the update is exactly the classical one (E_1 = exp).  The
    returned ValueField carries the PDE residual diagnostic over the trailing
    L1 window.

    ``slices`` (increasing step indices in [0, cfg.steps]) selects the time
    slices returned; the default returns all cfg.steps + 1.  Given, the
    ValueField holds those steps' times, values and residual rows in that
    order, so ``time_index`` counts kept slices.  The Policy holds the
    decision of each kept step k at step min(k, cfg.steps - 1), once each:
    the terminal step has no decision and takes the last one.  The march
    then holds 2 (window + 2) slices besides the kept ones, and the residual is
    computed only on kept rows; each kept number has the same bits as in the
    full solve.  Any window >= 1 is allowed: a short one makes the residual
    cruder, not the values.  The residual's order 1 - alpha must round below
    1, so alpha must exceed 2^-54.
    """
    if not 1.0 - spec.alpha < 1.0:
        raise DomainError(f"alpha must exceed 2^-54 so that the residual order 1 - alpha rounds below 1, got {spec.alpha!r}")
    return _march(prob, spec, cfg, slices=slices, residual=True)


def _escape_bounds(prob: ControlProblem) -> tuple[list, list]:
    """Per-axis (lower, upper) escape limits: the state box inflated about its center."""
    box = prob.box
    center = 0.5 * (box[:, 0] + box[:, 1])
    half = 0.5 * (box[:, 1] - box[:, 0])
    return (center - _ESCAPE_INFLATION * half).tolist(), (center + _ESCAPE_INFLATION * half).tolist()


def evaluate_cost(prob: ControlProblem, spec: DiscountSpec, law, x0, cfg: SolverConfig) -> float:
    """Forward rollout cost under a feedback law or solved Policy.

    Integrates the dynamics with classical RK4 and accumulates
    kernel(spec, t) * L along the trajectory with trapezoid weights up to
    cfg.horizon.  ``law`` is either a callable (state, time) -> control or a
    Policy, looked up on its own grid at the nearest (t, x) node.

    The state is carried as Python floats; numpy arrays are built only to
    call ``law`` and the dynamics.  The law is called once per RK4 stage:
    the control at each new state serves both its running cost and the
    first stage of the next step, so a rollout of n steps calls it 4n + 1
    times.  The running cost is evaluated once, over the whole trajectory.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    box = prob.box
    if x.shape != (prob.dim_x,):
        raise DomainError(f"x0 must have one component per state dimension ({prob.dim_x}), got {x.size}")
    if not np.all((box[:, 0] <= x) & (x <= box[:, 1])):
        raise DomainError(f"x0 {x.tolist()} lies outside the state box")
    if isinstance(law, Policy):
        # unchecked: the rollout checks its own states, and a NaN stage state escapes at the step's end
        law = lambda xq, t, lookup=law._lookup: lookup([t, *xq.tolist()])
    nt = cfg.steps
    dt = cfg.dt
    times = np.arange(nt + 1) * dt
    weights = kernel(spec, times)
    lo, hi = _escape_bounds(prob)
    dynamics = prob.dynamics

    def control(xs: list, t: float) -> tuple:
        xq = np.array(xs)
        return xq, np.array(law(xq, t), dtype=float, ndmin=1)

    def slope(xq: np.ndarray, u: np.ndarray) -> list:
        return np.array(dynamics(xq, u), dtype=float, ndmin=1).tolist()

    # the stage states and the RK4 combination keep numpy's operation order
    half = 0.5 * dt
    t_all = times.tolist()
    x = x.tolist()
    xq, u = control(x, 0.0)
    states, controls = [x], [u]
    for i in range(nt):
        t = t_all[i]
        th = t + half
        k1 = slope(xq, u)
        k2 = slope(*control([a + half * b for a, b in zip(x, k1)], th))
        k3 = slope(*control([a + half * b for a, b in zip(x, k2)], th))
        k4 = slope(*control([a + dt * b for a, b in zip(x, k3)], t + dt))
        x = [a + dt * (b + 2.0 * c + 2.0 * d + e) / 6.0 for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
        t1 = t_all[i + 1]
        for v, a, b in zip(x, lo, hi):
            if not a <= v <= b:  # NaN escapes too
                raise StateEscapeError(f"trajectory escaped the inflated state box at t = {t1:g}")
        xq, u = control(x, t1)
        states.append(x)
        controls.append(u)
    # one call over the trajectory, broadcast as the march broadcasts L
    run = np.broadcast_to(np.asarray(prob.running_cost(np.array(states), np.array(controls)), dtype=float), nt + 1)
    y = weights * run
    return float(dt * (0.5 * y[0] + y[1:-1].sum() + 0.5 * y[-1]))


def lqr_oracle(a: float, b: float, q: float, r: float, lam: float) -> tuple[float, float]:
    """Stabilizing root of the discounted scalar Riccati equation.

    Solves (b^2/r) P^2 - (2a + lam) P - q = 0 for the root reached by value
    iteration and returns (P, k) with feedback u = k x, k = -P b / r.  For
    2a + lam < 0 it takes the conjugate form 2q / (sqrt(disc) - (2a + lam)),
    where r ((2a + lam) + sqrt(disc)) / (2 b^2) would cancel.  Raises
    DomainError where the discriminant, P or k is not a finite float.
    """
    if not all(math.isfinite(v) for v in (a, b, q, r, lam)):
        raise DomainError(f"a, b, q, r and lam must be finite, got {(a, b, q, r, lam)!r}")
    if not (r > 0.0):
        raise DomainError(f"r must be positive, got {r!r}")
    if not (q >= 0.0):
        raise DomainError(f"q must be non-negative, got {q!r}")
    c = 2.0 * a + lam
    try:
        disc = c**2 + 4.0 * q * b * b / r
        P = r * (c + math.sqrt(disc)) / (2.0 * b * b) if c >= 0.0 else 2.0 * q / (math.sqrt(disc) - c)
    except (OverflowError, ZeroDivisionError):  # a square past float range, or b * b = 0 (b = 0 among them)
        P = disc = math.inf
    k = -P * b / r
    if not (disc < math.inf and math.isfinite(k)):  # disc = inf gives P = 0 for c < 0, not the root
        raise DomainError(f"the Riccati root is not a finite float at (a, b, q, r, lam) = {(a, b, q, r, lam)!r}")
    return P, k
