"""Built-in control problems for the CLI and the test suite.

Five desk-scale problems: a scalar linear-quadratic regulator, a 1D problem
with a tightly bounded control set, a 2D linear oscillator, and two
degenerate reference problems (constant running cost with frozen dynamics,
and zero running cost) used for closed-form checks.  Dynamics and cost
callables are numpy-vectorized over leading batch dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:
    from .hjb import ControlProblem

__all__ = ["CatalogEntry", "PROBLEM_NAMES", "get", "LQ1D_COEFFS"]

# scalar LQR coefficients behind lq1d: dx = (a x + b u) dt, L = (q x^2 + r u^2)/2
LQ1D_COEFFS = {"a": 0.0, "b": 1.0, "q": 1.0, "r": 1.0}


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    problem: ControlProblem
    x0: tuple
    dt: float
    horizon: float
    nx: int
    window: int
    summary: str


def _problem(**fields) -> ControlProblem:
    # the solver module is imported when a problem is first built, so that
    # reading PROBLEM_NAMES (the CLI parser does) does not load it
    from .hjb import ControlProblem

    return ControlProblem(**fields)


def _lq1d() -> CatalogEntry:
    prob = _problem(
        dim_x=1,
        dynamics=lambda x, u, t: u,
        running_cost=lambda x, u, t: 0.5 * (x[..., 0] ** 2 + u[..., 0] ** 2),
        control_grid=np.linspace(-2.5, 2.5, 101)[:, None],
        state_box=[(-2.0, 2.0)],
        boundary="clamp_gradient",
        time_invariant=True,
    )
    return CatalogEntry(
        name="lq1d",
        problem=prob,
        x0=(1.0,),
        dt=1e-3,
        horizon=20.0,
        nx=257,
        window=64,
        summary="scalar LQR: dx = u dt, L = (x^2 + u^2)/2, box [-2, 2]",
    )


def _bounded1d() -> CatalogEntry:
    prob = _problem(
        dim_x=1,
        dynamics=lambda x, u, t: u,
        running_cost=lambda x, u, t: 0.5 * x[..., 0] ** 2 + 0.1 * np.abs(u[..., 0]),
        control_grid=np.linspace(-1.0, 1.0, 21)[:, None],
        state_box=[(-2.0, 2.0)],
        boundary="extrapolate_linear",
        time_invariant=True,
    )
    return CatalogEntry(
        name="bounded1d",
        problem=prob,
        x0=(1.0,),
        dt=5e-3,
        horizon=10.0,
        nx=129,
        window=64,
        summary="1D with control capped at |u| <= 1 and an L1 effort penalty",
    )


def _osc2d() -> CatalogEntry:
    def f(x, u, t):
        return np.stack([x[..., 1], -x[..., 0] + u[..., 0]], axis=-1)

    prob = _problem(
        dim_x=2,
        dynamics=f,
        running_cost=lambda x, u, t: 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2 + u[..., 0] ** 2),
        control_grid=np.linspace(-1.0, 1.0, 9)[:, None],
        state_box=[(-2.0, 2.0), (-2.0, 2.0)],
        boundary="clamp_gradient",
        time_invariant=True,
    )
    return CatalogEntry(
        name="osc2d",
        problem=prob,
        x0=(1.0, 0.0),
        dt=0.01,
        horizon=5.0,
        nx=65,
        window=64,
        summary="2D forced oscillator: dx1 = x2 dt, dx2 = (-x1 + u) dt, quadratic cost",
    )


def _static1d() -> CatalogEntry:
    prob = _problem(
        dim_x=1,
        dynamics=lambda x, u, t: np.zeros(x.shape),
        running_cost=lambda x, u, t: np.ones(x.shape[:-1]),
        control_grid=[[0.0]],
        state_box=[(-1.0, 1.0)],
        boundary="clamp_gradient",
        time_invariant=True,
    )
    return CatalogEntry(
        name="static1d",
        problem=prob,
        x0=(0.0,),
        dt=0.01,
        horizon=40.0,
        nx=9,
        window=64,
        summary="frozen state with unit running cost; the cost equals the integrated kernel",
    )


def _zero1d() -> CatalogEntry:
    prob = _problem(
        dim_x=1,
        dynamics=lambda x, u, t: np.zeros(x.shape),
        running_cost=lambda x, u, t: np.zeros(x.shape[:-1]),
        control_grid=[[0.0]],
        state_box=[(-1.0, 1.0)],
        boundary="clamp_gradient",
        time_invariant=True,
    )
    return CatalogEntry(
        name="zero1d",
        problem=prob,
        x0=(0.0,),
        dt=0.01,
        horizon=1.0,
        nx=9,
        window=64,
        summary="zero running cost and frozen state; every value is exactly zero",
    )


_BUILDERS = {
    "lq1d": _lq1d,
    "bounded1d": _bounded1d,
    "osc2d": _osc2d,
    "static1d": _static1d,
    "zero1d": _zero1d,
}

PROBLEM_NAMES = tuple(_BUILDERS)


def get(name: str) -> CatalogEntry:
    """Catalog entry by name; unknown names raise ConfigError."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigError(f"unknown problem {name!r}; choose from {', '.join(PROBLEM_NAMES)}") from None
    return builder()
