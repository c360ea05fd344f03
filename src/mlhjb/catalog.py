"""Built-in control problems for the CLI and the test suite.

Five desk-scale problems: a scalar linear-quadratic regulator, a 1D problem
with a tightly bounded control set, a 2D linear oscillator, and two
degenerate reference problems (constant running cost with frozen dynamics,
and zero running cost) used for closed-form checks.  Dynamics f(x, u) and
cost L(x, u) are numpy-vectorized over leading batch dimensions.

Each problem is one row of a table keyed by its name: its ``ControlProblem``
fields and its run defaults.
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
    window: int = 64


def _frozen(x, u):
    return np.zeros(x.shape)


# name -> ControlProblem fields (the control grid as np.linspace arguments) and the run defaults
_TABLE = {
    "lq1d": dict(
        dynamics=lambda x, u: u,
        running_cost=lambda x, u: 0.5 * (x[..., 0] ** 2 + u[..., 0] ** 2),
        controls=(-2.5, 2.5, 101),
        state_box=((-2.0, 2.0),),
        run=dict(x0=(1.0,), dt=1e-3, horizon=20.0, nx=257),
    ),
    "bounded1d": dict(
        dynamics=lambda x, u: u,
        running_cost=lambda x, u: 0.5 * x[..., 0] ** 2 + 0.1 * np.abs(u[..., 0]),
        controls=(-1.0, 1.0, 21),
        state_box=((-2.0, 2.0),),
        boundary="extrapolate_linear",
        run=dict(x0=(1.0,), dt=5e-3, horizon=10.0, nx=129),
    ),
    "osc2d": dict(
        dynamics=lambda x, u: np.stack([x[..., 1], -x[..., 0] + u[..., 0]], axis=-1),
        running_cost=lambda x, u: 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2 + u[..., 0] ** 2),
        controls=(-1.0, 1.0, 9),
        state_box=((-2.0, 2.0), (-2.0, 2.0)),
        run=dict(x0=(1.0, 0.0), dt=0.01, horizon=5.0, nx=65),
    ),
    "static1d": dict(
        dynamics=_frozen,
        running_cost=lambda x, u: np.ones(x.shape[:-1]),
        controls=(0.0, 0.0, 1),
        state_box=((-1.0, 1.0),),
        run=dict(x0=(0.0,), dt=0.01, horizon=40.0, nx=9),
    ),
    "zero1d": dict(
        dynamics=_frozen,
        running_cost=lambda x, u: np.zeros(x.shape[:-1]),
        controls=(0.0, 0.0, 1),
        state_box=((-1.0, 1.0),),
        run=dict(x0=(0.0,), dt=0.01, horizon=1.0, nx=9),
    ),
}

PROBLEM_NAMES = tuple(_TABLE)


def get(name: str) -> CatalogEntry:
    """Catalog entry by name, with a new ControlProblem; unknown names raise ConfigError."""
    try:
        fields = dict(_TABLE[name])
    except KeyError:
        raise ConfigError(f"unknown problem {name!r}; choose from {', '.join(PROBLEM_NAMES)}") from None
    # the solver module is imported when a problem is first built, so that
    # reading PROBLEM_NAMES (the CLI parser does) does not load it
    from .hjb import ControlProblem

    run = fields.pop("run")
    lo, hi, count = fields.pop("controls")
    problem = ControlProblem(control_grid=np.linspace(lo, hi, count)[:, None], **fields)
    return CatalogEntry(name=name, problem=problem, **run)
