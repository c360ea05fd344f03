"""One rule for number arguments, and typed errors for wrong-typed ones.

A real argument is any real number but a bool, used and stored as a Python
float; an integer argument is any integer but a bool, used and stored as a
Python int.  So a numpy scalar gives the Python number's result bit for bit,
and a bool or a string raises DomainError naming the argument.
"""

import pickle

import numpy as np
import pytest

from mlhjb import (
    ControlProblem,
    DiscountSpec,
    DomainError,
    FracOrder,
    Policy,
    SolverConfig,
    ValueField,
    amplitude,
    delta_ml,
    evaluate_cost,
    lqr_oracle,
    ml_one,
    ml_two,
    rl_window_deriv,
    solve_fractional,
)

SPEC = DiscountSpec(0.5, -1.0)
# two controls on a 9-node grid, four steps
PROB = ControlProblem(
    dynamics=lambda x, u: u,
    running_cost=lambda x, u: 0.5 * (x[..., 0] ** 2 + u[..., 0] ** 2),
    control_grid=[[-1.0], [1.0]],
    state_box=[(-1.0, 1.0)],
)
CFG = SolverConfig(dt=0.25, horizon=1.0, nx=9, window=2)
POLICY = Policy(
    controls=np.array([[0, 1, 0], [1, 0, 1]]),
    control_grid=np.array([[-1.0], [1.0]]),
    times=np.array([0.0, 0.5]),
    axes=(np.array([-1.0, 0.0, 1.0]),),
)
FIELD = ValueField(times=np.array([0.0]), axes=(np.array([-1.0, 0.0, 1.0]),), values=np.array([[1.0, 0.0, 1.0]]))

# (site, argument name, call of the argument, Python value, numpy value);
# SolverConfig's nx and window are test_hjb's test_solver_config_integers
SITES = [
    ("SolverConfig", "dt", lambda v: SolverConfig(dt=v, horizon=1.0, nx=9), 0.5, np.float32(0.5)),
    ("SolverConfig", "horizon", lambda v: SolverConfig(dt=0.5, horizon=v, nx=9), 1, np.int64(1)),
    ("DiscountSpec", "alpha", lambda v: DiscountSpec(v, -0.5), 0.75, np.float32(0.75)),
    ("DiscountSpec", "lam", lambda v: DiscountSpec(0.75, v), -0.5, np.float32(-0.5)),
    ("FracOrder", "order", FracOrder, 0.5, np.float32(0.5)),
    ("amplitude", "alpha", amplitude, 0.5, np.float32(0.5)),
    ("rl_window_deriv", "dt", lambda v: rl_window_deriv([0.5, 1.0, 3.0], v, FracOrder(0.5)), 0.25, np.float32(0.25)),
    ("delta_ml", "t", lambda v: delta_ml(SPEC, v, 0.5), 1, np.int64(1)),
    ("delta_ml", "panels", lambda v: delta_ml(SPEC, 1.0, 0.5, v), 8, np.int64(8)),
    ("ml_one", "alpha", lambda v: ml_one(v, 1.0), 0.5, np.float32(0.5)),
    ("ml_two", "beta", lambda v: ml_two(0.5, v, -2.0), 1.5, np.float32(1.5)),
    ("lqr_oracle", "lam", lambda v: lqr_oracle(0.0, 1.0, 1.0, 1.0, v), -0.5, np.float32(-0.5)),
    ("lqr_oracle", "a", lambda v: lqr_oracle(v, 1, 1, 1, -0.5), 1, np.int64(1)),
    ("Policy.control", "t", lambda v: POLICY.control([0.5], v), 0.5, np.float32(0.5)),
    ("solve_fractional", "slices", lambda v: solve_fractional(PROB, SPEC, CFG, slices=[v, 3]), 2, np.int64(2)),
]
IDS = [f"{site}-{name}" for site, name, *_ in SITES]


@pytest.mark.parametrize("site, name, call, py_value, np_value", SITES, ids=IDS)
def test_numpy_scalars_give_the_python_numbers_bits(site, name, call, py_value, np_value):
    # pickled, a result keeps each value's type and bits: np.float32(0.5) stored as itself would differ
    assert pickle.dumps(call(np_value)) == pickle.dumps(call(py_value))


@pytest.mark.parametrize("site, name, call, py_value, np_value", SITES, ids=IDS)
@pytest.mark.parametrize("bad", [True, False, "1"], ids=["true", "false", "str"])
def test_bools_and_strings_raise_naming_the_argument(site, name, call, py_value, np_value, bad):
    with pytest.raises(DomainError, match=rf"\b{name}\b"):
        call(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda: FIELD.at(["a"]),
        lambda: POLICY.control(["a"], 0.0),
        lambda: POLICY.control([0.5], "0"),
        lambda: evaluate_cost(PROB, SPEC, POLICY, ["a"], CFG),
        lambda: solve_fractional(PROB, SPEC, CFG, slices=[0.0]),
    ],
    ids=["ValueField.at-x", "Policy.control-x", "Policy.control-t", "evaluate_cost-x0", "solve_fractional-slices"],
)
def test_wrong_typed_arguments_raise_domain_error(call):
    # not numpy's bare ValueError or Python's bare TypeError
    with pytest.raises(DomainError):
        call()
