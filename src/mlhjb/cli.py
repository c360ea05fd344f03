"""Command-line front end: kernel evaluation, identity verification, solves, rollouts.

Subcommands:
  ml      evaluate the one- or two-parameter Mittag-Leffler function
  verify  tabulate the semigroup-defect identity residual as CSV
  solve   run a catalog problem and write value/policy/residual CSV files
  cost    forward-evaluate the discounted cost of a feedback law or policy file

Exit codes: 0 success, 1 verification tolerance unmet, 2 usage or domain
error or an output file that cannot be written, 3 numerical divergence
(including state escape).

Flags override values from an optional key=value config file (--config);
unknown config keys are errors.  The MLHJB_OUT environment variable selects
the default output directory for `solve` when --out is absent.

Importing this module and building the parser load only the package's
``errors``, ``specfun`` and ``catalog`` modules (the last for its problem
names, without the solvers).  A command imports the rest on first use:
``verify`` the defect quadrature (and ``csv``), ``solve`` and ``cost`` the
solvers (``hjb``, which loads ``fracderiv``).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import math
import os
import stat
import sys

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    StateEscapeError,
)
from .specfun import DiscountSpec, kernel, ml_one, ml_two

__all__ = ["main", "console_main", "build_parser"]

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

_ENV_OUT = "MLHJB_OUT"
# `verify --scheme` names the defect quadrature; graded Gauss-Legendre is the only one
_SCHEMES = ("gauss_legendre",)

# Cross-module entry points whose modules are imported on first use.  Each is
# a module attribute (resolved by __getattr__), and the commands call the one
# bound at call time (_resolve), so a wrapper bound in its place runs.
_DEFERRED = {"delta_ml": ".defect", "evaluate_cost": ".hjb", "solve_fractional": ".hjb"}


def __getattr__(name: str):
    try:
        source = _DEFERRED[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(source, __package__), name)
    return value


def _resolve(name: str):
    """The global ``name`` as bound now, imported first if nothing bound it yet."""
    return globals()[name] if name in globals() else __getattr__(name)


def _fmt_line(x: float) -> str:
    return f"{x:.12f}"


def _fmt_csv(x: float) -> str:
    return f"{x:.12g}"


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _add_shared(sp: argparse.ArgumentParser, lam_default: float = -0.5) -> None:
    sp.add_argument("--alpha", type=float, default=1.0, help="kernel order in (0, 1] (default %(default)s)")
    sp.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=lam_default,
        help="discount rate multiplier; negative values discount (default %(default)s)",
    )
    sp.add_argument("--out", default=None, help="output file (or directory for solve)")
    sp.add_argument("--config", default=None, help="key=value config file; flags take precedence")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    from . import catalog

    parser = argparse.ArgumentParser(
        prog="mlhjb",
        description="Optimal control with a Mittag-Leffler discount kernel.",
        epilog=f"Environment: {_ENV_OUT} selects the default output directory for `solve`.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subs: dict[str, argparse.ArgumentParser] = {}

    ml = sub.add_parser("ml", help="evaluate E_a(z) or E_{a,b}(z) to 12 digits")
    ml.add_argument("--z", type=float, required=False, default=None, help="argument z")
    ml.add_argument("--beta", type=float, default=None, help="second parameter; omit for the one-parameter function")
    _add_shared(ml)
    subs["ml"] = ml

    verify = sub.add_parser("verify", help="tabulate the semigroup-defect identity residual")
    verify.add_argument("--t", type=float, default=1.0, help="first time argument (default %(default)s)")
    verify.add_argument(
        "--s",
        type=_float_list,
        default=[0.25, 0.5, 1.0],
        help="comma-separated list of second time arguments (default 0.25,0.5,1.0)",
    )
    verify.add_argument("--panels", type=int, default=8, help="quadrature panels per sub-interval (default %(default)s)")
    verify.add_argument(
        "--scheme",
        choices=_SCHEMES,
        default="gauss_legendre",
        help="quadrature rule (default %(default)s)",
    )
    verify.add_argument("--tol", type=float, default=1e-5, help="largest |residual| that exits 0 (default %(default)s)")
    _add_shared(verify, lam_default=-1.0)
    subs["verify"] = verify

    solve = sub.add_parser("solve", help="solve a catalog problem; write value/policy/residual CSVs")
    solve.add_argument("--problem", choices=catalog.PROBLEM_NAMES, default="lq1d", help="catalog problem (default %(default)s)")
    solve.add_argument("--dt", type=float, default=None, help="time step (default per problem)")
    solve.add_argument("--horizon", type=float, default=None, help="horizon truncation T (default per problem)")
    solve.add_argument("--nx", type=int, default=None, help="grid points per state dimension (default per problem)")
    solve.add_argument("--window", type=int, default=None, help="memory slices for the residual diagnostic (default per problem)")
    solve.add_argument("--x0", type=_float_list, default=None, help="summary evaluation state (default per problem)")
    solve.add_argument("--stride", type=int, default=None, help="emit every Nth time slice to CSV (default: about 200 slices)")
    _add_shared(solve)
    subs["solve"] = solve

    cost = sub.add_parser("cost", help="forward-evaluate the discounted cost of a control law")
    cost.add_argument("--problem", choices=catalog.PROBLEM_NAMES, default="lq1d", help="catalog problem (default %(default)s)")
    cost.add_argument("--dt", type=float, default=None, help="time step (default per problem)")
    cost.add_argument("--horizon", type=float, default=None, help="horizon truncation T (default per problem)")
    cost.add_argument("--x0", type=_float_list, default=None, help="initial state (default per problem)")
    cost.add_argument("--policy", default=None, help="policy.csv file written by `solve` to replay")
    cost.add_argument(
        "--feedback",
        choices=("zero", "lqr"),
        default="zero",
        help="builtin feedback law when no policy file is given (default %(default)s)",
    )
    _add_shared(cost)
    subs["cost"] = cost

    return parser, subs


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key == "lambda":
            key = "lam"
        out[key] = value
    return out


def _create(path: str):
    """Open ``path`` as a new text file, unlinking a regular file there first.

    Truncating a file whose old contents are still being written back can
    stall (seen on ext4); unlinking and creating does not.  A symlink to a
    regular file is replaced by a regular file; devices, pipes and symlinks
    to them are written through.
    """
    with contextlib.suppress(FileNotFoundError):
        if stat.S_ISREG(os.stat(path).st_mode):
            os.unlink(path)
    return open(path, "w", encoding="utf-8", newline="")


def _emit_line(line: str, out: str | None) -> None:
    # --out first: a run that cannot write it exits 2 with nothing on stdout
    if out:
        with _create(out) as fh:
            fh.write(line + "\n")
    print(line)


def _cmd_ml(args) -> int:
    if args.z is None:
        raise DomainError("--z is required")
    if args.beta is None:
        value = ml_one(args.alpha, args.z)
    else:
        value = ml_two(args.alpha, args.beta, args.z)
    _emit_line(_fmt_line(float(value)), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    import csv

    from .defect import QuadratureConfig

    delta_ml = _resolve("delta_ml")
    spec = DiscountSpec(args.alpha, args.lam)
    quad = QuadratureConfig(panels=args.panels)
    # a config-file value bypasses argparse's choices
    if args.scheme not in _SCHEMES:
        raise ConfigError(f"scheme must be one of {_SCHEMES}, got {args.scheme!r}")
    if not args.s:
        raise DomainError("--s must list at least one value")
    if not args.tol >= 0.0:
        raise DomainError(f"--tol must be a non-negative number, got {args.tol!r}")
    rows = []
    worst = 0.0
    for s in args.s:
        kt = float(kernel(spec, args.t))
        ks = float(kernel(spec, s))
        kts = float(kernel(spec, args.t + s))
        delta = delta_ml(spec, args.t, s, quad)
        resid = kt * ks - delta - kts
        worst = max(worst, abs(resid))
        rows.append((args.t, s, kt * ks, delta, kts, resid))
    target = _create(args.out) if args.out else sys.stdout
    try:
        writer = csv.writer(target, lineterminator="\n")
        writer.writerow(["t", "s", "product", "delta", "composed", "residual"])
        for row in rows:
            writer.writerow([_fmt_csv(v) for v in row])
    finally:
        if args.out:
            target.close()
    return EXIT_OK if worst <= args.tol else EXIT_TOLERANCE


def _slice_indices(count: int, stride: int | None) -> list[int]:
    if stride is None or stride <= 0:
        stride = max(1, math.ceil(count / 201))
    idx = list(range(0, count, stride))
    if idx[-1] != count - 1:
        idx.append(count - 1)
    return idx


def _write_field_csv(path: str, header: list[str], times, axes, indices, columns) -> None:
    """Write ``header``, then one row "t,x...,v..." per grid node of each slice in ``indices``.

    ``columns(i)`` returns slice i as a (nodes, k) array, nodes in the grid's
    C order.  Cells are ``%.12g``; a slice is formatted and written at once.
    """
    coords = [[_fmt_csv(c) + "," for c in ax] for ax in axes]
    cells = ",".join(["%.12g"] * (len(header) - 1 - len(axes)))
    rows = ["".join(node) + cells for node in itertools.product(*coords)]
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        for i in indices:
            prefix = _fmt_csv(times[i]) + ","
            fh.write((prefix + ("\n" + prefix).join(rows) + "\n") % tuple(columns(i).ravel().tolist()))


def _cmd_solve(args) -> int:
    from . import catalog
    from .hjb import SolverConfig

    entry = catalog.get(args.problem)
    spec = DiscountSpec(args.alpha, args.lam)
    cfg = SolverConfig(
        dt=entry.dt if args.dt is None else args.dt,
        horizon=entry.horizon if args.horizon is None else args.horizon,
        nx=entry.nx if args.nx is None else args.nx,
        window=entry.window if args.window is None else args.window,
    )
    x0 = tuple(entry.x0) if args.x0 is None else tuple(args.x0)
    if len(x0) != entry.problem.dim_x:
        raise DomainError(f"--x0 must have {entry.problem.dim_x} components for {entry.name}")
    box = entry.problem.box
    if not np.all((box[:, 0] <= x0) & (x0 <= box[:, 1])):
        raise DomainError(f"--x0 {','.join(map(str, x0))} lies outside the state box of {entry.name}")
    nt = cfg.steps
    value_idx = _slice_indices(nt + 1, args.stride)
    policy_idx = _slice_indices(nt, args.stride)
    kept = sorted(set(value_idx) | set(policy_idx))
    where = dict(zip(kept, range(len(kept))))
    fld, pol = _resolve("solve_fractional")(entry.problem, spec, cfg, slices=kept)
    outdir = args.out or os.environ.get(_ENV_OUT) or "."
    os.makedirs(outdir, exist_ok=True)
    axes = fld.axes
    xcols = ["x"] if len(axes) == 1 else ["x1", "x2"]

    value_pos = [where[i] for i in value_idx]
    _write_field_csv(
        os.path.join(outdir, "value.csv"),
        ["t"] + xcols + ["V"],
        fld.times,
        axes,
        value_pos,
        lambda k: fld.values[k].reshape(-1, 1),
    )
    ucols = ["u"] if pol.control_grid.shape[1] == 1 else [f"u{k+1}" for k in range(pol.control_grid.shape[1])]
    _write_field_csv(
        os.path.join(outdir, "policy.csv"),
        ["t"] + xcols + ucols,
        pol.times,
        axes,
        [where[i] for i in policy_idx],
        lambda k: pol.control_grid[pol.controls[k].ravel()],
    )
    _write_field_csv(
        os.path.join(outdir, "residual.csv"),
        ["t"] + xcols + ["residual"],
        fld.times,
        axes,
        [k for k in value_pos if np.all(np.isfinite(fld.residual[k]))],
        lambda k: fld.residual[k].reshape(-1, 1),
    )
    print(f"V(x0,0) = {_fmt_line(fld.at(np.asarray(x0), 0))}")
    return EXIT_OK


# ASCII characters other than "\n" at which str.splitlines() also ends a line
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def _policy_rows(path: str, text: str, dim_x: int) -> np.ndarray:
    """The data rows of a policy file's ``text``, checked against its header.

    Plain ASCII lines ending in "\n" are parsed in C by np.loadtxt, which
    converts a cell to the value float() gives or rejects it.  Its result
    stands when every line gave one row as wide as a valid header; any
    other text (blank lines, which loadtxt skips; cells such as "1_0", which
    only float() reads; other line ends) goes through the line checks below.
    """
    head, _, body = text.partition("\n")
    header = head.split(",")
    if (
        len(header) >= dim_x + 2
        and header[0] == "t"
        and body[:1] not in ("", "\n")  # blank lines only: loadtxt finds no row and warns
        and text.isascii()
        and not any(c in text for c in _OTHER_BREAKS)
    ):
        try:
            data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if data.shape == (body.count("\n") + (not body.endswith("\n")), len(header)):
                return data
    lines = text.splitlines()
    if len(lines) < 2:
        raise ConfigError(f"policy file {path!r} has no data rows")
    header = lines[0].split(",")
    widths = {line.count(",") + 1 for line in lines[1:]}
    # rows all of one width that is not the header's: the header is wrong
    if len(header) < dim_x + 2 or header[0] != "t" or (len(widths) == 1 and widths != {len(header)}):
        raise ConfigError(f"policy file {path!r} header {header!r} does not match (t, x..., u...)")
    if len(widths) > 1:
        raise ConfigError(f"policy file {path!r} has ragged rows")
    try:
        # numpy parses each cell as float() does, -0, nan and inf included
        return np.array(",".join(lines[1:]).split(","), dtype=float).reshape(len(lines) - 1, len(header))
    except ValueError:
        raise ConfigError(f"policy file {path!r} contains non-numeric cells")


def _read_policy(path: str, dim_x: int):
    from .hjb import Policy

    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read policy file {path!r}: {exc}")
    data = _policy_rows(path, text, dim_x)
    tvals = np.unique(data[:, 0])
    axes = [np.unique(data[:, 1 + d]) for d in range(dim_x)]
    shape = (len(tvals),) + tuple(len(ax) for ax in axes)
    expected = int(np.prod(shape))
    if data.shape[0] != expected:
        raise ConfigError(f"policy file {path!r} does not cover a full (t, x) grid")
    it = np.searchsorted(tvals, data[:, 0])
    node = tuple(np.searchsorted(axes[d], data[:, 1 + d]) for d in range(dim_x))
    # each node points at its own row; with the row count already equal to
    # the node count, a node left unset means another one is listed twice
    controls = np.full(expected, -1, dtype=np.intp)
    controls[np.ravel_multi_index((it, *node), shape)] = np.arange(expected)
    if np.any(controls < 0):
        raise ConfigError(f"policy file {path!r} repeats a (t, x) node")
    return Policy(controls=controls.reshape(shape), control_grid=data[:, 1 + dim_x :], times=tvals, axes=tuple(axes))


def _cmd_cost(args) -> int:
    from . import catalog
    from .hjb import SolverConfig, lqr_oracle

    entry = catalog.get(args.problem)
    spec = DiscountSpec(args.alpha, args.lam)
    cfg = SolverConfig(
        dt=entry.dt if args.dt is None else args.dt,
        horizon=entry.horizon if args.horizon is None else args.horizon,
        nx=entry.nx,
        window=entry.window,
    )
    x0 = tuple(entry.x0) if args.x0 is None else tuple(args.x0)
    if args.feedback not in ("zero", "lqr"):
        raise ConfigError(f"unknown feedback law {args.feedback!r}")
    if args.policy is not None:
        law = _read_policy(args.policy, entry.problem.dim_x)
    elif args.feedback == "lqr":
        if args.problem != "lq1d":
            raise ConfigError("--feedback lqr is defined only for the lq1d problem")
        c = catalog.LQ1D_COEFFS
        _, gain = lqr_oracle(c["a"], c["b"], c["q"], c["r"], args.lam)
        law = lambda x, t: np.array([gain * x[0]])
    else:
        du = entry.problem.controls.shape[1]
        law = lambda x, t: np.zeros(du)
    j = _resolve("evaluate_cost")(entry.problem, spec, law, np.asarray(x0), cfg)
    _emit_line(_fmt_line(j), args.out)
    return EXIT_OK


_DISPATCH = {
    "ml": _cmd_ml,
    "verify": _cmd_verify,
    "solve": _cmd_solve,
    "cost": _cmd_cost,
}


def main(argv=None) -> int:
    parser, subs = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.config is not None:
        try:
            overrides = _load_config(args.config)
            sub = subs[args.command]
            valid = {action.dest for action in sub._actions} - {"help", "config", "command"}
            unknown = sorted(set(overrides) - valid)
            if unknown:
                raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
            sub.set_defaults(**overrides)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (DomainError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergenceError, ConvergenceError, StateEscapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))
