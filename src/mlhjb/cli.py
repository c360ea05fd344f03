"""Command-line front end: kernel evaluation, identity verification, solves, rollouts.

Subcommands:
  ml      evaluate the one- or two-parameter Mittag-Leffler function
  verify  tabulate the semigroup-defect identity residual as CSV
  solve   run a catalog problem and write value/policy/residual CSV files
  cost    forward-evaluate the discounted cost of a feedback law or policy file

Exit codes: 0 success, 1 verification tolerance unmet, 2 usage or domain
error, an output file that cannot be written or an array too large to
allocate, 3 numerical divergence (including state escape).

Flags override values from an optional key=value config file (--config).
A config value is checked as its flag would be, and unknown keys are errors.
The MLHJB_OUT environment variable selects the default output directory for
`solve` when --out is absent.

Importing this module and building the parser load only the package's
``errors``, ``specfun`` and ``catalog`` modules (the last for its problem
names, without the solvers).  A command imports the rest on first use:
``verify`` the defect quadrature, ``solve`` and ``cost`` the solvers
(``hjb``, which loads ``fracderiv``).
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
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _add_discount(sp: argparse.ArgumentParser, lam_default: float = -0.5) -> None:
    sp.add_argument("--alpha", type=float, default=1.0, help="kernel order in (0, 1] (default %(default)s)")
    sp.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=lam_default,
        help="discount rate multiplier; negative values discount (default %(default)s)",
    )


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
    ml.add_argument("--alpha", type=float, default=1.0, help="order a >= 0, a > 0 with --beta (default %(default)s)")
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
        choices=("gauss_legendre",),  # graded Gauss-Legendre is the only defect quadrature
        default="gauss_legendre",
        help="quadrature rule (default %(default)s)",
    )
    verify.add_argument("--tol", type=float, default=1e-5, help="largest |residual| that exits 0 (default %(default)s)")
    _add_discount(verify, lam_default=-1.0)
    subs["verify"] = verify

    solve = subs["solve"] = sub.add_parser("solve", help="solve a catalog problem; write value/policy/residual CSVs")
    cost = subs["cost"] = sub.add_parser("cost", help="forward-evaluate the discounted cost of a control law")
    for sp in (solve, cost):
        sp.add_argument("--problem", choices=catalog.PROBLEM_NAMES, default="lq1d", help="catalog problem (default %(default)s)")
        sp.add_argument("--dt", type=float, default=None, help="time step (default per problem)")
        sp.add_argument("--horizon", type=float, default=None, help="horizon truncation T (default per problem)")
        sp.add_argument("--x0", type=_float_list, default=None, help="initial state (default per problem)")
        _add_discount(sp)

    solve.add_argument("--nx", type=int, default=None, help="grid points per state dimension (default per problem)")
    solve.add_argument("--window", type=int, default=None, help="memory slices for the residual diagnostic (default per problem)")
    solve.add_argument("--stride", type=int, default=None, help="emit every Nth time slice to CSV (default: about 200 slices)")

    cost.add_argument("--policy", default=None, help="policy.csv file written by `solve` to replay")
    cost.add_argument(
        "--feedback",
        choices=("zero", "lqr"),
        default="zero",
        help="builtin feedback law when no policy file is given (default %(default)s)",
    )

    for sp in subs.values():
        sp.add_argument("--out", default=None, help="output file (or directory for solve)")
        sp.add_argument("--config", default=None, help="key=value config file; flags take precedence")
    return parser, subs


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path!r} is not UTF-8 text")
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
    delta_ml = _resolve("delta_ml")
    spec = DiscountSpec(args.alpha, args.lam)
    if not args.tol >= 0.0:
        raise DomainError(f"--tol must be a non-negative number, got {args.tol!r}")
    rows = []
    worst = 0.0
    # one delta_ml call over every s, which checks t and s by name first, and one
    # kernel call over t, every s and every t + s; each value equals its scalar call
    deltas = delta_ml(spec, args.t, np.array(args.s), args.panels).tolist()
    n = len(args.s)
    kern = kernel(spec, np.array([args.t, *args.s, *(args.t + s for s in args.s)])).tolist()
    kt = kern[0]
    for s, ks, kts, delta in zip(args.s, kern[1 : n + 1], kern[n + 1 :], deltas):
        resid = kt * ks - delta - kts
        worst = max(worst, abs(resid))
        rows.append((args.t, s, kt * ks, delta, kts, resid))
    lines = ["t,s,product,delta,composed,residual", *(",".join(map(_fmt_csv, row)) for row in rows)]
    with _create(args.out) if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK if worst <= args.tol else EXIT_TOLERANCE


def _slice_indices(count: int, stride: int | None) -> list[int]:
    if stride is None:
        stride = max(1, math.ceil(count / 201))
    elif stride < 1:
        raise DomainError(f"--stride must be a positive integer, got {stride}")
    idx = list(range(0, count, stride))
    if idx[-1] != count - 1:
        idx.append(count - 1)
    return idx


def _write_field_csv(path: str, header: list[str], axes, slices, grid=None) -> None:
    """Write ``header``, then one row "t,x...,cells" per grid node of each (t, cells) pair in ``slices``.

    Nodes run in the grid's C order, and every number prints as ``%.12g``.
    Without ``grid``, ``cells`` holds the slice's values as a (nodes, k)
    array or one that ravels to it, and a whole slice is formatted with one
    ``%`` operation.  With ``grid``, ``cells`` holds each node's row index
    into the (count, k) array ``grid``: each grid row is formatted once, as a
    label, and a slice's rows are the node prefixes and their labels joined.
    Each slice is written at once.
    """
    coords = [[_fmt_csv(c) + "," for c in ax] for ax in axes]
    nodes = ["".join(node) for node in itertools.product(*coords)]
    cells = ",".join(["%.12g"] * (len(header) - 1 - len(axes)))
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        if grid is None:
            rows = [node + cells for node in nodes]
            for t, values in slices:
                prefix = _fmt_csv(t) + ","
                fh.write((prefix + ("\n" + prefix).join(rows) + "\n") % tuple(values.ravel().tolist()))
            return
        labels = np.array([cells % tuple(row) + "\n" for row in grid.tolist()], dtype=object)
        # (time prefix, node prefix, label) per row, joined in C
        parts = np.empty(3 * len(nodes), dtype=object)
        parts[1::3] = nodes
        for t, index in slices:
            parts[0::3] = _fmt_csv(t) + ","
            parts[2::3] = labels[index.ravel()]
            fh.write("".join(parts.tolist()))


def _run_setup(args):
    """(entry, spec, cfg, x0) of a `solve` or `cost` run; x0 is checked against the state box.

    A flag left unset, or one the command lacks (`cost` has no --nx or
    --window), takes the catalog entry's value.
    """
    from . import catalog
    from .hjb import SolverConfig

    def flag(name: str, default):
        value = getattr(args, name, None)
        return default if value is None else value

    entry = catalog.get(args.problem)
    spec = DiscountSpec(args.alpha, args.lam)
    cfg = SolverConfig(
        dt=flag("dt", entry.dt),
        horizon=flag("horizon", entry.horizon),
        nx=flag("nx", entry.nx),
        window=flag("window", entry.window),
    )
    x0 = tuple(flag("x0", entry.x0))
    if len(x0) != entry.problem.dim_x:
        raise DomainError(
            f"--x0 must have one component per state dimension of {entry.name} ({entry.problem.dim_x}), got {len(x0)}"
        )
    box = entry.problem.box
    if not np.all((box[:, 0] <= x0) & (x0 <= box[:, 1])):
        raise DomainError(f"--x0 {','.join(map(str, x0))} lies outside the state box of {entry.name}")
    return entry, spec, cfg, x0


def _cmd_solve(args) -> int:
    entry, spec, cfg, x0 = _run_setup(args)
    kept = _slice_indices(cfg.steps + 1, args.stride)
    fld, pol = _resolve("solve_fractional")(entry.problem, spec, cfg, slices=kept)
    outdir = args.out or os.environ.get(_ENV_OUT) or "."
    os.makedirs(outdir, exist_ok=True)
    axes = fld.axes
    xcols = ["x"] if len(axes) == 1 else ["x1", "x2"]
    ucols = ["u"] if pol.control_grid.shape[1] == 1 else [f"u{k+1}" for k in range(pol.control_grid.shape[1])]
    for name, cols, slices, grid in (
        ("value.csv", ["V"], zip(fld.times, fld.values), None),
        ("policy.csv", ucols, zip(pol.times, pol.controls), pol.control_grid),
        ("residual.csv", ["residual"], ((t, r) for t, r in zip(fld.times, fld.residual) if np.all(np.isfinite(r))), None),
    ):
        _write_field_csv(os.path.join(outdir, name), ["t"] + xcols + cols, axes, slices, grid)
    print(f"V(x0,0) = {_fmt_line(fld.at(np.asarray(x0), 0))}")
    return EXIT_OK


# ASCII bytes at which str.splitlines() ends a line but a policy file may not
_BREAKS = b"\x0b\x0c\x1c\x1d\x1e"


def _policy_rows(path: str, raw: bytes, dim_x: int, dim_u: int) -> np.ndarray:
    """The data rows of a policy file's bytes ``raw``, checked against its header.

    An ASCII file whose lines end in "\n" or "\r\n" and whose header is
    (t, x..., u...) is parsed in C by np.loadtxt, straight from ``raw``, which
    converts a cell to the value float() gives or rejects it.  Any other file,
    or one that loadtxt rejects or reads as too few rows (it skips blank
    lines), is decoded only to pick the error message.
    """
    width = 1 + dim_x + dim_u
    end = raw.find(b"\n")
    header = raw[: max(end, 0)].removesuffix(b"\r").split(b",")
    if (
        len(header) == width
        and header[0] == b"t"
        and raw[end + 1 : end + 2] not in (b"", b"\n", b"\r")  # blank lines only: loadtxt finds no row and warns
        and raw.isascii()
        and (b"\r" not in raw or raw.count(b"\r") == raw.count(b"\r\n"))
        and not any(c in raw for c in _BREAKS)
    ):
        with contextlib.suppress(ValueError):
            # BytesIO shares raw's buffer rather than copying it
            data = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, ndmin=2, skiprows=1)
            if data.shape == (raw.count(b"\n") - raw.endswith(b"\n"), width):
                return data
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"policy file {path!r} is not UTF-8 text")
    lines = text.splitlines()
    if len(lines) < 2:
        raise ConfigError(f"policy file {path!r} has no data rows")
    header = lines[0].split(",")
    widths = {line.count(",") + 1 for line in lines[1:]}
    # rows all of one width that is not the header's: the header is wrong
    if len(header) != width or header[0] != "t" or (len(widths) == 1 and widths != {width}):
        raise ConfigError(f"policy file {path!r} header {header!r} does not match (t, x..., u...)")
    if len(widths) > 1:
        raise ConfigError(f"policy file {path!r} has ragged rows")
    if "\r" in text.replace("\r\n", ""):
        raise ConfigError(f"policy file {path!r} has a line end other than LF or CRLF")
    raise ConfigError(f"policy file {path!r} contains non-numeric cells")


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique of finite ``values``, without the numpy.ma import that np.unique makes."""
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def _read_policy(path: str, dim_x: int, dim_u: int = 1):
    """The policy file at ``path`` for a problem with ``dim_x`` states and ``dim_u`` controls."""
    from .hjb import Policy

    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read policy file {path!r}: {exc}")
    data = _policy_rows(path, raw, dim_x, dim_u)
    del raw  # the table holds all that the index needs
    # a control cell may be non-finite (the rollout then escapes), a node coordinate may not
    bad = np.argwhere(~np.isfinite(data[:, : 1 + dim_x]))
    if bad.size:
        row, col = bad[0]
        raise ConfigError(f"policy file {path!r} line {row + 2} column {col + 1}: non-finite t or x cell {float(data[row, col])!r}")
    tvals, *axes = (_sorted_unique(data[:, c]) for c in range(1 + dim_x))
    shape = (len(tvals),) + tuple(len(ax) for ax in axes)
    expected = int(np.prod(shape))
    if data.shape[0] != expected:
        raise ConfigError(f"policy file {path!r} does not cover a full (t, x) grid")
    # row-major flat index of each row's (t, x...) node, built in place
    flat = np.searchsorted(tvals, data[:, 0])
    for d, ax in enumerate(axes):
        flat *= len(ax)
        flat += np.searchsorted(ax, data[:, 1 + d])
    # each node points at its own row; with the row count already equal to
    # the node count, a node left unset means another one is listed twice
    controls = np.full(expected, -1, dtype=np.intp)
    controls[flat] = np.arange(expected)
    if np.any(controls < 0):
        raise ConfigError(f"policy file {path!r} repeats a (t, x) node")
    # a copy of the control columns, so that the table itself can be freed
    control_grid = data[:, 1 + dim_x :].copy()
    return Policy(controls=controls.reshape(shape), control_grid=control_grid, times=tvals, axes=tuple(axes))


def _cmd_cost(args) -> int:
    from . import catalog
    from .hjb import lqr_oracle

    entry, spec, cfg, x0 = _run_setup(args)
    if args.policy is not None:
        law = _read_policy(args.policy, entry.problem.dim_x, entry.problem.controls.shape[1])
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            overrides = _load_config(args.config)
            flags = {a.dest: a.option_strings[0] for a in subs[args.command]._actions if a.dest not in ("help", "config")}
            unknown = sorted(set(overrides) - set(flags))
            if unknown:
                raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
            # config values are parsed as flags placed before the user's, which win
            at = argv.index(args.command) + 1
            tokens = [f"{flags[key]}={value}" for key, value in overrides.items()]
            args = parser.parse_args(argv[:at] + tokens + argv[at:])
        return _DISPATCH[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    # an array too large to allocate (a huge --horizon / --dt or --nx) is a usage error
    except (DomainError, ConfigError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergenceError, ConvergenceError, StateEscapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))
