"""Child-process entry points of the benchmark; one operation per process.

    child.py cli [--trace FILE] -- ARGS...   run ``mlhjb ARGS``; with --trace,
                                             record spans and write them to FILE
    child.py setup                           print the seconds spent on
                                             ``import mlhjb.cli`` + ``build_parser()``
    child.py march PROBLEM                   print JSON {march_s, steps} of a
                                             classical (alpha = 1) solve on the
                                             grid of the problem's solve workload
    child.py policies SEED DIR               write the seed's replay policy files
                                             into DIR; print JSON of their replays

The ``mlhjb`` package is imported from ``PYTHONPATH``.
"""

import sys
import time


def _cli(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        raise SystemExit("usage: child.py cli [--trace FILE] -- ARGS...")
    from mlhjb import cli

    if trace_path is None:
        return cli.main(argv[1:])
    t0 = time.perf_counter()
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.overhead_s += time.perf_counter() - t0
    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(trace_path)


def _setup() -> int:
    t0 = time.perf_counter()
    import mlhjb.cli

    mlhjb.cli.build_parser()
    print(repr(time.perf_counter() - t0))
    return 0


def _march(problem: str) -> int:
    import json

    from mlhjb import catalog, hjb
    from mlhjb.specfun import DiscountSpec
    from oracle import SOLVE_FLAGS

    entry = catalog.get(problem)
    flags = SOLVE_FLAGS[problem]
    cfg = hjb.SolverConfig(dt=entry.dt, horizon=flags["horizon"], nx=flags.get("nx", entry.nx), window=entry.window)
    # lam -0.5 is the CLI default the solve workloads run at
    spec = DiscountSpec(1.0, -0.5)
    t0 = time.perf_counter()
    hjb.solve_classical(entry.problem, spec, cfg)
    print(json.dumps({"march_s": time.perf_counter() - t0, "steps": cfg.steps}))
    return 0


def _policies(seed: str, work: str) -> int:
    import json

    import policygen

    print(json.dumps(policygen.prepare(int(seed), work)))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"]:
        return _cli(argv[1:])
    if argv == ["setup"]:
        return _setup()
    if argv[:1] == ["march"] and len(argv) == 2:
        return _march(argv[1])
    if argv[:1] == ["policies"] and len(argv) == 3:
        return _policies(argv[1], argv[2])
    raise SystemExit("usage: child.py cli|setup|march|policies ...")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
