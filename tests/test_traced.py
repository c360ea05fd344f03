"""The benchmark tracer's targets exist, and wrapping them wraps the code the commands run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _ in spans.TRACED]


@pytest.mark.parametrize("module, attr", _traced())
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_tracer_wraps_the_code_that_runs(tmp_path):
    # installed after `import mlhjb.cli`, as the benchmark child does, so the
    # wrapped names are ones the commands resolve on first use
    commands = {
        "verify": ["verify", "--alpha", "0.5", "--s", "0.25,0.5"],
        "cost": ["cost", "--problem", "static1d", "--alpha", "0.8", "--horizon", "2"],
        "solve": ["solve", "--problem", "lq1d", "--dt", "0.02", "--horizon", "1", "--nx", "17", "--window", "10",
                  "--alpha", "0.8", "--out", str(tmp_path)],
    }
    script = (
        "import importlib.util, json\n"
        "from mlhjb import cli\n"
        f"spec = importlib.util.spec_from_file_location('bench_spans', {str(_SPANS)!r})\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "out = {}\n"
        f"for name, argv in {commands!r}.items():\n"
        "    first = len(tracer.spans)\n"
        "    assert cli.main(argv) == 0\n"
        "    out[name] = spans.totals(tracer.spans[first:])\n"
        "print(json.dumps(out))\n"
    )
    src = Path(importlib.import_module("mlhjb").__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout.splitlines()[-1])
    assert got["verify"]["cli.delta_ml"]["calls"] == 2
    assert got["cost"]["cli.evaluate_cost"]["calls"] == 1
    assert got["cost"]["cli.evaluate_cost"]["count"] == 200
    assert got["solve"]["cli.solve_fractional"]["calls"] == 1
    assert got["solve"]["hjb.rl_window_deriv"]["calls"] >= 1
