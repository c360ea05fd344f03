"""The benchmark tracer's targets exist: each (module, attribute) it wraps resolves."""

import importlib
import importlib.util
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
