"""Every name the benchmark's tracer wraps (`bench/spans.py`, `TRACED`) exists
in panelroute. A rename would otherwise break only the benchmark's own tests."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, qual) for module, names in spans.TRACED.items() for qual in names]


@pytest.mark.parametrize("module, qual", traced_names())
def test_traced_name_resolves(module, qual):
    mod = importlib.import_module(f"panelroute.{module}")
    if "." in qual:  # a method, looked up on its class as the tracer does
        cls_name, meth = qual.split(".")
        raw = vars(getattr(mod, cls_name))[meth]
        assert callable(getattr(raw, "__func__", raw))
    else:
        assert callable(getattr(mod, qual))
