"""Every name the benchmark's tracer wraps (`bench/spans.py`, `TRACED`) exists
in panelroute, and every argument or result it reads by position is where it
looks. A rename or a reordered signature would otherwise break only the
benchmark's own tests."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from panelroute.specialist import SpecialistConfig, SpecialistModel

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, qual) for module, names in spans.TRACED.items() for qual in names]


def traced_function(module, qual):
    """The function the tracer wraps; a method is looked up on its class, so
    its `self` is argument 0, as in the wrapper's `args`."""
    mod = importlib.import_module(f"panelroute.{module}")
    if "." in qual:
        cls_name, meth = qual.split(".")
        raw = vars(getattr(mod, cls_name))[meth]
        return getattr(raw, "__func__", raw)
    return getattr(mod, qual)


@pytest.mark.parametrize("module, qual", traced_names())
def test_traced_name_resolves(module, qual):
    assert callable(traced_function(module, qual))


@pytest.mark.parametrize("module, qual, index, name", [
    ("specialist", "AdamW.step", 2, "grads"),
    ("specialist", "SpecialistModel.loss_and_grads", 2, "targets"),
    ("specialist", "SpecialistModel.suggest", 1, "prefix_ids"),
    ("serial", "save_bundle", 0, "path"),
    ("serial", "load_bundle", 0, "path"),
])
def test_positional_read_finds_its_argument(module, qual, index, name):
    params = list(inspect.signature(traced_function(module, qual)).parameters)
    assert params[index] == name


def test_adamw_step_keeps_its_positional_order():
    params = inspect.signature(traced_function("specialist", "AdamW.step")).parameters
    assert list(params) == ["self", "params", "grads", "lr", "decay_keys"]


@pytest.mark.parametrize("lora", [False, True])
def test_backward_returns_weight_and_adapter_gradients(lora):
    model = SpecialistModel(SpecialistConfig(vocab_size=8, layers=1, d_model=8, heads=2,
                                             dropout=0.0, max_positions=8))
    if lora:
        model.attach_lora(rank=2)
    _, cache = model.forward(np.array([[2, 4, 5, 6]]))
    grads, a_grads = model.backward(cache, np.ones((1, 4, 8)))
    assert set(grads) == set(model.params)
    assert set(a_grads) == set(model.adapters)
    assert all(len(pair) == 2 for pair in a_grads.values())
