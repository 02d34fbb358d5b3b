"""The benchmark's tracer wraps package attributes by name; every name it
lists must still exist, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _, _ in _spans()])
def test_traced_attribute_resolves(module, path):
    owner = importlib.import_module(f"hjminimax.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_evolve_states_argument_order():
    # the seed-step counter reads (spec, times, seeds, step) by position
    from hjminimax.characteristics import evolve_states
    params = list(inspect.signature(evolve_states).parameters)
    assert params[:4] == ["spec", "times", "seeds", "step"]


@pytest.mark.parametrize("name, args, kwargs", [
    ("default_seeds", ("spec", 800), {"t": 1.5}),
    ("slice_analysis", ("spec", 1.5, "seeds"), {"step": 0.005}),
    ("eliminate", ("front",), {}),
    ("select_pointwise", ("analysis", 0.5), {}),
])
def test_direct_call_binds(name, args, kwargs):
    # the benchmark's slice jobs and checks call these directly, in this form
    from hjminimax import selector
    inspect.signature(getattr(selector, name)).bind(*args, **kwargs)
