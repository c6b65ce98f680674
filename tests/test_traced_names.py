"""The benchmark's tracer wraps ramsmooth functions and methods by name;
every name it lists must still exist, or `perfbench/run.py --trace 1`
breaks while the suite stays green."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracer = load_tracer()
    for name, (module, attr) in tracer.FUNCTIONS.items():
        assert callable(getattr(module, attr, None)), name


def test_traced_methods_exist():
    tracer = load_tracer()
    for name, (cls, attr) in tracer.METHODS.items():
        assert callable(cls.__dict__.get(attr)), name
