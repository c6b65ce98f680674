"""The benchmark's tracer wraps ramsmooth functions and methods by name;
every name it lists must still exist, or `perfbench/run.py --trace 1`
breaks while the suite stays green."""

import importlib.util
import sys
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



def bindings(tracer):
    """Every binding of a traced name in a ramsmooth namespace or class."""
    out = {}
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "ramsmooth"
                                  or key.startswith("ramsmooth.")):
            continue
        for _, attr in tracer.FUNCTIONS.values():
            if attr in vars(module):
                out[key, attr] = vars(module)[attr]
    for cls, attr in tracer.METHODS.values():
        out[cls.__qualname__, attr] = cls.__dict__[attr]
    return out


def test_traced_run_counts_and_uninstall_restores(tmp_path, capsys):
    # a traced name called with keyword arguments, or with another argument
    # shape than its counter hook unpacks, makes a command exit nonzero
    from ramsmooth import cli

    tracer_module = load_tracer()
    before = bindings(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        for argv in (["coeffs", "--function", "mu", "--V", "3",
                      "--ell-max", "6"],
                     ["conjecture1", "--Q", "3", "--index-bound", "2",
                      "--shift-bound", "1"]):
            assert cli.main(argv + ["--out", str(tmp_path)]) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.calls["smooth.best_tail_params"] > 0
    assert tracer.calls["cli.main"] == 2
    assert bindings(tracer_module) == before
