"""The names perfbench/tracer.py rebinds must exist in the library.

The benchmark's tracer wraps library functions by (module, attribute) and
reads train_mechanism's arguments by position, so a refactor that renames
or reorders them breaks the benchmark without failing any library test.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

from dppoison import train_mechanism

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer()._TARGETS


@pytest.mark.parametrize("module_name, attr", [t[:2] for t in TARGETS])
def test_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_train_mechanism_positions():
    # the tracer classifies a solve from args[2] (the noise) and args[4]
    # (the warm start)
    params = list(inspect.signature(train_mechanism).parameters)
    assert params[2] == "b"
    assert params[4] == "warm_start"
