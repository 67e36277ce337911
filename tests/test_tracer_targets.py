"""Every name the benchmark tracer wraps still exists where it looks.

``perfbench/tracer.py`` replaces methods in their class's own
``__dict__`` and rebinds functions by identity in the gsplab modules.  A
deleted, aliased or inherited name makes every traced benchmark
operation fail, so the targets are checked here, without running the
benchmark.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_tracer_target_resolves(target):
    module = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, meth = target.attr.split(".")
        cls = getattr(module, cls_name)
        assert meth in vars(cls), f"{target.attr} is not defined on {cls_name}"
        assert callable(vars(cls)[meth])
    else:
        fn = getattr(module, target.attr)
        assert inspect.isfunction(fn), f"{target.attr} is not a function"
        # a function defined elsewhere would be wrapped under the wrong name
        assert fn.__module__ == target.module
        assert fn.__name__ == target.attr
