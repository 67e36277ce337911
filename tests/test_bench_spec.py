"""The benchmark's experiment file still loads.

``perfbench/bench.py`` writes a frozen copy of the default experiment
(``DEFAULT_SPEC`` plus ``Sizes.train_overrides``) and trains on it.  A
config key it sets that gsplab no longer accepts makes every benchmark
operation fail, so the file is written and loaded here, without running
the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from gsplab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    """(bench, test_bench) loaded by path; bench.py imports ``tracer`` and
    test_bench.py imports ``bench`` as top-level modules, so both are
    registered under those names while loading and removed afterwards."""
    names = ("tracer", "bench", "perfbench_test_bench")
    saved_path = sys.path[:]
    saved = {n: sys.modules[n] for n in names if n in sys.modules}
    try:
        _load("tracer", "tracer.py")
        bench = _load("bench", "bench.py")
        tests = _load("perfbench_test_bench", "test_bench.py")
    finally:
        sys.path[:] = saved_path
        for n in names:
            sys.modules.pop(n, None)
        sys.modules.update(saved)
    return bench, tests


@pytest.mark.parametrize("sizes", ["default", "tiny"])
def test_bench_spec_loads(perfbench, tmp_path, sizes):
    bench, tests = perfbench
    chosen = bench.Sizes() if sizes == "default" else tests.TINY
    path = tmp_path / "spec.ini"
    bench.write_spec(path, 7, chosen)
    world, train, _sweep = cli._load_spec(str(path))
    assert world.seed == train.seed == 7
    for key, value in chosen.train_overrides.items():
        assert getattr(train, key) == value, key
