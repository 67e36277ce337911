"""The scripts under scripts/, loaded by path (they are not a package)."""

import importlib.util
from pathlib import Path

import pytest

from test_cli import TINY_SPEC

SCRIPTS = Path(__file__).parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tiny_spec(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_SPEC)
    return path


@pytest.mark.parametrize("script,csv,rows", [
    ("pareto_sweep", "pareto.csv", 1 + 2 + 1 + 1),       # header, λ, σ, uGSP
    ("transition_sweep", "transition.csv", 1 + 2),       # header, ε
])
def test_sweep_script_runs(tiny_spec, tmp_path, capsys, script, csv, rows):
    out = tmp_path / "out"
    assert _load(script).main(str(tiny_spec), str(out)) == 0
    assert len((out / csv).read_text().splitlines()) == rows
    assert (out / "manifest.txt").exists()
    assert "seed=3)" in capsys.readouterr().out   # the script's fixed seed


def test_train_six_configs_imports():
    # main() trains six full configurations, so only its setup is checked
    module = _load("train_six_configs")
    assert callable(module.main)
    assert len(module.WEIGHT_CONFIGS) == 6
    assert all(abs(sum(w) - 1.0) < 1e-12 for w in module.WEIGHT_CONFIGS)
