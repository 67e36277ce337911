import concurrent.futures
import configparser
import contextlib
import csv
import dataclasses
import hashlib
import io
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsplab import cli
from gsplab.auction import FEATURE_DIM, UgspMechanism
from gsplab.nets import CHECKPOINT_MAGIC, BidMultiplierNet, Mlp
from gsplab.simulator import METRICS, WorldConfig
from gsplab.trainer import TrainConfig

from test_bench_spec import perfbench  # noqa: F401 - fixture

TINY_SPEC = """\
[world]
n_advertisers = 4
slots = 2
slot_ctr_factors = 1.0,0.6
calibration_rounds = 100
seed = 1

[train]
weights = 1,0,0,0,0
pretrain_rounds = 20
pretrain_epochs = 20
train_iters = 2
benchmark_rounds = 50
eval_rounds = 50
eval_every = 1
hidden = 8,4

[sweep]
lambda_grid = 0,1.0
sigma_grid = 1.0
ugsp_grid = 1
eps_grid = 0,0.4
compare_rounds = 100
"""


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "tiny.ini"
    path.write_text(TINY_SPEC)
    return path


@pytest.fixture(scope="module")
def trained_dir(spec_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = cli.main(["train", "--config", str(spec_file), "--out", str(out)])
    assert code == 0
    return out


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Golden worked example


def test_golden_passes(capsys):
    assert cli.main(["golden"]) == 0
    out = capsys.readouterr().out
    assert "golden worked-example check passed" in out
    assert "FAIL" not in out


def test_golden_mismatch_exit_code(monkeypatch, capsys):
    checks = [("gsp revenue", 0.5, 0.87, 1e-9)]
    failures = [("gsp revenue", 0.5, 0.87)]
    monkeypatch.setattr(cli, "golden_example", lambda: (checks, failures))
    assert cli.main(["golden"]) == 3
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Validation failures


def test_missing_config_file(tmp_path, capsys):
    code = cli.main(["train", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "validation error" in capsys.readouterr().err


def test_missing_weights_field_named(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[world]\nseed = 1\n\n[train]\neps = 0.2\n")
    code = cli.main(["train", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "weights" in capsys.readouterr().err


def test_bad_train_value(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[world]\nseed = 1\n\n[train]\nweights = 1,0,0,0\n")
    code = cli.main(["train", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "[train]" in capsys.readouterr().err


def _edited_spec(tmp_path, section, line):
    """TINY_SPEC with ``line`` set in ``section`` (replacing its key)."""
    key = line.split("=")[0].strip()
    out, current = [], None
    for ln in TINY_SPEC.splitlines():
        if ln.startswith("["):
            current = ln.strip("[]")
        elif current == section and ln.split("=")[0].strip() == key:
            continue
        out.append(ln)
        if ln == f"[{section}]":
            out.append(line)
    path = tmp_path / "edited.ini"
    path.write_text("\n".join(out) + "\n")
    return path


@pytest.mark.parametrize("section,line,key", [
    ("train", "gama_mono = 5", "gama_mono"),
    ("world", "n_advertiser = 9", "n_advertiser"),
    ("train", "replay_size = 100", "replay_size"),
    ("sweep", "lamda_grid = 0,1", "lamda_grid"),
    ("train", "kappa_price = 0.5", "kappa_price"),
    # the actor-critic loop's tuning values are trainer constants
    ("train", "noise_std = -1", "noise_std"),
    ("train", "noise_decay = 0.985", "noise_decay"),
    ("train", "noise_floor = 0.02", "noise_floor"),
    ("train", "batch_rounds = 0", "batch_rounds"),
    ("train", "actor_lr = 2e-3", "actor_lr"),
    ("train", "critic_lr = 5e-3", "critic_lr"),
    ("train", "critic_steps = 5", "critic_steps"),
    ("train", "actor_steps = 1", "actor_steps"),
    ("train", "spot_states = 0", "spot_states"),
    # the market's generative parameters are simulator constants; bids
    # equal valuations and the last ranked pays 0
    ("world", "value_mu = 0.5", "value_mu"),
    ("world", "value_sigma = 0.4", "value_sigma"),
    ("world", "value_mu_spread = 0.35", "value_mu_spread"),
    ("world", "ctr_alpha = 4.0", "ctr_alpha"),
    ("world", "ctr_beta = 16.0", "ctr_beta"),
    ("world", "cart_given_click_alpha = 3.0", "cart_given_click_alpha"),
    ("world", "cart_given_click_beta = 7.0", "cart_given_click_beta"),
    ("world", "order_given_click_alpha = 2.0", "order_given_click_alpha"),
    ("world", "order_given_click_beta = 8.0", "order_given_click_beta"),
    ("world", "price_mu = 3.0", "price_mu"),
    ("world", "price_sigma = 0.5", "price_sigma"),
    ("world", "shade_factor = 0.7", "shade_factor"),
    ("world", "reserve_price = 0.1", "reserve_price"),
    ("world", "normalizer_margin = 4.0", "normalizer_margin"),
])
def test_unknown_key_is_validation_error(tmp_path, capsys, section, line, key):
    path = _edited_spec(tmp_path, section, line)
    code = cli.main(["train", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"[{section}]" in err and key in err


@pytest.mark.parametrize("line", [
    "slots = abc",
    "slot_ctr_factors = 1.0,0.6,0.4",
    "slots = 5",                      # more slots than advertisers
    "n_advertisers = 0",
    "prediction_noise = nan",
    "prediction_noise = -0.1",
    "calibration_rounds = 0",
])
def test_bad_world_value_is_validation_error(tmp_path, capsys, line):
    path = _edited_spec(tmp_path, "world", line)
    code = cli.main(["evaluate", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "[world]" in capsys.readouterr().err


@pytest.mark.parametrize("edits,seed,zero", [
    # one bidder ranks last and pays 0: no revenue
    ({"n_advertisers = 4": "n_advertisers = 1", "slots = 2": "slots = 1",
      "slot_ctr_factors = 1.0,0.6": "slot_ctr_factors = 1.0"}, "1", "rpm"),
    # one calibration round has clicks but no cart or order
    ({"calibration_rounds = 100": "calibration_rounds = 1"}, "5",
     "acr, cvr, gpm"),
])
def test_zero_calibration_metric_is_validation_error(tmp_path, capsys, edits,
                                                      seed, zero):
    spec = TINY_SPEC
    for old, new in edits.items():
        spec = spec.replace(old, new)
    path = tmp_path / "spec.ini"
    path.write_text(spec)
    code = cli.main(["train", "--config", str(path), "--seed", seed,
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "[world]" in err and "calibration_rounds" in err
    assert f"gave {zero} = 0" in err


@pytest.mark.parametrize("command,line", [
    ("train", "eval_rounds = 0"),
    ("train", "benchmark_rounds = 0"),
    ("train", "eval_every = 0"),
    ("train", "train_iters = -1"),
    ("evaluate", "eval_rounds = 0"),
])
def test_bad_train_value_is_validation_error(tmp_path, capsys, command, line):
    path = _edited_spec(tmp_path, "train", line)
    code = cli.main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "[train]" in err and line.split(" =")[0] in err


@pytest.mark.parametrize("line", [
    "compare_rounds = abc",
    "compare_rounds = 0",
    "lambda_grid = 0,1.5",
    "lambda_grid = 1.0,0",
    "eps_grid = -0.1,0.2",
    "eps_grid = 0.4,0.2",
    "trade_metric = rpm",
    "sigma_grid = ",
    "sigma_grid = nan",
    "ugsp_grid = 1,-1",
])
def test_bad_sweep_value_is_validation_error(tmp_path, capsys, line):
    path = _edited_spec(tmp_path, "sweep", line)
    code = cli.main(["pareto", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "[sweep]" in err and line.split(" =")[0] in err


def test_sweep_config_validation():
    assert cli.SweepConfig().compare_rounds == 6000
    for bad in (dict(lambda_grid=()), dict(ugsp_grid=()),
                dict(eps_grid=(0.2, 1.1)), dict(trade_metric="rpm"),
                dict(compare_rounds=0)):
        with pytest.raises(ValueError):
            cli.SweepConfig(**bad)


def test_repo_configs_load():
    configs = sorted((Path(__file__).parents[1] / "configs").glob("*.ini"))
    assert configs
    for path in configs:
        cli._load_spec(str(path))   # raises on a bad value
        assert "[sweep]" in path.read_text().splitlines(), path


# Every [world]/[train] key with values outside its range; each key
# also gets the unparsable values below.
_NONFINITE = st.sampled_from(["nan", "inf", "-inf"])
_NEGATIVE = st.floats(max_value=-1e-300).map(repr) | _NONFINITE
_NOT_POSITIVE = st.floats(max_value=0.0).map(repr) | _NONFINITE
_OUTSIDE_UNIT = (st.floats(max_value=-1e-300)
                 | st.floats(min_value=1.0, exclude_min=True)).map(repr) \
    | st.just("nan")
_INT_BELOW_1 = st.integers(max_value=0).map(str)
_INT_BELOW_0 = st.integers(max_value=-1).map(str)
_OUT_OF_RANGE = {
    ("world", "n_advertisers"): st.integers(max_value=1).map(str),
    ("world", "slots"): (st.integers(max_value=0)
                         | st.integers(min_value=5)).map(str),
    ("world", "slot_ctr_factors"): st.sampled_from(
        ["1.0", "1.0,0.6,0.4", "0.5,0.6", "1.5,0.6", "1.0,0", "nan,0.5"]),
    ("world", "prediction_noise"): _NEGATIVE,
    ("world", "calibration_rounds"): _INT_BELOW_1,
    ("world", "seed"): _INT_BELOW_0,
    ("train", "weights"): st.sampled_from(
        ["1,0,0,0", "0.5,0.2,0,0,0", "1.5,-0.5,0,0,0", "nan,0,0,0,1",
         "inf,0,0,0,0", "0.2,0.2,0.2,0.2,0.2,0"]),
    ("train", "eps"): _OUTSIDE_UNIT,
    ("train", "eta"): _NOT_POSITIVE,
    ("train", "gamma_mono"): _NEGATIVE,
    ("train", "hidden"): st.sampled_from(["0", "8,0", "-1,4"]),
    ("train", "pretrain_rounds"): _INT_BELOW_1,
    ("train", "pretrain_epochs"): _INT_BELOW_0,
    ("train", "train_iters"): _INT_BELOW_0,
    ("train", "benchmark_rounds"): _INT_BELOW_1,
    ("train", "eval_rounds"): _INT_BELOW_1,
    ("train", "eval_every"): _INT_BELOW_1,
    ("train", "seed"): _INT_BELOW_0,
}
_UNPARSABLE = st.sampled_from(["abc", "", "1,x", "50%", "1.5.2"])


def test_fuzz_table_covers_every_key():
    keys = {("world", f.name) for f in dataclasses.fields(WorldConfig)}
    keys |= {("train", f.name) for f in dataclasses.fields(TrainConfig)}
    assert set(_OUT_OF_RANGE) == keys


# The [train] key each sweep varies between its points (checked in
# test_sweep_retrains_on_every_run), and per section the keys no caller
# sets, each with the reason it stays a key.
_SWEPT = {"pareto": "weights", "transition": "eps"}
_SET_BY_NO_CALLER = {
    "train": {
        "hidden": "the tests shrink the nets with it; the default 64x32 "
                  "warm start costs seconds per training",
    },
    "world": {},
    "sweep": {},
}


@pytest.mark.parametrize("section,cls", [("train", TrainConfig),
                                         ("world", WorldConfig),
                                         ("sweep", cli.SweepConfig)],
                         ids=["train", "world", "sweep"])
def test_every_key_has_a_caller(perfbench, section, cls):
    # a key that only its default uses is a constant, not an option
    bench, bench_tests = perfbench
    default = configparser.ConfigParser()
    default.read(Path(__file__).parents[1] / "configs" / "default.ini")
    # --seed sets both seeds; the benchmark's tests shrink [train] and the
    # sweeps vary one [train] key each; the benchmark writes no [sweep]
    set_keys = (set(default[section])
                | set(bench.DEFAULT_SPEC.get(section, {})))
    if section != "sweep":
        set_keys.add("seed")
    if section == "train":
        set_keys |= (set(bench_tests.TINY.train_overrides)
                     | set(_SWEPT.values()))
    fields = {f.name for f in dataclasses.fields(cls)}
    assert set_keys <= fields
    assert fields - set_keys == set(_SET_BY_NO_CALLER[section])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(sorted(_OUT_OF_RANGE)).flatmap(
    lambda k: st.tuples(st.just(k), _OUT_OF_RANGE[k] | _UNPARSABLE)))
def test_invalid_value_exits_1(fuzz_dir, case):
    (section, key), value = case
    path = _edited_spec(fuzz_dir, section, f"{key} = {value}")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["evaluate", "--config", str(path),
                         "--out", str(fuzz_dir / "out")])
    assert code == 1, (key, value, err.getvalue())
    assert f"[{section}]" in err.getvalue() and key in err.getvalue()


def test_unparsable_file_is_validation_error(tmp_path, capsys):
    path = tmp_path / "dup.ini"
    path.write_text(TINY_SPEC.replace("slots = 2\n", "slots = 2\nslots = 3\n"))
    code = cli.main(["train", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert "slots" in capsys.readouterr().err


def test_negative_seed_is_validation_error(spec_file, tmp_path, capsys):
    out = tmp_path / "neg"
    assert cli.main(["train", "--config", str(spec_file), "--out", str(out),
                     "--seed", "-1"]) == 1
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "audit"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_out_naming_a_file_is_validation_error(spec_file, trained_dir,
                                               tmp_path, capsys, command,
                                               under):
    # refused before any work: no training, episode or audit runs, and
    # the file is left as it was
    taken = tmp_path / "taken.txt"
    taken.write_text("keep\n")
    out = taken / "run" if under else taken
    model = (["--model", str(trained_dir / "actor.ckpt")]
             if command == "audit" else [])
    code = cli.main([command, "--config", str(spec_file), "--out", str(out),
                     *model])
    assert code == 1
    stdout, err = capsys.readouterr()
    assert f"validation error: bad --out: {taken} is not a directory" in err
    assert stdout == "" and taken.read_text() == "keep\n"


def test_seed_defaults_to_the_file_seeds(tmp_path, capsys):
    path = _edited_spec(tmp_path, "train", "seed = 3")
    args = ["evaluate", "--config", str(path), "--out", str(tmp_path / "e")]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert "seed=1)" in out.split("world = ")[1].splitlines()[0]
    assert "seed=3)" in out.split("train = ")[1].splitlines()[0]
    assert cli.main(args + ["--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "seed=7)" in out.split("world = ")[1].splitlines()[0]
    assert "seed=7)" in out.split("train = ")[1].splitlines()[0]


# ---------------------------------------------------------------------------
# train / evaluate


def test_train_outputs(trained_dir):
    manifest = (trained_dir / "manifest.txt").read_text().splitlines()
    names = ("actor.ckpt", "critic.ckpt", "report.csv", "world.ini")
    assert sorted(manifest) == sorted(f"{_sha(trained_dir / name)}  {name}"
                                      for name in names)
    assert "seed = 1" in (trained_dir / "world.ini").read_text()
    report = (trained_dir / "report.csv").read_text().splitlines()
    assert report[0].startswith("iter,objective")
    assert len(report) >= 2


def test_train_prints_the_selection(spec_file, trained_dir, tmp_path, capsys):
    # the selected baseline is the saved actor's base, and the selected
    # iteration is the report row whose objective is the final one
    assert cli.main(["train", "--config", str(spec_file),
                     "--out", str(tmp_path / "again")]) == 0
    stdout = capsys.readouterr().out
    base = BidMultiplierNet.load(trained_dir / "actor.ckpt").base
    assert f"\nselected baseline = {base}\n" in stdout
    it = int(re.search(r"^selected iteration = (\d+)$", stdout, re.M).group(1))
    final = re.search(r"^final objective F = (\S+)$", stdout, re.M).group(1)
    with open(trained_dir / "report.csv") as fh:
        row = next(r for r in csv.DictReader(fh) if int(r["iter"]) == it)
    assert f"{float(row['objective']):.6f}" == final


def test_train_reproducible_checksums(spec_file, trained_dir, tmp_path):
    out2 = tmp_path / "again"
    assert cli.main(["train", "--config", str(spec_file),
                     "--out", str(out2)]) == 0
    for name in ("actor.ckpt", "report.csv"):
        assert _sha(trained_dir / name) == _sha(out2 / name), name


def test_evaluate_gsp(spec_file, tmp_path, capsys):
    out = tmp_path / "eval"
    code = cli.main(["evaluate", "--config", str(spec_file),
                     "--out", str(out), "--mechanism", "gsp",
                     "--sigma", "0.8"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "objective F" in printed
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "rpm,ctr,acr,cvr,gpm,objective"
    assert len(lines) == 2
    # the printed metrics are the file's, rounded to 4 places
    shown = re.search(r"^metrics \(normalized\): (.*)$", printed, re.M)
    assert shown.group(1) == " ".join(
        f"{name}={float(v):.4f}"
        for name, v in zip(METRICS, lines[1].split(",")))


def test_evaluate_ugsp(spec_file, tmp_path):
    out = tmp_path / "eval"
    code = cli.main(["evaluate", "--config", str(spec_file),
                     "--out", str(out), "--mechanism", "ugsp",
                     "--lambdas", "1,0.5,0.2"])
    assert code == 0
    assert (out / "metrics.csv").exists()


def test_evaluate_trained_model(spec_file, trained_dir, tmp_path):
    out = tmp_path / "eval"
    code = cli.main(["evaluate", "--config", str(spec_file),
                     "--out", str(out),
                     "--model", str(trained_dir / "actor.ckpt")])
    assert code == 0
    assert (out / "metrics.csv").exists()


def test_evaluate_model_echo_is_reproducible(spec_file, trained_dir, tmp_path,
                                             capsys):
    # the echo names the model by path and file hash, not by object address
    model = trained_dir / "actor.ckpt"
    stdouts = []
    for _ in range(2):
        assert cli.main(["evaluate", "--config", str(spec_file),
                         "--out", str(tmp_path / "eval"),
                         "--model", str(model)]) == 0
        stdouts.append(capsys.readouterr().out)
    assert stdouts[0] == stdouts[1]
    assert f"model = {model}\n" in stdouts[0]
    assert f"model_sha256 = {_sha(model)}\n" in stdouts[0]
    base = BidMultiplierNet.load(model).base
    assert f"model_base = {base}\n" in stdouts[0]
    assert " at 0x" not in stdouts[0]


@pytest.mark.parametrize("flags, named", [
    (["--sigma", "nan"], "--sigma"),
    (["--sigma", "-1"], "--sigma"),
    (["--sigma", "inf"], "--sigma"),
    (["--mechanism", "ugsp", "--lambdas", "1,2"], "--lambdas"),
    (["--mechanism", "ugsp", "--lambdas", "1,x,0"], "--lambdas"),
    (["--mechanism", "ugsp", "--lambdas", "1,nan,0"], "--lambdas"),
    (["--mechanism", "ugsp", "--lambdas", "1,0,inf"], "--lambdas"),
    (["--mechanism", "ugsp", "--lambdas", "1,-0.5,0"], "--lambdas"),
    # flags the chosen mechanism leaves unused are checked too
    (["--mechanism", "ugsp", "--sigma", "nan"], "--sigma"),
    (["--sigma", "1", "--lambdas", "1,x"], "--lambdas"),
    (["--model", "ACTOR", "--sigma", "nan"], "--sigma"),
], ids=["sigma-nan", "sigma-negative", "sigma-inf", "lambdas-two",
        "lambdas-unparsable", "lambdas-nan", "lambdas-inf", "lambdas-negative",
        "unused-sigma-nan", "unused-lambdas-unparsable", "model-sigma-nan"])
def test_bad_mechanism_flag_is_validation_error(spec_file, trained_dir,
                                                tmp_path, capsys, flags,
                                                named):
    out = tmp_path / "eval"
    actor = str(trained_dir / "actor.ckpt")
    code = cli.main(["evaluate", "--config", str(spec_file), "--out", str(out),
                     *[actor if f == "ACTOR" else f for f in flags]])
    assert code == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mechanism", ["ugsp-without-bid-weight",
                                       "degenerate-model"])
def test_evaluate_of_an_unpriceable_mechanism_is_validation_error(
        spec_file, tmp_path, capsys, mechanism):
    # winners whose multipliers are all <= EPS_DIV cannot be priced; the
    # error names the flag that chose the mechanism
    if mechanism == "degenerate-model":
        model = _degenerate_actor(tmp_path / "degenerate.ckpt")
        flags, named = ["--model", str(model)], f"bad --model: {model}: "
    else:
        flags = ["--mechanism", "ugsp", "--lambdas", "0,1,0"]
        named = "bad --lambdas: "
    out = tmp_path / "eval"
    code = cli.main(["evaluate", "--config", str(spec_file), "--out", str(out),
                     *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert f"validation error: {named}degenerate multiplier" in err
    assert not out.exists()


def _fitted_actor(feature_dim, hidden=(4,)):
    rng = np.random.default_rng(0)
    actor = BidMultiplierNet(feature_dim, hidden=hidden, rng=rng)
    return actor.fit_normalizer(rng.uniform(0.5, 5.0, 16),
                                rng.uniform(0.0, 1.0, (16, feature_dim)))


def _degenerate_actor(path):
    """Save an actor whose every multiplier is exp(-60), about 9e-27, at or
    below EPS_DIV, at path."""
    actor = _fitted_actor(FEATURE_DIM)
    actor.net.weights[-1][:] = 0.0
    actor.net.biases[-1][:] = -60.0
    actor.save(path)
    return path


def _bad_model(kind, trained_dir, tmp_path):
    """A --model path that is not an actor checkpoint for this market."""
    path = tmp_path / f"{kind}.ckpt"
    if kind == "foreign":
        path.write_text("[world]\nseed = 1\n")
    elif kind == "truncated":
        path.write_bytes((trained_dir / "actor.ckpt").read_bytes()[:-5])
    elif kind == "critic":
        return trained_dir / "critic.ckpt"
    elif kind == "directory":
        path.mkdir()
    elif kind == "four-features":
        _fitted_actor(4).save(path)
    elif kind in ("tanh-output", "identity-hidden", "version-1",
                  "unknown-base", "nan-sigma", "negative-lambda"):
        # a well-formed actor file with one field rewritten
        actor = _fitted_actor(FEATURE_DIM)
        if kind == "negative-lambda":
            actor.base = UgspMechanism((1.0, 0.5, 2.0))
        actor.save(path)
        data = bytearray(path.read_bytes())
        version = len(CHECKPOINT_MAGIC)
        acts = version + 12 + 4 * len(actor.net.sizes)
        base = acts + 8
        if kind == "version-1":
            # the version 1 layout: no base section
            data[version:version + 4] = (1).to_bytes(4, "little")
            del data[base:base + 12]
        else:
            at, value = {
                "tanh-output": (acts + 4, (0).to_bytes(4, "little")),
                "identity-hidden": (acts, (2).to_bytes(4, "little")),
                "unknown-base": (base, (7).to_bytes(4, "little")),
                "nan-sigma": (base + 4, np.float64(np.nan).tobytes()),
                "negative-lambda": (base + 12, np.float64(-1.0).tobytes()),
            }[kind]
            data[at:at + len(value)] = value
        path.write_bytes(bytes(data))
    elif kind == "two-outputs":
        actor = _fitted_actor(FEATURE_DIM)
        actor.net = Mlp([actor.input_dim, 4, 2])
        actor.save(path)
    elif kind == "zero-width":
        _fitted_actor(FEATURE_DIM, hidden=(0,)).save(path)
    return path


@pytest.mark.parametrize("command", ["evaluate", "audit"])
@pytest.mark.parametrize("kind", ["missing", "foreign", "truncated", "critic",
                                  "directory", "four-features",
                                  "tanh-output", "two-outputs",
                                  "identity-hidden", "zero-width",
                                  "version-1", "unknown-base", "nan-sigma",
                                  "negative-lambda"])
def test_bad_model_is_validation_error(spec_file, trained_dir, tmp_path,
                                       capsys, command, kind):
    model = _bad_model(kind, trained_dir, tmp_path)
    code = cli.main([command, "--config", str(spec_file),
                     "--out", str(tmp_path / "out"), "--model", str(model)])
    assert code == 1
    err = capsys.readouterr().err
    assert "validation error: bad --model" in err and str(model) in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# sweeps and audit


def test_pareto_sweep(spec_file, tmp_path, capsys):
    out = tmp_path / "pareto"
    code = cli.main(["pareto", "--config", str(spec_file), "--out", str(out)])
    assert code == 0
    assert "lambda points" in capsys.readouterr().out
    lines = (out / "pareto.csv").read_text().splitlines()
    assert lines[0] == "mechanism,param,lambda,ctr,rpm"
    mechs = {ln.split(",")[0] for ln in lines[1:]}
    assert mechs == {"deepgsp", "gsp", "ugsp"}


def test_sweep_pool_starts_no_idle_process(spec_file, tmp_path, monkeypatch):
    # a fork-context pool starts all max_workers processes at once; this
    # stand-in records the count and runs the points in this process
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    code = cli.main(["pareto", "--config", str(spec_file), "--out",
                     str(tmp_path / "pareto"), "--workers", "8"])
    assert code == 0
    assert started == [2]               # the tiny spec's two lambda points


def test_pareto_workers_write_the_same_bytes(spec_file, tmp_path):
    # --workers 2 runs the points in forked processes
    written = {}
    for workers in ("1", "2"):
        out = tmp_path / f"workers-{workers}"
        assert cli.main(["pareto", "--config", str(spec_file), "--out",
                         str(out), "--workers", workers]) == 0
        paths = [out / "pareto.csv", *sorted((out / "models").glob("*.ckpt"))]
        written[workers] = {p.relative_to(out).as_posix(): p.read_bytes()
                            for p in paths}
    assert len(written["1"]) == 3       # the csv and one actor per point
    assert written["2"] == written["1"]


@pytest.mark.parametrize("command", ["pareto", "transition"])
def test_sweep_retrains_on_every_run(spec_file, tmp_path, monkeypatch,
                                     command):
    calls = []

    def counting_train(world, config):
        calls.append(config)
        return cli_train(world, config)

    cli_train = cli.train
    monkeypatch.setattr(cli, "train", counting_train)
    args = [command, "--config", str(spec_file), "--out", str(tmp_path)]
    assert cli.main(args) == 0
    first = len(calls)
    assert first == 2
    varied = {f.name for f in dataclasses.fields(TrainConfig)
              if getattr(calls[0], f.name) != getattr(calls[1], f.name)}
    assert varied == {_SWEPT[command]}
    assert cli.main(args) == 0
    assert len(calls) == 2 * first
    assert len(list((tmp_path / "models").glob("actor_*.ckpt"))) == first


@pytest.mark.parametrize("argv,message", [
    # --workers exists only where a command reads it, and on train, which
    # the benchmark calls with --workers 1
    (["evaluate", "--workers", "2"], "unrecognized arguments: --workers 2"),
    (["audit", "--model", "actor.ckpt", "--workers", "2"],
     "unrecognized arguments: --workers 2"),
    (["gen-world", "--seed", "1"], "invalid choice: 'gen-world'"),
], ids=["evaluate-workers", "audit-workers", "gen-world"])
def test_unknown_argument_is_usage_error(spec_file, tmp_path, capsys, argv,
                                         message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", str(spec_file), "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_validation_error(spec_file, tmp_path, capsys,
                                               workers):
    out = tmp_path / "pareto"
    code = cli.main(["pareto", "--config", str(spec_file), "--out", str(out),
                     "--workers", workers])
    assert code == 1
    assert "bad --workers" in capsys.readouterr().err
    assert not out.exists()


def test_transition_sweep(spec_file, tmp_path, capsys):
    out = tmp_path / "transition"
    code = cli.main(["transition", "--config", str(spec_file),
                     "--out", str(out)])
    assert code == 0
    lines = (out / "transition.csv").read_text().splitlines()
    assert lines[0] == "eps,adv_utility_pct,platform_objective_pct"
    assert len(lines) == 3
    assert "% of benchmark" in capsys.readouterr().out


def test_audit_trained_model(spec_file, trained_dir, tmp_path, capsys):
    out = tmp_path / "audit"
    model = trained_dir / "actor.ckpt"
    code = cli.main(["audit", "--config", str(spec_file), "--out", str(out),
                     "--model", str(model)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "T_m" in stdout
    assert f"model_sha256 = {_sha(model)}\n" in stdout
    assert f"model_base = {BidMultiplierNet.load(model).base}\n" in stdout
    assert "\ngates  pass\n" in stdout
    lines = (out / "audit.csv").read_text().splitlines()
    assert lines[0] == "weights,t_m,per_mean,per_p05,per_p95,isic,gates"
    assert len(lines) == 2 and lines[1].endswith(",pass")


def test_audit_exits_4_on_a_failed_gate(spec_file, tmp_path, capsys):
    # pi falls steeply with the bid, so the rank score b * pi does not rise
    # with it
    actor = _fitted_actor(FEATURE_DIM)
    actor.net.weights[0][:, 0] = -8.0
    actor.net.weights[-1][:] = 3.0
    model = tmp_path / "falling.ckpt"
    actor.save(model)
    out = tmp_path / "audit"
    code = cli.main(["audit", "--config", str(spec_file), "--out", str(out),
                     "--model", str(model)])
    assert code == 4
    gates = re.search(r"^gates  (.*)$", capsys.readouterr().out, re.M)
    assert gates and "T_m" in gates.group(1).split()
    row = (out / "audit.csv").read_text().splitlines()[1]
    assert row.endswith(f",{gates.group(1)}")
    assert (out / "manifest.txt").is_file()


def test_audit_of_a_degenerate_actor_fails_per_and_isic(spec_file, tmp_path,
                                                        capsys):
    # PER has no auditable winner and i-SIC meets a degenerate one
    model = _degenerate_actor(tmp_path / "degenerate.ckpt")
    out = tmp_path / "audit"
    code = cli.main(["audit", "--config", str(spec_file), "--out", str(out),
                     "--model", str(model)])
    assert code == 4
    gates = re.search(r"^gates  (.*)$", capsys.readouterr().out, re.M)
    assert gates and gates.group(1).split() == ["PER", "i-SIC"]
    with open(out / "audit.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["per_mean"] == row["isic"] == "nan"
    assert row["gates"] == gates.group(1)


# ---------------------------------------------------------------------------
# README


REPO = Path(__file__).parents[1]


def test_readme_commands_parse():
    # every gsplab line of the README's sh blocks parses (nothing runs),
    # and every script it runs exists
    blocks = re.findall(r"^```sh\n(.*?)^```", (REPO / "README.md").read_text(),
                        re.M | re.S)
    lines = [shlex.split(line, comments=True)
             for block in blocks for line in block.splitlines()]
    gsplab = [argv[1:] for argv in lines if argv[:1] == ["gsplab"]]
    scripts = [argv[1] for argv in lines if argv[:1] == ["python"]]
    assert gsplab and scripts
    parser = cli.build_parser()
    for argv in gsplab:
        assert callable(parser.parse_args(argv).func), argv
    for script in scripts:
        assert script.startswith("scripts/") and (REPO / script).is_file()
