import argparse
import inspect
import json
from dataclasses import fields

import pytest

from vesseltopo.cli import build_parser, main
from vesseltopo.flowgen import TrainConfig, VelocityModel, refine_eval, save_checkpoint
from vesseltopo.maskio import save_mask
from vesseltopo.synth import VesselParams, emit_samples, generate_vessel, perturb_disconnect
from vesseltopo.taskgen import DatasetConfig


@pytest.fixture
def ring_file(tmp_path, ring_mask):
    p = tmp_path / "ring.pgm"
    save_mask(ring_mask, p)
    return p


def test_topology_subcommand(capsys, ring_file):
    assert main(["topology", str(ring_file)]) == 0
    assert capsys.readouterr().out.strip() == "beta0=1 beta1=1 euler=0"


def test_topology_missing_file_exits_2(capsys, tmp_path):
    assert main(["topology", str(tmp_path / "none.pgm")]) == 2
    assert capsys.readouterr().err.strip()


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_no_subcommand_exits_1(capsys):
    assert main([]) == 1


def test_unknown_flag_exits_1(capsys, ring_file):
    assert main(["topology", str(ring_file), "--bogus"]) == 1


def test_metrics_pred_equals_gt(capsys, tmp_path):
    pred = tmp_path / "pred"
    gt = tmp_path / "gt"
    pred.mkdir()
    gt.mkdir()
    _, mask, _ = generate_vessel(VesselParams(width=48, height=48,
                                              radius_root=1.8, seed=3))
    save_mask(mask, pred / "s.pgm")
    save_mask(mask, gt / "s.pgm")
    assert main(["metrics", "--pred", str(pred), "--gt", str(gt)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sample,dice,cldice,beta0_num,beta0_mat"
    assert out[1] == "s.pgm,100.00,100.00,0,0"
    assert out[2] == "mean,100.00,100.00,0.00,0.00"


def test_metrics_detects_disconnection(capsys, tmp_path):
    pred = tmp_path / "pred"
    gt = tmp_path / "gt"
    pred.mkdir()
    gt.mkdir()
    _, mask, _ = generate_vessel(VesselParams(width=64, height=64,
                                              radius_root=2.0, seed=8))
    bad, _ = perturb_disconnect(mask, 2, seed=1)
    save_mask(bad, pred / "s.pgm")
    save_mask(mask, gt / "s.pgm")
    assert main(["metrics", "--pred", str(pred), "--gt", str(gt)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[3] == "2"  # beta0_num


def test_synth_outputs_are_reproducible(capsys, tmp_path):
    args = ["synth", "--count", "2", "--seed", "4", "--width", "48",
            "--height", "48", "--radius", "1.8", "--depth", "3"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "manifest.jsonl").read_bytes()
    b = (tmp_path / "b" / "manifest.jsonl").read_bytes()
    assert a == b
    rec = json.loads(a.splitlines()[0])
    assert (tmp_path / "a" / rec["image"]).exists()
    assert (tmp_path / "a" / rec["bad"][0]["path"]).exists()


def test_taskgen_with_verify(capsys, tmp_path):
    assert main(["taskgen", "--out", str(tmp_path / "ds"), "--per-kind", "2",
                 "--seed", "6", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "0 mismatches" in out


def test_train_and_refine_pipeline(capsys, tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--count", "2", "--seed", "2",
                 "--width", "32", "--height", "32", "--radius", "1.6",
                 "--depth", "3"]) == 0
    assert main(["taskgen", "--out", str(tmp_path / "ds"), "--per-kind", "1",
                 "--width", "32", "--height", "32", "--seed", "1"]) == 0
    assert main(["metrics", "--pred", str(data), "--gt", str(data),
                 "--out", str(tmp_path / "metrics.csv")]) == 0
    ck = tmp_path / "ck.json"
    assert main(["train", "--data", str(data), "--checkpoint", str(ck),
                 "--steps", "30", "--batch", "2", "--hidden", "6",
                 "--seed", "1"]) == 0
    assert ck.exists()
    csv_out = tmp_path / "refine.csv"
    assert main(["refine", "--checkpoint", str(ck), "--data", str(data),
                 "--steps", "2", "--out", str(csv_out)]) == 0
    assert csv_out.read_text().startswith("sample,dice,cldice,beta0_num,beta0_mat")
    out = capsys.readouterr().out
    assert "refined:" in out
    # every output goes through a temporary file that must be renamed away
    assert not list(tmp_path.rglob("*.tmp*"))


@pytest.fixture
def train_data(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--count", "1", "--seed", "2",
                 "--width", "32", "--height", "32", "--radius", "1.6",
                 "--depth", "3"]) == 0
    return data


def test_train_writes_checkpoint_and_default_loss_curve(capsys, tmp_path, train_data):
    ck = tmp_path / "model.json"
    assert main(["train", "--data", str(train_data), "--checkpoint", str(ck),
                 "--steps", "1", "--batch", "1", "--hidden", "4"]) == 0
    assert ck.exists()
    assert (tmp_path / "model_loss.csv").read_text().startswith("step,loss\n")


def test_train_checkpoint_holds_no_paths(capsys, tmp_path, train_data):
    ck = (tmp_path / "out" / "model.json").absolute()
    ck.parent.mkdir()
    assert main(["train", "--data", str(train_data), "--checkpoint", str(ck),
                 "--steps", "1", "--batch", "1", "--hidden", "4"]) == 0
    text = ck.read_text()
    for part in ck.parts[1:]:
        assert part not in text, part


def test_train_config_file_with_flag_override(capsys, tmp_path):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--count", "1", "--seed", "2",
          "--width", "32", "--height", "32", "--radius", "1.6", "--depth", "3"])
    cfg = tmp_path / "cfg.json"
    # an int is accepted for the float field lam
    cfg.write_text(json.dumps({"steps": 5, "hidden": 4, "batch_size": 1, "lam": 1}))
    ck = tmp_path / "ck.json"
    # flag wins over the config file for steps
    assert main(["train", "--data", str(data), "--checkpoint", str(ck),
                 "--config", str(cfg), "--steps", "3", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "trained 3 steps" in out
    blob = json.loads(ck.read_text())
    assert blob["config"]["steps"] == 3
    assert blob["config"]["hidden"] == 4
    assert blob["config"]["lam"] == 1


@pytest.mark.parametrize("command, config, key", [
    ("train", {"steps": "ten"}, "steps"),
    ("train", {"steps": True}, "steps"),
    ("taskgen", {"width": "64"}, "width"),
    ("taskgen", {"per_kind": {"refinement": "3"}}, "per_kind.refinement"),
])
def test_config_value_of_wrong_type_exits_2(capsys, tmp_path, train_data,
                                            command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = {"train": ["train", "--data", str(train_data),
                      "--checkpoint", str(tmp_path / "ck.json")],
            "taskgen": ["taskgen", "--out", str(tmp_path / "ds")]}[command]
    assert main(argv + ["--config", str(cfg)]) == 2
    assert f"config value {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["7", '{"a": 1}'])
def test_malformed_manifest_record_exits_2(capsys, tmp_path, line):
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.jsonl").write_text(line + "\n")
    assert main(["train", "--data", str(data), "--checkpoint",
                 str(tmp_path / "ck.json"), "--steps", "1"]) == 2
    assert "lacks image, gt or bad paths" in capsys.readouterr().err


def _with_config(blob, **config):
    return {**blob, "config": {**blob["config"], **config}}


@pytest.mark.parametrize("edit", [
    lambda valid: {"version": 1},
    lambda valid: {"version": 1, "config": {"steps": 1}, "widths": [6, 4, 4, 1]},
    lambda valid: [1, 2],
    lambda valid: _with_config(valid, hidden="4"),
    lambda valid: _with_config(valid, hidden=True),
    lambda valid: _with_config(valid, steps=0),
    lambda valid: {**valid, "params": [{"weight": [[1]], "bias": [0]}]},
    lambda valid: {**valid, "widths": [6, 8, 8, 1]},  # hidden-16 parameters
    lambda valid: {**valid, "params": valid["params"][:-1] + [
        {"weight": valid["params"][-1]["weight"], "bias": [float("nan")]}]},
], ids=["no-config", "no-params", "list", "hidden-str", "hidden-bool", "steps-0",
        "weight-1x1", "widths-8", "nan-bias"])
def test_refine_on_malformed_checkpoint_exits_2(capsys, tmp_path, train_data, edit):
    ck = tmp_path / "ck.json"
    save_checkpoint(VelocityModel(hidden=16), TrainConfig(steps=1), ck)
    ck.write_text(json.dumps(edit(json.loads(ck.read_text()))))
    assert main(["refine", "--checkpoint", str(ck), "--data", str(train_data)]) == 2
    assert f"checkpoint {ck}" in capsys.readouterr().err


def test_no_adaptive_flag_sets_lambda_off(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--count", "1", "--seed", "2",
          "--width", "32", "--height", "32", "--radius", "1.6", "--depth", "3"])
    ck_a = tmp_path / "a.json"
    ck_b = tmp_path / "b.json"
    main(["train", "--data", str(data), "--checkpoint", str(ck_a),
          "--steps", "5", "--hidden", "4", "--batch", "1", "--seed", "3",
          "--no-adaptive"])
    main(["train", "--data", str(data), "--checkpoint", str(ck_b),
          "--steps", "5", "--hidden", "4", "--batch", "1", "--seed", "3",
          "--lambda", "0"])
    # --no-adaptive is --lambda 0: the same checkpoint and loss curve bytes
    assert ck_a.read_bytes() == ck_b.read_bytes()
    assert (tmp_path / "a_loss.csv").read_bytes() == (tmp_path / "b_loss.csv").read_bytes()


def test_lambda_with_no_adaptive_exits_1(capsys, tmp_path, train_data):
    assert main(["train", "--data", str(train_data), "--checkpoint",
                 str(tmp_path / "ck.json"), "--steps", "1",
                 "--lambda", "3", "--no-adaptive"]) == 1
    assert "not allowed with" in capsys.readouterr().err


def test_nonfinite_loss_in_train_exits_3(capsys, tmp_path, train_data):
    assert main(["train", "--data", str(train_data), "--checkpoint",
                 str(tmp_path / "ck.json"), "--lr", "1e150", "--steps", "60",
                 "--batch", "1", "--hidden", "4"]) == 3
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, field", [
    ("synth", ["--radius", "nan"], "radius_root"),
    ("synth", ["--radius", "inf"], "radius_root"),
    ("synth", ["--radius-min", "nan"], "radius_min"),
    ("synth", ["--count", "-1"], "count"),
    ("synth", ["--bad", "-1"], "n_bad"),
    ("synth", ["--max-k", "0"], "max_k"),
    ("synth", ["--noise", "nan"], "background_noise_sigma"),
    ("synth", ["--noise", "inf"], "background_noise_sigma"),
    ("train", ["--lambda", "nan"], "lam"),
    ("train", ["--lambda", "inf"], "lam"),
    ("train", ['{"lam": NaN}'], "lam"),
    ("train", ["--lr", "-1"], "learning_rate"),
    ("train", ["--lr", "0"], "learning_rate"),
    ("train", ["--lr", "nan"], "learning_rate"),
], ids=["radius-nan", "radius-inf", "radius-min-nan", "count-neg", "bad-neg",
        "max-k-0", "noise-nan", "noise-inf", "lambda-nan", "lambda-inf",
        "config-lam-nan", "lr-neg", "lr-0", "lr-nan"])
def test_nonfinite_or_negative_setting_exits_2(capsys, tmp_path, train_data,
                                               command, flags, field):
    out = tmp_path / "out"
    if flags[0].startswith("{"):  # a config file holding the bad value
        (tmp_path / "cfg.json").write_text(flags[0])
        flags = ["--config", str(tmp_path / "cfg.json")]
    base = {"synth": ["--out", str(out), "--count", "1", "--width", "32",
                      "--height", "32", "--radius", "1.6"],
            "train": ["--data", str(train_data), "--checkpoint",
                      str(out / "ck.json"), "--steps", "1"]}[command]
    assert main([command] + base + flags) == 2  # the last flag given wins
    assert field in capsys.readouterr().err
    assert not out.exists()


# options that set neither a config field nor a keyword of the library call
_NON_FIELD_OPTIONS = {"out", "count", "config", "verify", "data", "checkpoint",
                      "limit", "loss_curve"}


@pytest.mark.parametrize("command, config_class, call", [
    ("synth", VesselParams, emit_samples), ("taskgen", DatasetConfig, None),
    ("train", TrainConfig, None), ("refine", None, refine_eval),
], ids=["synth-VesselParams", "taskgen-DatasetConfig", "train-TrainConfig", "refine"])
def test_config_flags_default_from_their_dataclass(command, config_class, call):
    """A flag that sets a config field or a keyword of the command's library
    call is named after it and has no default of its own, so the dataclass or
    the library call stays the one home of every default."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    names = {f.name for f in fields(config_class)} if config_class else set()
    if call is not None:
        names |= {name for name, p in inspect.signature(call).parameters.items()
                  if p.default is not p.empty}
    for action in sub.choices[command]._actions:
        if isinstance(action, argparse._HelpAction) or action.dest in _NON_FIELD_OPTIONS:
            continue
        assert action.dest in names, action.option_strings
        assert action.default is None, action.option_strings


@pytest.mark.parametrize("command", ["train", "refine"])
@pytest.mark.parametrize("limit", ["0", "-5"])
def test_limit_below_one_exits_2(capsys, tmp_path, train_data, command, limit):
    ck = tmp_path / "ck.json"
    if command == "refine":
        save_checkpoint(VelocityModel(hidden=4), TrainConfig(steps=1), ck)
    assert main([command, "--data", str(train_data), "--checkpoint", str(ck),
                 "--steps", "1", "--limit", limit]) == 2
    captured = capsys.readouterr()
    assert f"--limit must be at least 1, got {limit}" in captured.err
    assert "trained" not in captured.out and "refined" not in captured.out
    assert ck.exists() == (command == "refine")
