import argparse
import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from vesseltopo import cli, flowgen, synth, taskgen
from vesseltopo.cli import build_parser, main
from vesseltopo.flowgen import (TrainConfig, TrainResult, VelocityModel, refine_eval,
                                save_checkpoint)
from vesseltopo.maskio import save_mask
from vesseltopo.synth import VesselParams, emit_samples, generate_vessel, perturb_disconnect
from vesseltopo.taskgen import DatasetConfig, build_dataset


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


_MALFORMED_PGMS = {
    "ascii_magic": (b"P2\n2 2\n255\n0 255 255 0\n", "unsupported magic b'P2'"),
    "maxval_0": (b"P5\n2 2\n0\n" + bytes(4), "maxval 0 out of range"),
    "maxval_70000": (b"P5\n2 2\n70000\n" + bytes(8), "maxval 70000 out of range"),
    "negative_width": (b"P5\n-1 2\n255\n" + bytes(4), "malformed header token b'-1'"),
    "short_payload": (b"P5\n2 2\n255\n" + bytes(3), "truncated PGM payload"),
    "huge_header": (b"P5\n100000 100000\n255\n" + bytes(10), "truncated PGM payload"),
    "above_maxval_8bit": (b"P5\n2 2\n200\n" + bytes([0, 201, 0, 0]),
                          "image intensities must lie in [0, 1]"),
    "above_maxval_16bit": (b"P5\n2 2\n1000\n" + bytes(6) + (1001).to_bytes(2, "big"),
                           "image intensities must lie in [0, 1]"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_PGMS))
def test_malformed_pgm_exits_2_on_every_reader(capsys, tmp_path, name):
    payload, message = _MALFORMED_PGMS[name]
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(payload)
    assert main(["topology", str(bad)]) == 2
    assert message in capsys.readouterr().err
    for bad_side in ("pred", "gt"):
        root = tmp_path / bad_side
        for side in ("pred", "gt"):
            (root / side).mkdir(parents=True)
            if side == bad_side:
                (root / side / "s.pgm").write_bytes(payload)
            else:
                save_mask(np.eye(2, dtype=bool), root / side / "s.pgm")
        out = root / "m.csv"
        assert main(["metrics", "--pred", str(root / "pred"), "--gt", str(root / "gt"),
                     "--out", str(out)]) == 2, bad_side
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in root.iterdir()) == ["gt", "pred"]


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
    assert out[2] == "mean,100.00,100.00,0,0"


@pytest.mark.parametrize("cuts, mean", [((0, 1), "0.50"), ((0, 1, 2), "1")])
def test_metrics_mean_row_prints_counts_as_any_row_does(capsys, tmp_path, cuts, mean):
    _, mask, _ = generate_vessel(VesselParams(width=64, height=64,
                                              radius_root=2.0, seed=8))
    for sub in ("pred", "gt"):
        (tmp_path / sub).mkdir()
    for k in cuts:  # k verified cuts: both beta0 errors are k
        save_mask(perturb_disconnect(mask, k, seed=1)[0], tmp_path / "pred" / f"s{k}.pgm")
        save_mask(mask, tmp_path / "gt" / f"s{k}.pgm")
    assert main(["metrics", "--pred", str(tmp_path / "pred"),
                 "--gt", str(tmp_path / "gt")]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == [f"s{k}.pgm" for k in cuts] + ["mean"]
    want = [str(k) for k in cuts] + [mean]
    assert [row[3] for row in rows] == [row[4] for row in rows] == want


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
    # a falsy per_kind is no dict either, not a request for the default counts
    ("taskgen", {"per_kind": []}, "per_kind"),
    ("taskgen", {"per_kind": None}, "per_kind"),
    ("taskgen", {"per_kind": 0}, "per_kind"),
    ("taskgen", {"per_kind": False}, "per_kind"),
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


@pytest.mark.parametrize("command, config, key", [
    ("train", {"lamda": 3}, "lamda"),
    ("taskgen", {"widht": 64}, "widht"),
])
def test_config_key_naming_no_field_exits_2(capsys, tmp_path, train_data,
                                           command, config, key):
    """A misspelt config-file key is an error, not a silently kept default."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    ck, ds = tmp_path / "ck.json", tmp_path / "ds"
    argv = {"train": ["train", "--data", str(train_data), "--checkpoint", str(ck),
                      "--steps", "1"],
            "taskgen": ["taskgen", "--out", str(ds), "--per-kind", "0"]}[command]
    assert main(argv + ["--config", str(cfg)]) == 2
    assert f"has no field {key}" in capsys.readouterr().err
    assert not ck.exists() and not ds.exists()


@pytest.mark.parametrize("per_kind", [{"refinement": 2}, {}])
def test_taskgen_config_per_kind_builds_what_the_library_builds(capsys, tmp_path,
                                                                 per_kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"per_kind": per_kind, "width": 32, "height": 32}))
    assert main(["taskgen", "--out", str(tmp_path / "cli"), "--config", str(cfg)]) == 0
    manifest = (tmp_path / "cli" / "manifest.jsonl").read_bytes()
    assert len(manifest.splitlines()) == sum(per_kind.values())
    library = build_dataset(DatasetConfig(out_dir=str(tmp_path / "lib"),
                                          per_kind=per_kind, width=32, height=32))
    assert open(library, "rb").read() == manifest


def test_unset_options_resolve_to_the_dataclass_defaults(monkeypatch, tmp_path,
                                                         train_data):
    """With no flag and no config file, train and taskgen run the dataclass
    defaults; the library calls are replaced, so nothing trains or builds."""
    seen = []

    def fake_train(config, triples):
        seen.append(config)
        return TrainResult(VelocityModel(hidden=1, seed=0), [0.0], config)

    def fake_build_dataset(config):
        seen.append(config)
        return "manifest.jsonl"

    monkeypatch.setattr(flowgen, "train", fake_train)
    monkeypatch.setattr(taskgen, "build_dataset", fake_build_dataset)
    assert main(["train", "--data", str(train_data),
                 "--checkpoint", str(tmp_path / "ck.json")]) == 0
    assert main(["taskgen", "--out", str(tmp_path / "ds")]) == 0
    assert seen == [TrainConfig(), DatasetConfig(out_dir=str(tmp_path / "ds"))]


@pytest.mark.parametrize("checkpoint", ["nodir/ck.json", "adir"],
                         ids=["missing-dir", "existing-dir"])
def test_failed_write_names_the_path_and_leaves_no_tmp(capsys, monkeypatch, tmp_path,
                                                       train_data, checkpoint):
    (tmp_path / "adir").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--data", str(train_data), "--checkpoint", checkpoint,
                 "--steps", "1", "--batch", "1", "--hidden", "4"]) == 2
    err = capsys.readouterr().err
    assert f"'{checkpoint}'" in err and ".tmp" not in err
    assert not list(tmp_path.rglob("*.tmp*"))


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
    # keys that older checkpoints stored
    lambda valid: _with_config(valid, weighting=False),
    lambda valid: _with_config(valid, checkpoint_path="/old/ck.json"),
    lambda valid: _with_config(valid, loss_curve_path=None),
], ids=["no-config", "no-params", "list", "hidden-str", "hidden-bool", "steps-0",
        "weight-1x1", "widths-8", "nan-bias", "legacy-weighting",
        "legacy-checkpoint-path", "legacy-loss-curve-path"])
def test_refine_on_malformed_checkpoint_exits_2(capsys, tmp_path, train_data, edit):
    ck = tmp_path / "ck.json"
    save_checkpoint(VelocityModel(hidden=16, seed=0), TrainConfig(steps=1), ck)
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


def test_parser_is_built_once_and_keeps_no_flag_between_calls(capsys, monkeypatch,
                                                              tmp_path, train_data):
    """main shares one parser across calls; a flag given to one call must not
    reach the next, and a usage error stays one on every call."""
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    seen = []

    def fake_train(config, triples):
        seen.append(config.lam)
        return TrainResult(VelocityModel(hidden=1, seed=0), [0.0], config)

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(flowgen, "train", fake_train)
    cli._parser.cache_clear()
    train = ["train", "--data", str(train_data), "--checkpoint", str(tmp_path / "ck.json")]
    assert main(train + ["--lambda", "3"]) == 0
    assert main(train) == 0
    assert main(train + ["--no-adaptive"]) == 0
    assert main(train) == 0
    assert seen == [3.0, TrainConfig.lam, 0.0, TrainConfig.lam]
    for _ in range(2):
        assert main(train + ["--lambda", "3", "--no-adaptive"]) == 1
        assert "not allowed with" in capsys.readouterr().err
    assert len(seen) == 4
    assert len(built) == 1


def test_nonfinite_loss_in_train_exits_3(capsys, tmp_path, train_data):
    # the loss overflows to inf and then NaN, which numpy warns about
    with pytest.warns(RuntimeWarning):
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
    # checked by DatasetConfig itself, even when no scene is built
    ("taskgen", ["--noise", "-1"], "noise_sigma"),
    ("taskgen", ["--noise", "nan"], "noise_sigma"),
], ids=["radius-nan", "radius-inf", "radius-min-nan", "count-neg", "bad-neg",
        "max-k-0", "noise-nan", "noise-inf", "lambda-nan", "lambda-inf",
        "config-lam-nan", "lr-neg", "lr-0", "lr-nan", "taskgen-noise-neg",
        "taskgen-noise-nan"])
def test_nonfinite_or_negative_setting_exits_2(capsys, tmp_path, train_data,
                                               command, flags, field):
    out = tmp_path / "out"
    if flags[0].startswith("{"):  # a config file holding the bad value
        (tmp_path / "cfg.json").write_text(flags[0])
        flags = ["--config", str(tmp_path / "cfg.json")]
    base = {"synth": ["--out", str(out), "--count", "1", "--width", "32",
                      "--height", "32", "--radius", "1.6"],
            "train": ["--data", str(train_data), "--checkpoint",
                      str(out / "ck.json"), "--steps", "1"],
            "taskgen": ["--out", str(out), "--per-kind", "0"]}[command]
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
        save_checkpoint(VelocityModel(hidden=4, seed=0), TrainConfig(steps=1), ck)
    assert main([command, "--data", str(train_data), "--checkpoint", str(ck),
                 "--steps", "1", "--limit", limit]) == 2
    captured = capsys.readouterr()
    assert f"--limit must be at least 1, got {limit}" in captured.err
    assert "trained" not in captured.out and "refined" not in captured.out
    assert ck.exists() == (command == "refine")


# What `main(argv)` leaves imported in a fresh interpreter: its exit code and
# the vesseltopo modules, as the last line of stdout.
_LOADED_BY = """import json, sys
from vesseltopo.cli import main
rc = main(sys.argv[1:])
print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith("vesseltopo"))]))
"""
_SCORING = ["vesseltopo", "vesseltopo.cli", "vesseltopo.errors", "vesseltopo.maskio",
            "vesseltopo.metrics", "vesseltopo.topology"]
_STAGES_OF = {"topology": [], "metrics": [], "train": ["flowgen"], "refine": ["flowgen"],
              "synth": ["synth"], "taskgen": ["synth", "taskgen"]}


@pytest.mark.parametrize("command", sorted(_STAGES_OF))
def test_each_subcommand_loads_only_its_own_stage(tmp_path, ring_file, train_data, command):
    ck = tmp_path / "ck.json"
    save_checkpoint(VelocityModel(hidden=4, seed=0), TrainConfig(steps=1, hidden=4), ck)
    argv = {
        "topology": [ring_file],
        "metrics": ["--pred", ring_file.parent, "--gt", ring_file.parent],
        "train": ["--data", train_data, "--checkpoint", tmp_path / "trained.json",
                  "--steps", "1", "--batch", "1", "--hidden", "4"],
        "refine": ["--data", train_data, "--checkpoint", ck, "--steps", "1"],
        "synth": ["--out", tmp_path / "s", "--count", "1", "--width", "32",
                  "--height", "32"],
        "taskgen": ["--out", tmp_path / "t", "--per-kind", "1", "--width", "32",
                    "--height", "32"],
    }[command]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _LOADED_BY, command, *map(str, argv)],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    rc, loaded = json.loads(result.stdout.splitlines()[-1])
    assert rc == 0, result.stderr
    assert loaded == sorted(_SCORING + [f"vesseltopo.{s}" for s in _STAGES_OF[command]])


def test_stage_names_of_cli_are_the_stage_modules_objects():
    stages = {flowgen: ["TrainConfig", "load_checkpoint", "refine_eval", "save_checkpoint",
                        "train", "write_loss_curve"],
              synth: ["VesselParams", "emit_samples"],
              taskgen: ["TASK_KINDS", "DatasetConfig", "build_dataset", "verify_answers"]}
    for module, names in stages.items():
        for name in names:
            assert name not in vars(cli), name
            assert getattr(cli, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="no attribute 'fit'"):
        cli.fit
