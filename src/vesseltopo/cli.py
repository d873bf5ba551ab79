"""Command line interface exposing every pipeline stage.

Subcommands: synth, metrics, taskgen, train, refine, topology. All runs are
deterministic given identical flags and inputs; outputs carry no timestamps
or absolute paths. Exit codes: 0 success, 1 usage error, 2 input/data error,
3 internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields

from .errors import FormatError, NonFiniteLoss, VesselTopoError, typed
from .flowgen import (TrainConfig, load_checkpoint, refine_eval, save_checkpoint,
                      train, write_loss_curve)
from .maskio import load_image, load_mask, write_atomic
from .metrics import format_csv, metric_report
from .synth import VesselParams, emit_samples
from .taskgen import TASK_KINDS, DatasetConfig, build_dataset, verify_answers
from .topology import betti_numbers


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise VesselTopoError(f"config file {path} must hold a JSON object")
    return cfg


def _defaults(config_class) -> dict:
    """The plain defaults of a config dataclass's fields."""
    return {f.name: f.default for f in fields(config_class)
            if f.default is not MISSING}


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named flags that were set; an unset flag leaves the library default."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


def _merged(args: argparse.Namespace, file_cfg: dict, defaults: dict) -> dict:
    """Resolve options: explicit flags win over the config file over defaults.

    Each resolved value must have the type of its default.
    """
    out = dict(defaults)
    out.update({k: v for k, v in file_cfg.items() if k in defaults})
    out.update(_given(args, *defaults))
    return {key: typed(key, value, type(defaults[key])) for key, value in out.items()}


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    write_atomic(path, text.encode("utf-8"))


def _load_triples(data_dir, limit) -> list:
    """Load (image, imperfect, gt) triples from a synth output directory.

    A limit below 1 is rejected before any file is read.
    """
    if limit is not None and limit < 1:
        raise VesselTopoError(f"--limit must be at least 1, got {limit}")
    manifest = os.path.join(data_dir, "manifest.jsonl")
    triples = []
    with open(manifest, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            try:
                image_path = os.path.join(data_dir, rec["image"])
                gt_path = os.path.join(data_dir, rec["gt"])
                bad_paths = [os.path.join(data_dir, bad["path"]) for bad in rec["bad"]]
            except (KeyError, TypeError):
                raise FormatError(f"{manifest}: record {line.strip()!r} lacks "
                                  f"image, gt or bad paths") from None
            image = load_image(image_path)
            gt = load_mask(gt_path)
            for bad_path in bad_paths:
                triples.append((image, load_mask(bad_path), gt))
                if limit is not None and len(triples) >= limit:
                    return triples
    if not triples:
        raise VesselTopoError(f"no triples found under {data_dir}")
    return triples


def cmd_topology(args) -> None:
    summary = betti_numbers(load_mask(args.mask))
    print(f"beta0={summary.beta0} beta1={summary.beta1} euler={summary.euler}")


def cmd_metrics(args) -> None:
    pred_names = {f for f in os.listdir(args.pred) if f.endswith(".pgm")}
    gt_names = {f for f in os.listdir(args.gt) if f.endswith(".pgm")}
    common = sorted(pred_names & gt_names)
    if not common:
        raise VesselTopoError("no matching .pgm files between pred and gt dirs")
    rows = []
    for name in common:
        pred = load_mask(os.path.join(args.pred, name))
        gt = load_mask(os.path.join(args.gt, name))
        rows.append((name, metric_report(pred, gt)))
    _write_text(args.out, format_csv(rows, mean_row=True))


def cmd_synth(args) -> None:
    params = VesselParams(**_merged(args, {}, _defaults(VesselParams)))
    manifest = emit_samples(args.out, params, args.count,
                            **_given(args, "n_bad", "max_k"))
    print(manifest)


def cmd_taskgen(args) -> None:
    file_cfg = _read_config_file(args.config)
    merged = _merged(args, file_cfg, _defaults(DatasetConfig))
    per_kind = file_cfg.get("per_kind", {})
    if args.per_kind is not None:
        per_kind = {kind: args.per_kind for kind in TASK_KINDS}
    if per_kind:  # else DatasetConfig's default counts
        for kind, n in typed("per_kind", per_kind, dict).items():
            typed(f"per_kind.{kind}", n, int)
        merged["per_kind"] = per_kind
    config = DatasetConfig(out_dir=args.out, **merged)
    manifest = build_dataset(config)
    print(manifest)
    if args.verify:
        report = verify_answers(manifest)
        print(f"verified {report.total} records, "
              f"{report.mismatch_count} mismatches, "
              f"per kind {json.dumps(report.per_kind, sort_keys=True)}")
        if report.mismatch_count:
            raise AssertionError(
                f"rule-engine audit failed on records {report.mismatch_records}"
            )


def cmd_train(args) -> None:
    triples = _load_triples(args.data, args.limit)
    file_cfg = _read_config_file(args.config)
    # TrainConfig.steps has no default
    config = TrainConfig(**_merged(args, file_cfg,
                                   {"steps": 2000, **_defaults(TrainConfig)}))
    result = train(config, triples)
    save_checkpoint(result.model, config, args.checkpoint)
    write_loss_curve(result.losses, args.loss_curve
                     or os.path.splitext(args.checkpoint)[0] + "_loss.csv")
    print(f"trained {config.steps} steps on {len(triples)} triples, "
          f"final loss {result.losses[-1]:.6g}")
    print(args.checkpoint)


def cmd_refine(args) -> None:
    triples = _load_triples(args.data, args.limit)
    model, _ = load_checkpoint(args.checkpoint)
    agg_in, agg_out = refine_eval(model, triples, csv_path=args.out,
                                  **_given(args, "steps", "seed"))
    print(f"input:   dice={100 * agg_in.dice:.2f} cldice={100 * agg_in.cl_dice:.2f} "
          f"beta0_num={agg_in.beta0_num:.2f} beta0_mat={agg_in.beta0_mat:.2f}")
    print(f"refined: dice={100 * agg_out.dice:.2f} cldice={100 * agg_out.cl_dice:.2f} "
          f"beta0_num={agg_out.beta0_num:.2f} beta0_mat={agg_out.beta0_mat:.2f}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vesseltopo",
                     description="Topology-aware tubular segmentation toolkit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("topology", parents=[], help="print beta0/beta1/euler of a mask")
    p.add_argument("mask", help="PGM mask file")
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("metrics", help="score pred masks against gt masks as CSV")
    p.add_argument("--pred", required=True, help="directory of predicted masks")
    p.add_argument("--gt", required=True, help="directory of ground-truth masks")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("synth", help="generate vessel scenes with perturbed variants")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=10)
    # unset flags take VesselParams' defaults
    p.add_argument("--seed", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--trees", dest="n_trees", type=int)
    p.add_argument("--loops", dest="n_loops", type=int)
    p.add_argument("--depth", dest="branch_depth", type=int)
    p.add_argument("--branch-prob", dest="branch_prob", type=float)
    p.add_argument("--radius", dest="radius_root", type=float)
    p.add_argument("--radius-min", dest="radius_min", type=float)
    p.add_argument("--noise", dest="background_noise_sigma", type=float)
    # unset flags take emit_samples' defaults
    p.add_argument("--bad", dest="n_bad", type=int, help="perturbed variants per scene")
    p.add_argument("--max-k", type=int, help="max perturbation strength")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("taskgen", help="build a topology-centric task dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--per-kind", type=int, default=None,
                   help="records per task kind (overrides config file)")
    p.add_argument("--config", default=None, help="JSON config file; flags win")
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--test-fraction", dest="test_fraction", type=float, default=None)
    p.add_argument("--noise", dest="noise_sigma", type=float, default=None)
    p.add_argument("--verify", action="store_true",
                   help="re-derive all answers from pixels after building")
    p.set_defaults(func=cmd_taskgen)

    p = sub.add_parser("train", help="train the rectified-flow refiner")
    p.add_argument("--data", required=True, help="synth output directory")
    p.add_argument("--checkpoint", required=True, help="checkpoint JSON path")
    p.add_argument("--config", default=None, help="JSON config file; flags win")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=float, default=None)
    group.add_argument("--no-adaptive", dest="lam", action="store_const", const=0.0,
                       help="disable adaptive weighting: the same as --lambda 0")
    p.add_argument("--patch", dest="patch_size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--limit", type=int, default=None, help="cap training triples")
    p.add_argument("--loss-curve", default=None, help="loss curve CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("refine", help="evaluate refinement quality of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="synth output directory")
    p.add_argument("--out", default=None, help="CSV output path (default stdout only)")
    # unset flags take refine_eval's defaults
    p.add_argument("--steps", type=int, help="Euler integration steps")
    p.add_argument("--seed", type=int)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_refine)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        args.func(args)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteLoss as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, VesselTopoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant failures and bugs
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
