"""Command line interface exposing every pipeline stage.

Subcommands: synth, metrics, taskgen, train, refine, topology. All runs are
deterministic given identical flags and inputs; outputs carry no timestamps
or absolute paths. Exit codes: 0 success, 1 usage error, 2 input/data error,
3 internal failure.

Stage modules load on first use: ``topology`` and ``metrics`` load only the
scoring layers the package itself imports; ``train`` and ``refine`` add
``flowgen``; ``synth`` adds ``synth`` and ``taskgen`` adds ``taskgen`` and
``synth``. The stage names this module once imported at the top (``train``,
``build_dataset``, ``TrainConfig``, ...) are still attributes of it, served
from their stage module.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
from dataclasses import fields

from .errors import FormatError, NonFiniteLoss, VesselTopoError, build_config
from .maskio import load_image, load_mask, write_atomic
from .metrics import aggregate_reports, format_csv, metric_report
from .topology import betti_numbers

# The stage names this module serves; each subcommand imports its own when it runs.
_STAGE_NAMES = {
    "flowgen": ("TrainConfig", "load_checkpoint", "refine_eval", "save_checkpoint",
                "train", "write_loss_curve"),
    "synth": ("VesselParams", "emit_samples"),
    "taskgen": ("TASK_KINDS", "DatasetConfig", "build_dataset", "verify_answers"),
}
_STAGE_OF = {name: stage for stage, names in _STAGE_NAMES.items() for name in names}


def __getattr__(name):
    """Serve a stage name from its module, loading it on first use (PEP 562)."""
    if name not in _STAGE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_STAGE_OF[name]}", __package__), name)


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


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named flags that were set; an unset flag leaves the library default."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


def _config(config_class, args: argparse.Namespace, **fixed):
    """Build config_class from the config file, the flags that were set and
    fixed, each winning over the one before; unset fields keep their default."""
    given = _given(args, *(f.name for f in fields(config_class)))
    file_cfg = _read_config_file(getattr(args, "config", None))
    return build_config(config_class, {**file_cfg, **given, **fixed})


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
    rows.append(("mean", aggregate_reports([r for _, r in rows])))
    if args.out is None:
        sys.stdout.write(format_csv(rows))
    else:
        write_atomic(args.out, format_csv(rows).encode("utf-8"))


def cmd_synth(args) -> None:
    from .synth import VesselParams, emit_samples

    params = _config(VesselParams, args)
    manifest = emit_samples(args.out, params, args.count,
                            **_given(args, "n_bad", "max_k"))
    print(manifest)


def cmd_taskgen(args) -> None:
    from .taskgen import TASK_KINDS, DatasetConfig, build_dataset, verify_answers

    if args.per_kind is not None:  # one count for every kind
        args.per_kind = {kind: args.per_kind for kind in TASK_KINDS}
    manifest = build_dataset(_config(DatasetConfig, args, out_dir=args.out))
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
    from .flowgen import TrainConfig, save_checkpoint, train, write_loss_curve

    config = _config(TrainConfig, args)
    triples = _load_triples(args.data, args.limit)
    result = train(config, triples)
    save_checkpoint(result.model, config, args.checkpoint)
    write_loss_curve(result.losses, args.loss_curve
                     or os.path.splitext(args.checkpoint)[0] + "_loss.csv")
    print(f"trained {config.steps} steps on {len(triples)} triples, "
          f"final loss {result.losses[-1]:.6g}")
    print(args.checkpoint)


def cmd_refine(args) -> None:
    from .flowgen import load_checkpoint, refine_eval

    triples = _load_triples(args.data, args.limit)
    model, _ = load_checkpoint(args.checkpoint)
    agg_in, agg_out = refine_eval(model, triples, csv_path=args.out,
                                  **_given(args, "steps", "seed"))
    for label, agg in (("input:", agg_in), ("refined:", agg_out)):
        print(f"{label:9}dice={100 * agg.dice:.2f} cldice={100 * agg.cl_dice:.2f} "
              f"beta0_num={agg.beta0_num:.2f} beta0_mat={agg.beta0_mat:.2f}")


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
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
