"""One workload process of the vesseltopo benchmark.

``run.py`` starts this file in a fresh interpreter for each measurement, so
every process holds one workload and nothing else:

* ``--mode setup``: time ``import vesseltopo`` plus one warm-up call of the
  workload's entry point on tiny inputs. Only the standard library and
  numpy, which the sampler needs, are loaded before the clock starts.
* ``--mode run``: warm up untimed, then run passes until ``--seconds`` of
  measured time (or exactly ``--passes`` passes). Each pass generates its
  own inputs untimed, then times the workload's two stages through the
  public entry points, each under the host-speed sampler of
  ``calibrate.py``. With ``--trace 1`` every layer function is wrapped in a
  span for the passes.

Both modes report times at the nominal host speed (``calibrate.py``) and
the raw wall times beside them.

The result is one JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# A pass that starts may overrun --seconds, so stop once the measured time
# plus half a mean pass reaches it. The caps bound a run of a much faster
# program, whose input generation would otherwise dominate the wall time.
MAX_PASSES = 400
WALL_CAP = 3.0  # x --seconds

TASKGEN_PER_KIND = 3
FLOW_TRAIN_SCENES, FLOW_HELDOUT_SCENES = 16, 8
FLOW_STEPS, REFINE_STEPS = 100, 16


def cli(argv) -> tuple[int, str]:
    """Run ``vesseltopo.cli.main`` in-process; return (exit code, stdout)."""
    from vesseltopo import cli as vcli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = vcli.main([str(a) for a in argv])
    return rc, out.getvalue()


def warmup_argv(workload: str, tiny: str, out: str) -> list:
    return {
        "taskgen-64": ["taskgen", "--out", out, "--config",
                       os.path.join(tiny, "taskgen.json")],
        "score-512": ["metrics", "--pred", os.path.join(tiny, "pairs", "pred"),
                      "--gt", os.path.join(tiny, "pairs", "gt"),
                      "--out", out + ".csv"],
        "flow-32": ["train", "--data", os.path.join(tiny, "flow"),
                    "--checkpoint", out + ".json", "--steps", 1],
    }[workload]


def _sha256_files(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ------------------------------- passes ---------------------------------- #
# Each pass returns its stage times and work counts, exit codes, and the
# sha256 of its inputs and outputs. Only the calls into the package are
# inside the timed regions.

def taskgen_pass(seed: int, p: int, pdir: str, hs) -> dict:
    from inputs import tree_digest
    from vesseltopo import taskgen

    config = ["--per-kind", TASKGEN_PER_KIND, "--seed", seed * 1000 + p]
    (rc, _), net1, nom1 = hs.time(cli, ["taskgen", "--out", pdir] + config)
    manifest = os.path.join(pdir, "manifest.jsonl")
    out = {"rc": [rc], "expected": [5 * TASKGEN_PER_KIND, 5 * TASKGEN_PER_KIND],
           "inputs_sha256": hashlib.sha256(json.dumps(config).encode()).hexdigest()}
    if rc != 0:
        return {**out, "stage_s": [net1, 0.0], "nominal_s": [nom1, 0.0], "work": [0, 0]}
    with open(manifest, encoding="utf-8") as fh:
        built = sum(1 for line in fh if line.strip())
    report, net2, nom2 = hs.time(taskgen.verify_answers, manifest)
    return {**out, "stage_s": [net1, net2], "nominal_s": [nom1, nom2],
            "work": [built, report.total],
            "audit_mismatches": list(report.mismatch_records),
            "outputs_sha256": tree_digest(pdir)}


def score_pass(seed: int, p: int, pdir: str, hs, pool) -> dict:
    import inputs

    inputs.score_pass_pairs(pool, seed, p, pdir)
    pred, gt = os.path.join(pdir, "pred"), os.path.join(pdir, "gt")
    out = {"inputs_sha256": inputs.tree_digest(pdir), "expected": [2, 4]}
    csv = os.path.join(pdir, "scores.csv")
    (rc, _), net1, nom1 = hs.time(cli, ["metrics", "--pred", pred, "--gt", gt,
                                        "--out", csv])
    names = sorted(os.listdir(pred))
    masks = [f"{sub}/{n}" for sub in ("pred", "gt") for n in names]
    topology = lambda: [cli(["topology", os.path.join(pdir, m)]) for m in masks]  # noqa: E731
    results, net2, nom2 = hs.time(topology)
    topo = os.path.join(pdir, "topology.txt")
    with open(topo, "w", encoding="utf-8") as fh:
        fh.writelines(f"{m} {text.strip()}\n" for m, (_, text) in zip(masks, results))
    rcs = [rc] + [r for r, _ in results]
    done = [len(names) if rc == 0 else 0, sum(r == 0 for r in rcs[1:])]
    sha = _sha256_files(csv, topo) if rc == 0 else None
    return {**out, "rc": rcs, "stage_s": [net1, net2], "nominal_s": [nom1, nom2],
            "work": done, "outputs_sha256": sha}


def flow_pass(seed: int, p: int, pdir: str, hs) -> dict:
    import inputs

    train_dir, held = os.path.join(pdir, "train"), os.path.join(pdir, "heldout")
    inputs.flow_triples(train_dir, [seed, p, 0], FLOW_TRAIN_SCENES)
    inputs.flow_triples(held, [seed, p, 1], FLOW_HELDOUT_SCENES)
    out = {"inputs_sha256": inputs.tree_digest(pdir),
           "expected": [FLOW_STEPS, FLOW_HELDOUT_SCENES]}
    ckpt, loss = os.path.join(pdir, "model.json"), os.path.join(pdir, "loss.csv")
    csv = os.path.join(pdir, "refine.csv")
    (rc1, _), net1, nom1 = hs.time(cli, ["train", "--data", train_dir, "--checkpoint", ckpt,
                                         "--loss-curve", loss, "--steps", FLOW_STEPS,
                                         "--seed", p])
    if rc1 != 0:
        return {**out, "rc": [rc1], "stage_s": [net1, 0.0], "nominal_s": [nom1, 0.0],
                "work": [0, 0]}
    (rc2, _), net2, nom2 = hs.time(cli, ["refine", "--checkpoint", ckpt, "--data", held,
                                         "--out", csv, "--steps", REFINE_STEPS,
                                         "--seed", p])
    return {**out, "rc": [rc1, rc2], "stage_s": [net1, net2], "nominal_s": [nom1, nom2],
            "work": [FLOW_STEPS, FLOW_HELDOUT_SCENES if rc2 == 0 else 0],
            "outputs_sha256": _sha256_files(loss, csv) if rc2 == 0 else None}


# -------------------------------- modes ---------------------------------- #

def measure_setup(args) -> dict:
    from calibrate import HostSampler

    argv = warmup_argv(args.workload, args.tiny, os.path.join(args.work, "warmup"))
    hs = HostSampler()
    (rc, _), net, nominal = hs.time(cli, argv)
    return {"setup_s": nominal, "raw_s": net, "rc": rc}


def _warm_up(args) -> list[int]:
    """Untimed calls of every entry point a pass uses, on tiny inputs."""
    out = os.path.join(args.work, "warmup")
    rcs = [cli(warmup_argv(args.workload, args.tiny, out))[0]]
    if args.workload == "taskgen-64":
        from vesseltopo import taskgen
        taskgen.verify_answers(os.path.join(out, "manifest.jsonl"))
    elif args.workload == "score-512":
        rcs.append(cli(["topology", os.path.join(args.tiny, "pairs", "gt", "tiny.pgm")])[0])
    else:
        rcs.append(cli(["refine", "--checkpoint", out + ".json", "--data",
                        os.path.join(args.tiny, "flow"), "--steps", 2])[0])
    return rcs


def run_passes(args) -> dict:
    from calibrate import HostSampler

    warm = _warm_up(args)
    hs = HostSampler()
    if args.workload == "score-512":
        import inputs
        pool = inputs.score_pool(args.seed)
        run = lambda p, d: score_pass(args.seed, p, d, hs, pool)  # noqa: E731
    else:
        fn = taskgen_pass if args.workload == "taskgen-64" else flow_pass
        run = lambda p, d: fn(args.seed, p, d, hs)  # noqa: E731
    tracer = uninstall = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
    passes, measured, error = [], 0.0, None
    start = time.perf_counter()
    try:
        while True:
            p = len(passes)
            if args.passes is not None:
                if p >= args.passes:
                    break
            elif p and (measured * (1 + 0.5 / p) >= args.seconds or p >= MAX_PASSES
                        or time.perf_counter() - start >= WALL_CAP * args.seconds):
                break
            stages = len(hs.slowness)
            result = run(p, os.path.join(args.work, f"p{p:04d}"))
            result["slowness"] = hs.slowness[stages:]
            passes.append(result)
            measured += sum(result["stage_s"])
            if any(rc != 0 for rc in result["rc"]):
                break
    except Exception as exc:  # report, do not hide, a fault in a pass
        error = f"pass {len(passes)}: {type(exc).__name__}: {exc}"
    finally:
        if uninstall is not None:
            uninstall()
    out = {"warmup_rc": warm, "passes": passes, "measured_s": measured,
           "error": error,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        out["layers"] = spans.summarize(
            tracer.spans,
            records=sum(r["work"][0] for r in passes) if args.workload == "taskgen-64" else 0,
            train_steps=sum(r["work"][0] for r in passes) if args.workload == "flow-32" else 0)
        out["span_count"] = len(tracer.spans)
        out["self_s_total"] = sum(spans.self_times(tracer.spans))
        out["wall_s"] = hs.wall_s
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="directory for this process's outputs")
    ap.add_argument("--tiny", required=True, help="directory of warm-up inputs")
    ap.add_argument("--out", required=True, help="JSON result path")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--passes", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, SRC)
    os.makedirs(args.work, exist_ok=True)
    result = measure_setup(args) if args.mode == "setup" else run_passes(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
