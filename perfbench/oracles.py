"""Independent correctness oracles for the benchmark's outputs.

They share no code with vesseltopo: PGM files are parsed here, beta0 is
``scipy.ndimage.label`` at 8-connectivity, beta1 is the number of bounded
4-connected background regions, the beta0 matching error comes from
``scipy.sparse.csgraph.maximum_bipartite_matching``, and Dice is plain
numpy. clDice and skeleton pixels are range-checked only: a correct
thinning change may move them.

Each ``check_*`` returns ``(built_failures, second_stage_failures, notes)``
for one pass directory: counts of failed operations and a message for each.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse.csgraph import maximum_bipartite_matching

_EIGHT = np.ones((3, 3), dtype=bool)


def read_mask(path: str) -> np.ndarray:
    """Binary P5 PGM, foreground where intensity >= maxval / 2."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if header is None:
        raise ValueError(f"{path}: not a P5 file")
    w, h, maxval = map(int, header.groups())
    dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
    pixels = np.frombuffer(data, dtype=dtype, count=w * h, offset=header.end())
    return pixels.reshape(h, w).astype(np.float64) >= maxval / 2.0


def beta0(mask: np.ndarray) -> int:
    return int(ndimage.label(mask, structure=_EIGHT)[1])


def beta1(mask: np.ndarray) -> int:
    labels, n = ndimage.label(~mask)
    border = np.concatenate([labels[0], labels[-1], labels[:, 0], labels[:, -1]])
    return n - len(set(border.tolist()) - {0})


def beta0_matching(pred: np.ndarray, gt: np.ndarray) -> int:
    lp, n_p = ndimage.label(pred, structure=_EIGHT)
    lg, n_g = ndimage.label(gt, structure=_EIGHT)
    if n_p == 0 or n_g == 0:
        return n_p + n_g
    both = pred & gt
    graph = sparse.csr_matrix(
        (np.ones(int(both.sum())), (lp[both] - 1, lg[both] - 1)), shape=(n_p, n_g))
    graph.sum_duplicates()
    matched = int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())
    return n_p + n_g - 2 * matched


def dice(pred: np.ndarray, gt: np.ndarray) -> float:
    denom = int(pred.sum()) + int(gt.sum())
    return 1.0 if denom == 0 else 2.0 * int((pred & gt).sum()) / denom


def _plural(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def _close(shown: str, value: float, places: int = 2) -> bool:
    """A CSV field printed with ``places`` decimals matches ``value``."""
    return abs(float(shown) - value) <= 0.5 * 10 ** -places + 1e-9


# -------------------------------- taskgen -------------------------------- #

def _taskgen_answer(rec: dict, base: str):
    """The answer the oracles derive for a record, or None if unchecked."""
    kind, prov = rec["task_kind"], rec["provenance"]
    load = lambda rel: read_mask(os.path.join(base, rel))  # noqa: E731
    if kind in ("structure_counting", "structure_judgement"):
        mask = load(rec["images"][-1])
        b0, b1 = beta0(mask), beta1(mask)
        if kind == "structure_counting":
            return str(b0 if prov["structure"] == "components" else b1)
        return "yes" if (b1 > 0 if prov["structure"] == "loop" else b0 > 1) else "no"
    if kind == "quality_judgement":
        cand, gt = load(rec["images"][-1]), load(prov["gt"])
        good = beta0(cand) == beta0(gt) and beta1(cand) == beta1(gt)
        return "good" if good else "poor"
    if kind == "better_choice":
        gt = load(prov["gt"])
        scores = [beta0_matching(m, gt) + abs(beta1(m) - beta1(gt))
                  for m in (load(rec["images"][1]), load(rec["images"][2]))]
        if scores[0] == scores[1]:
            return "<tie>"
        return "A" if scores[0] < scores[1] else "B"
    if kind == "refinement":
        gt = load(rec["target"])
        ok = (_plural(beta0(gt), "connected component") in rec["prompt"]
              and _plural(beta1(gt), "loop") in rec["prompt"])
        return rec["target"] if ok else "<bad-constraint>"
    return None


def check_taskgen(pdir: str, result: dict, per_kind: int):
    notes, bad_build = [], 0
    with open(os.path.join(pdir, "manifest.jsonl"), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    kinds = {}
    for i, rec in enumerate(records):
        kinds[rec["task_kind"]] = kinds.get(rec["task_kind"], 0) + 1
        want = _taskgen_answer(rec, pdir)
        if want != rec["answer"]:
            bad_build += 1
            notes.append(f"record {i} ({rec['task_kind']}): answer {rec['answer']!r}, "
                         f"oracle {want!r}")
    if sorted(kinds.values()) != [per_kind] * 5:
        notes.append(f"per-kind counts {kinds}, expected {per_kind} each")
        bad_build = max(bad_build, 1)
    mismatches = len(result.get("audit_mismatches", []))
    if mismatches:
        notes.append(f"verify_answers reported {mismatches} mismatches")
    if result["work"][1] != len(records):
        notes.append(f"audited {result['work'][1]} of {len(records)} records")
        mismatches = max(mismatches, 1)
    return bad_build, mismatches, notes


# -------------------------------- score ---------------------------------- #

def check_score(pdir: str, result: dict):
    notes, bad_rows, bad_topo = [], 0, 0
    with open(os.path.join(pdir, "scores.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    names = sorted(os.listdir(os.path.join(pdir, "pred")))
    if [r["sample"] for r in rows[:-1]] != names or rows[-1]["sample"] != "mean":
        return len(names), 0, [f"unexpected CSV rows {[r['sample'] for r in rows]}"]
    for row in rows[:-1]:
        pred = read_mask(os.path.join(pdir, "pred", row["sample"]))
        gt = read_mask(os.path.join(pdir, "gt", row["sample"]))
        want = {"dice": 100.0 * dice(pred, gt),
                "beta0_num": float(abs(beta0(pred) - beta0(gt))),
                "beta0_mat": float(beta0_matching(pred, gt))}
        wrong = [k for k, v in want.items() if not _close(row[k], v)]
        if not 0.0 <= float(row["cldice"]) <= 100.0:
            wrong.append("cldice")
        if wrong:
            bad_rows += 1
            notes.append(f"{row['sample']}: {wrong} differ from oracles {want}, "
                         f"got {row}")
    for line in open(os.path.join(pdir, "topology.txt"), encoding="utf-8"):
        name, _, text = line.partition(" ")
        mask = read_mask(os.path.join(pdir, name))
        b0, b1 = beta0(mask), beta1(mask)
        if text.strip() != f"beta0={b0} beta1={b1} euler={b0 - b1}":
            bad_topo += 1
            notes.append(f"topology {name}: {text.strip()!r}, oracle beta0={b0} beta1={b1}")
    return bad_rows, bad_topo, notes


# --------------------------------- flow ---------------------------------- #

def _checkpoint_reloads(path: str) -> bool:
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    widths = blob["widths"]
    params = blob["params"]
    if blob.get("version") != 1 or len(params) != len(widths) - 1:
        return False
    for (cin, cout), layer in zip(zip(widths[:-1], widths[1:]), params):
        weight, bias = np.asarray(layer["weight"]), np.asarray(layer["bias"])
        if weight.shape != (cout, cin, 3, 3) or bias.shape != (cout,):
            return False
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            return False
    return True


def check_flow(pdir: str, result: dict, steps: int):
    notes, bad_steps, bad_refined = [], 0, 0
    with open(os.path.join(pdir, "loss.csv"), encoding="utf-8") as fh:
        losses = [row["loss"] for row in csv.DictReader(fh)]
    finite = [math.isfinite(float(v)) for v in losses]
    bad_steps = steps - sum(finite)
    if bad_steps:
        notes.append(f"{sum(finite)} finite losses of {steps} steps")
    if not _checkpoint_reloads(os.path.join(pdir, "model.json")):
        notes.append("checkpoint does not reload")
        bad_steps = steps
    held = os.path.join(pdir, "heldout")
    with open(os.path.join(held, "manifest.jsonl"), encoding="utf-8") as fh:
        scenes = [json.loads(line) for line in fh if line.strip()]
    with open(os.path.join(pdir, "refine.csv"), encoding="utf-8") as fh:
        rows = {r["sample"]: r for r in csv.DictReader(fh)}
    for i, scene in enumerate(scenes):
        gt = read_mask(os.path.join(held, scene["gt"]))
        bad = read_mask(os.path.join(held, scene["bad"][0]["path"]))
        inp, out = rows.get(f"input_{i:04d}"), rows.get(f"refined_{i:04d}")
        want = {"dice": 100.0 * dice(bad, gt),
                "beta0_num": float(abs(beta0(bad) - beta0(gt))),
                "beta0_mat": float(beta0_matching(bad, gt))}
        wrong = ["missing"] if inp is None or out is None else [
            k for k, v in want.items() if not _close(inp[k], v)]
        if out is not None and not all(0.0 <= float(out[k]) <= 100.0
                                       for k in ("dice", "cldice")):
            wrong.append("refined range")
        if wrong:
            bad_refined += 1
            notes.append(f"refine triple {i}: {wrong}, oracle {want}")
    if set(rows) - {f"{s}_{i:04d}" for s in ("input", "refined")
                    for i in range(len(scenes))} != {"input_mean", "refined_mean"}:
        notes.append(f"unexpected refine CSV rows {sorted(rows)}")
        bad_refined = max(bad_refined, 1)
    return bad_steps, bad_refined, notes


def check_pass(workload: str, pdir: str, result: dict, per_kind: int, steps: int):
    if workload == "taskgen-64":
        return check_taskgen(pdir, result, per_kind)
    if workload == "score-512":
        return check_score(pdir, result)
    return check_flow(pdir, result, steps)
