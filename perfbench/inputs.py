"""Seeded, numpy-only input generator for the score-512 and flow-32 workloads.

The generator shares no code with ``vesseltopo.synth``, so the bytes of a
workload's inputs depend only on the seed and this file, never on the
program under test. Masks and images are written by this module's own P5
(binary PGM) writer, in the directory layouts the CLI reads:

* score-512: ``pred/<name>.pgm`` and ``gt/<name>.pgm`` with matching names;
* flow-32: a synth-style directory holding ``manifest.jsonl`` and
  ``<id>_img.pgm``, ``<id>_gt.pgm``, ``<id>_bad0.pgm`` per scene.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np


def write_pgm(path: str, array: np.ndarray) -> None:
    """Write a uint8 (H, W) array as binary PGM, maxval 255."""
    data = np.ascontiguousarray(array, dtype=np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def write_mask(path: str, mask: np.ndarray) -> None:
    write_pgm(path, np.where(mask, 255, 0).astype(np.uint8))


def tree_digest(root: str) -> str:
    """sha256 over every file below ``root``: relative path, then bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# ------------------------------- drawing --------------------------------- #

def _disk(canvas: np.ndarray, cy: float, cx: float, r: float,
          value: bool = True) -> None:
    h, w = canvas.shape
    y0, y1 = max(0, int(cy - r)), min(h, int(math.ceil(cy + r)) + 1)
    x0, x1 = max(0, int(cx - r)), min(w, int(math.ceil(cx + r)) + 1)
    if y0 >= y1 or x0 >= x1:
        return
    yy = np.arange(y0, y1)[:, None] - cy
    xx = np.arange(x0, x1)[None, :] - cx
    canvas[y0:y1, x0:x1][yy * yy + xx * xx <= r * r] = value


def _segment(canvas: np.ndarray, p, q, r: float, value: bool = True) -> None:
    n = max(2, int(2 * math.hypot(q[0] - p[0], q[1] - p[1])) + 1)
    for t in np.linspace(0.0, 1.0, n):
        _disk(canvas, p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]), r, value)


def _grow(canvas: np.ndarray, rng: np.random.Generator, root, angle: float,
          radius: float, depth: int, seg_len: float, stop_frac: float) -> None:
    """Random-walk branching tube from ``root``; stops past ``stop_frac``."""
    h, w = canvas.shape
    stack = [(float(root[0]), float(root[1]), angle, radius, 1)]
    while stack:
        y, x, a, r, d = stack.pop()
        for _ in range(max(4, int(rng.uniform(0.7, 1.3) * seg_len))):
            _disk(canvas, y, x, r)
            a += rng.normal(0.0, 0.1)
            y, x = y + math.sin(a), x + math.cos(a)
            if not (1 <= y < h - 1 and 1 <= x < w - 1):
                break
        else:
            if d < depth and canvas.mean() < stop_frac:
                child = max(1.0, r * 0.75)
                spread = rng.uniform(0.3, 0.8)
                stack.append((y, x, a + spread, child, d + 1))
                stack.append((y, x, a - spread, max(1.0, r * 0.9), d + 1))


def vessel_mask(rng: np.random.Generator, size: int, frac_range,
                radius_range, depth: int) -> np.ndarray:
    """Vessel trees grown from border roots until the foreground fraction
    reaches a target drawn from ``frac_range``."""
    target = rng.uniform(*frac_range)
    canvas = np.zeros((size, size), dtype=bool)
    while canvas.mean() < target:
        side = int(rng.integers(4))
        t = rng.uniform(0.2, 0.8) * (size - 1)
        root = [(1.0, t), (size - 2.0, t), (t, 1.0), (t, size - 2.0)][side]
        inward = [math.pi / 2, -math.pi / 2, 0.0, math.pi][side]
        _grow(canvas, rng, root, inward + rng.normal(0.0, 0.4),
              rng.uniform(*radius_range), depth, 0.12 * size, target)
    return canvas


def _shift_or(mask: np.ndarray) -> np.ndarray:
    out = mask.copy()
    out[1:] |= mask[:-1]
    out[:-1] |= mask[1:]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def corrupt(rng: np.random.Generator, gt: np.ndarray, n_cuts, n_bridges,
            n_specks, morph: int = 0) -> np.ndarray:
    """A prediction: a 1-px dilation (morph > 0) or erosion (morph < 0),
    then cuts, bridges and spurious specks at random sites. Erosion spares
    vessels it would erase entirely, as a thresholded prediction would."""
    pred = gt.copy()
    if morph > 0:
        pred = _shift_or(gt)
    elif morph < 0:
        eroded = ~_shift_or(~gt)
        pred = eroded | (gt & ~_shift_or(_shift_or(eroded)))
    fg = np.argwhere(gt)
    size = gt.shape[0]
    for _ in range(int(rng.integers(*n_cuts))):
        y, x = fg[rng.integers(len(fg))]
        _disk(pred, float(y), float(x), rng.uniform(1.5, 4.0), False)
    for _ in range(int(rng.integers(*n_bridges))):
        p = fg[rng.integers(len(fg))]
        q = p + rng.integers(-8, 9, size=2)
        _segment(pred, p, np.clip(q, 0, size - 1), 1.0)
    for _ in range(int(rng.integers(*n_specks))):
        y, x = rng.uniform(0, size - 1, size=2)
        _disk(pred, y, x, rng.uniform(0.5, 2.0))
    return pred


# ------------------------------ workloads -------------------------------- #

# Foreground-fraction strata of the score-512 ground-truth pool. Each pass
# scores a thin tree with a dilated prediction and a thick tree with an
# eroded one, so every pass carries about the same amount of work.
SCORE_STRATA = ((0.080, 0.095), (0.095, 0.110), (0.110, 0.125), (0.125, 0.140))
_SCORE_PASS_PAIRS = (((0, 1), (3, -1)), ((1, 1), (2, -1)))


def score_pool(seed: int, size: int = 512) -> list[np.ndarray]:
    """One vessel tree per stratum: radii 1-5 px, 8-14% foreground."""
    return [vessel_mask(np.random.default_rng([seed, k]), size, frac, (4.0, 5.0), 7)
            for k, frac in enumerate(SCORE_STRATA)]


def score_pass_pairs(pool, seed: int, p: int, out_dir: str) -> None:
    """Write pass ``p``'s two pred/gt pairs under ``out_dir``/{pred,gt}.

    Ground truths are dihedral transforms of pool trees, so 16 passes see
    32 distinct masks; predictions are fresh corruptions with cuts, tens of
    specks, bridges and a 1-px dilation or erosion.
    """
    k = (p // 2) % 8
    for j, (stratum, morph) in enumerate(_SCORE_PASS_PAIRS[p % 2]):
        gt = np.rot90(pool[stratum], k % 4)
        gt = np.ascontiguousarray(gt.T if k >= 4 else gt)
        rng = np.random.default_rng([seed, p, j])
        pred = corrupt(rng, gt, (3, 9), (2, 7), (20, 61), morph)
        name = f"pair{p:04d}{'ab'[j]}.pgm"
        for sub, mask in (("gt", gt), ("pred", pred)):
            os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
            write_mask(os.path.join(out_dir, sub, name), mask)


def flow_triples(out_dir: str, entropy, n_scenes: int, size: int = 32) -> None:
    """A synth-layout directory of ``n_scenes`` (image, bad mask, gt) triples."""
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for i, ss in enumerate(np.random.SeedSequence(entropy).spawn(n_scenes)):
        rng = np.random.default_rng(ss)
        gt = vessel_mask(rng, size, (0.12, 0.25), (1.0, 2.0), depth=3)
        bad = corrupt(rng, gt, (1, 3), (0, 2), (0, 3))
        if (bad == gt).all():
            bad[tuple(np.argwhere(gt)[0])] = False
        image = np.where(gt, 0.85, 0.15) + rng.normal(0.0, 0.04, gt.shape)
        sid = f"{i:05d}"
        write_pgm(os.path.join(out_dir, f"{sid}_img.pgm"),
                  np.rint(np.clip(image, 0.0, 1.0) * 255.0))
        write_mask(os.path.join(out_dir, f"{sid}_gt.pgm"), gt)
        write_mask(os.path.join(out_dir, f"{sid}_bad0.pgm"), bad)
        lines.append(json.dumps({"id": sid, "image": f"{sid}_img.pgm",
                                 "gt": f"{sid}_gt.pgm",
                                 "bad": [{"path": f"{sid}_bad0.pgm"}]},
                                sort_keys=True))
    with open(os.path.join(out_dir, "manifest.jsonl"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def tiny_inputs(out_dir: str) -> None:
    """Small inputs for the warm-up call of each workload's entry point.

    They do not depend on the workload seed, so set-up does the same work in
    every run, and a seed cannot ask for more trees than the tiny canvas fits.
    """
    seed = 0
    rng = np.random.default_rng([seed, 1 << 20])
    gt = vessel_mask(rng, 32, (0.1, 0.2), (1.0, 2.0), 3)
    for sub, mask in (("gt", gt), ("pred", corrupt(rng, gt, (1, 2), (1, 2), (1, 3)))):
        os.makedirs(os.path.join(out_dir, "pairs", sub), exist_ok=True)
        write_mask(os.path.join(out_dir, "pairs", sub, "tiny.pgm"), mask)
    flow_triples(os.path.join(out_dir, "flow"), [seed, 1 << 20], 2, size=16)
    with open(os.path.join(out_dir, "taskgen.json"), "w", encoding="utf-8") as fh:
        json.dump({"per_kind": {"structure_counting": 1}, "width": 32,
                   "height": 32, "seed": seed}, fh)
