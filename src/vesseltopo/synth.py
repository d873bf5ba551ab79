"""Synthetic vessel-like scenes and controlled topological perturbations.

Scenes are branching tube systems rendered onto a noisy background. All
topology claims are verified rather than assumed: generation recomputes
Betti numbers after every structural edit and retries with a fresh
sub-stream until the requested component and loop counts hold exactly.
Every loop insertion and every disconnect, merge or hole edit is kept only
if its recounted (beta0, beta1) change is one the caller allows, and
``_perturb`` runs the edits of a perturbation within one attempt budget.
Cuts and holes go through ``_verified_edit``, which recounts each
candidate in turn. Loop insertions and merges go through ``_bridge_edit``,
which draws bridges in batches, rasterises a batch at once and takes each
bridge's Euler change from the bit-quads around its new pixels; only a
bridge whose Euler change can match is recounted, and the first that
passes is kept, with the rng set back to its state after the kept
attempt's draws, so that the result, the attempts used and the random
stream equal those of trying one bridge at a time.
Dilate-noise keeps a grown pixel when it is a simple point of the grown
mask, and one recount verifies the returned mask.

Randomness is split per tree and per perturbation via ``SeedSequence`` so
that editing one part of a scene never reshuffles the rest.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from .errors import InsufficientStructure, InvalidParams
from .maskio import BinaryMask, GrayImage, as_mask, save_image, save_mask, write_atomic
from .topology import (_OFFS8, SIMPLE_LUT, TopologySummary, _euler_deltas,
                       _neighbour_codes, betti_numbers, label_components, skeletonize)

_MAX_SCENE_ATTEMPTS = 100
_MAX_SITE_ATTEMPTS = 1000
_SIMPLE = SIMPLE_LUT.tolist()


@dataclass(frozen=True)
class VesselParams:
    width: int = 128
    height: int = 128
    n_trees: int = 1
    branch_depth: int = 4
    branch_prob: float = 0.7
    radius_root: float = 2.5
    radius_min: float = 1.0
    n_loops: int = 0
    background_noise_sigma: float = 0.04
    seed: int = 0

    def __post_init__(self) -> None:
        # the float tests are written so that NaN, which fails every
        # comparison, fails them too
        if not 1 <= self.radius_min <= self.radius_root < math.inf:
            raise InvalidParams("need finite radii with 1 <= radius_min <= radius_root, "
                                f"got radius_min={self.radius_min}, "
                                f"radius_root={self.radius_root}")
        if self.branch_depth < 1:
            raise InvalidParams("branch_depth must be >= 1")
        if not 0.0 <= self.branch_prob <= 1.0:
            raise InvalidParams("branch_prob must be in [0, 1]")
        if self.n_trees < 1 or self.n_loops < 0:
            raise InvalidParams("need n_trees >= 1 and n_loops >= 0")
        if not 0 <= self.background_noise_sigma < math.inf:
            raise InvalidParams("background_noise_sigma must be finite and >= 0, "
                                f"got {self.background_noise_sigma}")
        if min(self.width, self.height) < 8 * self.radius_root:
            raise InvalidParams(
                f"canvas {self.width}x{self.height} too small for "
                f"radius_root={self.radius_root}"
            )


@dataclass(frozen=True)
class PerturbationLog:
    kind: str  # disconnect | merge | hole | dilate-noise
    sites: tuple[tuple[int, int], ...]
    expected_beta0_delta: int | None
    expected_beta1_delta: int | None


def _disk_pixels(shape, cy, cx, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disks, rows and columns of the in-canvas pixels within r[i] of (cy[i], cx[i]).

    r is one radius per disk, or one for all of them. Covers every disk i in
    one pass; a pixel inside several disks is listed once per disk, with
    that disk's index. A pixel (y, x) is inside when
    ``(y - cy)**2 + (x - cx)**2 <= r**2`` in float64, evaluated in that order.
    Every such pixel lies in ``floor(c - r) .. floor(c + r)``, at most
    ``ceil(2 r) + 1`` pixels, so one box of side ``ceil(2 max r) + 2`` from
    ``floor(c - r)`` holds each disk, with one pixel to spare for rounding.
    """
    h, w = shape
    cy = np.asarray(cy, dtype=np.float64)
    cx = np.asarray(cx, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    off = np.arange(math.ceil(2 * r.max()) + 2)
    y0 = np.floor(cy - r).astype(np.intp)
    x0 = np.floor(cx - r).astype(np.intp)
    ys = y0[:, None] + off
    xs = x0[:, None] + off
    yy2 = ys - cy[:, None]
    yy2 *= yy2
    xx2 = xs - cx[:, None]
    xx2 *= xx2
    # off-canvas rows and columns get an infinite distance, never inside
    yy2[(ys < 0) | (ys >= h)] = np.inf
    xx2[(xs < 0) | (xs >= w)] = np.inf
    inside = yy2[:, :, None] + xx2[:, None, :] <= np.reshape(r * r, (-1, 1, 1))
    # one flat scan, split into disk, box row and box column, costs a third
    # of a 3-D nonzero on a tree's boxes
    k, cell = np.divmod(np.flatnonzero(inside), off.size * off.size)
    a, b = np.divmod(cell, off.size)
    return k, y0[k] + a, x0[k] + b


def _tube_pixels(shape, ends, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tubes, rows and columns of the in-canvas pixels of the tubes
    ``ends[i] = (p0, p1)`` of radius r, all in one ``_disk_pixels`` call.

    A tube is the disks of radius r at ``n = max(2, int(2 |p1 - p0|) + 1)``
    positions ``p0 + t * (p1 - p0)``, with t spaced as ``np.linspace(0, 1, n)``
    spaces it: ``k * (1 / (n - 1))``, and exactly 1 at the end. A pixel may
    be listed more than once per tube.
    """
    ends = np.asarray(ends, dtype=np.float64)
    p0 = ends[:, 0]
    d = ends[:, 1] - p0
    n = np.maximum(2, (np.hypot(d[:, 0], d[:, 1]) * 2).astype(np.intp) + 1)
    tube = np.repeat(np.arange(n.size), n)
    last = n.cumsum() - 1
    t = (np.arange(tube.size) - (last - n + 1)[tube]) * (1.0 / (n - 1))[tube]
    t[last] = 1.0
    centre = p0[tube] + t[:, None] * d[tube]
    disk, rows, cols = _disk_pixels(shape, centre[:, 0], centre[:, 1], r)
    return tube[disk], rows, cols


def _grow_tree(mask: np.ndarray, rng: np.random.Generator,
               params: VesselParams, origin, direction) -> None:
    h, w = mask.shape
    margin = params.radius_root + 2.0
    seg_len = 0.13 * min(h, w)
    # Disk centres and radii of the whole tree; nothing reads the mask while
    # the tree grows, so it is rasterised once at the end.
    cys: list[float] = []
    cxs: list[float] = []
    rs: list[float] = []
    stack = [(float(origin[0]), float(origin[1]), float(direction), 1,
              float(params.radius_root))]
    while stack:
        y, x, angle, depth, radius = stack.pop()
        n_steps = max(4, int(rng.uniform(0.8, 1.3) * seg_len))
        alive = True
        for _ in range(n_steps):
            cys.append(y)
            cxs.append(x)
            rs.append(radius)
            angle += rng.normal(0.0, 0.12)
            y += math.sin(angle)
            x += math.cos(angle)
            if not (margin <= y < h - margin and margin <= x < w - margin):
                alive = False
                break
        if not alive or depth >= params.branch_depth:
            continue
        if rng.random() < params.branch_prob:
            spread = rng.uniform(0.35, 0.8)
            child_r = max(params.radius_min, radius * 0.78)
            stack.append((y, x, angle + spread, depth + 1, child_r))
            stack.append((y, x, angle - spread, depth + 1, child_r))
        else:
            stack.append((y, x, angle, depth + 1,
                          max(params.radius_min, radius * 0.9)))
    _, rows, cols = _disk_pixels(mask.shape, cys, cxs, rs)
    mask[rows, cols] = True


def _place_roots(rng: np.random.Generator, params: VesselParams) -> list:
    h, w = params.height, params.width
    margin = params.radius_root + 3.0
    min_sep = min(h, w) / (params.n_trees + 1)
    roots: list[np.ndarray] = []
    for _ in range(params.n_trees):
        # the first candidate far enough from every root, or else the last
        for _ in range(200):
            cand = np.array([rng.uniform(margin, h - margin),
                             rng.uniform(margin, w - margin)])
            if all(np.hypot(*(cand - r)) >= min_sep for r in roots):
                break
        roots.append(cand)
    return roots


def _verified_edit(attempts, deltas):
    """The edit that keeps the first candidate whose recounted Betti deltas pass.

    ``attempts(cur, rng, sites)`` yields one iterable of ``(mask, sites)``
    candidates per attempt, built lazily so that an attempt's rng draws happen
    only when it is reached. A candidate passes when ``(beta0, beta1)`` of its
    mask minus that of ``cur`` is in ``deltas``. The edit is called as
    ``_perturb`` describes.
    """
    def edit(cur, cur_b, rng, sites, budget):
        n = 0
        for n, candidates in enumerate(islice(attempts(cur, rng, sites), budget), 1):
            for cand, new_sites in candidates:
                b = betti_numbers(cand)
                if (b.beta0 - cur_b.beta0, b.beta1 - cur_b.beta1) in deltas:
                    return (cand, b, new_sites), n
        return None, n
    return edit


# Bridge proposals drawn, rasterised and Euler-counted together. A larger
# batch spreads the fixed numpy cost of a batch over more proposals, but
# wastes the draws made past an accepted one and holds more memory: 8
# against 4 builds taskgen records about 4% faster, at about 0.4 MiB more
# peak RSS.
_BRIDGE_BATCH = 8


def _bridge_edit(partners, radius: float, deltas):
    """The edit that bridges a random foreground pixel p to a partner q.

    ``partners(cur, fg)`` returns, for the foreground pixels fg of ``cur``, a
    function that maps i to the ascending indices into fg of the pixels that
    may pair with fg[i]. Each attempt draws p = fg[i], then q among its
    partners; an attempt that finds none proposes nothing. A proposal is a
    tube of the given radius from p to q, with sites p and q, and it passes
    as in ``_verified_edit``.

    Proposals are taken ``_BRIDGE_BATCH`` at a time: one rasterisation per
    batch, and one local Euler count that gives each proposal's chi change.
    That change is beta0 change - beta1 change, so only a proposal whose chi
    change matches a pair in ``deltas`` is recounted with ``betti_numbers``,
    and the first that passes, in attempt order, is kept. The rng is then set
    back to its state after the kept attempt's draws, so the attempts used,
    the rng and the result are those of drawing and recounting one at a time.
    """
    chi_deltas = [d0 - d1 for d0, d1 in deltas]

    def edit(cur, cur_b, rng, sites, budget):
        fg = np.argwhere(cur)
        if len(fg) == 0:
            raise InsufficientStructure("mask has no foreground to bridge")
        partners_of = partners(cur, fg)
        n = 0
        while n < budget:
            batch = []  # (attempt, rng state after its draws) per proposal
            ends = []  # indices into fg of p and q, per proposal
            while n < budget and len(batch) < _BRIDGE_BATCH:
                n += 1
                i = rng.integers(len(fg))
                picks = partners_of(i)
                if len(picks):
                    ends += (i, picks[rng.integers(len(picks))])
                    batch.append((n, rng.bit_generator.state))
            if not batch:
                break
            ends = fg[ends].reshape(-1, 2, 2)
            tube, rows, cols = _tube_pixels(cur.shape, ends, radius)
            chi = _euler_deltas(cur, tube, rows, cols, len(batch))
            for j in [j for j, c in enumerate(chi.tolist()) if c in chi_deltas]:
                cand = cur.copy()
                cand[rows[tube == j], cols[tube == j]] = True
                b = betti_numbers(cand)
                if (b.beta0 - cur_b.beta0, b.beta1 - cur_b.beta1) in deltas:
                    attempt, state = batch[j]
                    rng.bit_generator.state = state
                    return (cand, b, tuple(map(tuple, ends[j].tolist()))), attempt
        return None, n
    return edit


def _insert_loops(mask: np.ndarray, n_loops: int, rng: np.random.Generator,
                  params: VesselParams) -> np.ndarray | None:
    """Bridge same-tree branch pairs until exactly n_loops loops exist."""
    cur = mask
    cur_b = betti_numbers(cur)
    h, w = cur.shape
    # spans[|dy| * w + |dx|]: whether two pixels dy rows and dx columns apart
    # may be bridged, 8 px to 0.35 of the shorter side
    d = np.hypot(np.arange(h)[:, None], np.arange(w))
    spans = ((d >= 8) & (d <= 0.35 * min(h, w))).ravel()

    def same_tree(cur, fg):
        # fg[i] pairs with the pixels of its own 8-component at a span
        tree = label_components(cur, 8).labels[fg[:, 0], fg[:, 1]]
        members = [np.flatnonzero(tree == t) for t in range(tree.max() + 1)]
        ys = [fg[m, 0] * w for m in members]
        xs = [fg[m, 1] for m in members]

        def partners_of(i):
            t = tree[i]
            apart = np.abs(ys[t] - fg[i, 0] * w) + np.abs(xs[t] - fg[i, 1])
            return members[t][spans[apart]]
        return partners_of

    bridge = _bridge_edit(same_tree, params.radius_min, {(0, 1)})
    for _ in range(n_loops):
        found, _ = bridge(cur, cur_b, rng, (), 100)
        if found is None:
            return None
        cur, cur_b, _ = found
    return cur


def _render_image(mask: np.ndarray, sigma: float,
                  rng: np.random.Generator) -> GrayImage:
    img = np.full(mask.shape, 0.15, dtype=np.float64)
    img[mask] = 0.85
    if sigma > 0:
        img += rng.normal(0.0, sigma, mask.shape)
    return np.clip(img, 0.0, 1.0)


def generate_vessel(params: VesselParams) -> tuple[GrayImage, BinaryMask, TopologySummary]:
    """Generate one scene with exactly the requested topology.

    Returns the grayscale image (bright vessels on a noisy dark background),
    the ground-truth mask, and its verified topology summary. The summary is
    recomputed from the final mask, so beta0 == n_trees and beta1 == n_loops
    always hold for a returned scene. Attempts whose topology or foreground
    fraction comes out wrong are discarded and regenerated from a fresh
    sub-seed; after 100 failed attempts the parameters are deemed
    unsatisfiable.
    """
    root_ss = np.random.SeedSequence(params.seed)
    for _ in range(_MAX_SCENE_ATTEMPTS):
        # children are numbered by spawn index, so spawning one per attempt
        # gives the same sub-seeds as spawning all of them up front
        scene_ss = root_ss.spawn(1)[0]
        # stream 0: root placement; 1..n_trees: one per tree (indices stay
        # stable when n_trees grows); then loop insertion, then background
        streams = scene_ss.spawn(params.n_trees + 3)
        mask = np.zeros((params.height, params.width), dtype=bool)
        roots = _place_roots(np.random.default_rng(streams[0]), params)
        for t in range(params.n_trees):
            tree_rng = np.random.default_rng(streams[1 + t])
            _grow_tree(mask, tree_rng, params, roots[t],
                       tree_rng.uniform(0.0, 2.0 * math.pi))
        summary = betti_numbers(mask)
        if summary.beta0 != params.n_trees or summary.beta1 != 0:
            continue
        if params.n_loops > 0:
            looped = _insert_loops(mask, params.n_loops,
                                   np.random.default_rng(streams[params.n_trees + 1]),
                                   params)
            if looped is None:
                continue
            mask = looped
        frac = float(mask.mean())
        if not 0.02 <= frac <= 0.4:
            continue
        image = _render_image(mask, params.background_noise_sigma,
                              np.random.default_rng(streams[params.n_trees + 2]))
        return image, mask, betti_numbers(mask)
    raise InvalidParams(
        f"could not realize beta0={params.n_trees}, beta1={params.n_loops} "
        f"within {_MAX_SCENE_ATTEMPTS} attempts; adjust params"
    )


# Squared distance of every pixel of a (2 * cap + 1)^2 window from its
# centre, for the largest half-width _local_halfwidth reports.
_HALFWIDTH_CAP = 6
_WINDOW_D2 = ((np.indices((2 * _HALFWIDTH_CAP + 1,) * 2) - _HALFWIDTH_CAP) ** 2).sum(0)


def _local_halfwidth(mask: np.ndarray, y: int, x: int) -> int:
    """Largest r <= 6 such that the disk of radius r at (y, x) fits in mask.

    The disks are nested, so the nearest in-canvas pixel outside the mask
    decides: radius r fits iff r*r is below its squared distance. Misses in
    the window's corners lie beyond radius 6 and so cannot lower the count.
    """
    cap = _HALFWIDTH_CAP
    y0, x0 = max(y - cap, 0), max(x - cap, 0)
    window = mask[y0:y + cap + 1, x0:x + cap + 1]
    d2 = _WINDOW_D2[y0 - y + cap:, x0 - x + cap:][:window.shape[0], :window.shape[1]]
    nearest = int(d2[~window].min(initial=cap * cap + 1))
    return sum(r * r < nearest for r in range(1, cap + 1))


def _skeleton_tangent(code: int, rng: np.random.Generator) -> tuple[float, float]:
    """Unit direction from the first to the last neighbour in a neighbourhood
    code, whose bits follow ``_OFFS8`` in row-major order: its lowest and its
    highest set bit. With fewer than two neighbours it is drawn from rng."""
    if code & (code - 1):  # two or more neighbours
        ay, ax = _OFFS8[(code & -code).bit_length() - 1]
        by, bx = _OFFS8[code.bit_length() - 1]
        ty, tx = by - ay, bx - ax
        norm = math.hypot(ty, tx)
        return ty / norm, tx / norm
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return math.sin(angle), math.cos(angle)


def _perturb(kind: str, what: str, mask: BinaryMask, k: int, seed: int,
             edit) -> tuple[BinaryMask, PerturbationLog]:
    """Make k edits to mask, each one verified by a Betti recount.

    ``edit(cur, cur_b, rng, sites, budget)`` makes the next edit of ``cur``,
    whose Betti numbers are ``cur_b``, given the sites of the edits made so
    far, in at most ``budget`` attempts. It returns
    ``((mask, betti, new_sites), n)``, or ``(None, n)`` if no attempt passed;
    n is the number of attempts used. All k edits share one budget of
    ``_MAX_SITE_ATTEMPTS`` attempts; the edit that finds it spent raises
    InsufficientStructure. The log holds every edit's sites and the Betti
    deltas of the returned mask against the input.
    """
    cur = as_mask(mask).copy()
    if k == 0:
        return cur, PerturbationLog(kind, (), 0, 0)
    rng = np.random.default_rng(seed)
    base = cur_b = betti_numbers(cur)
    sites: list[tuple[int, int]] = []
    used = 0
    for i in range(k):
        found, n = edit(cur, cur_b, rng, sites, _MAX_SITE_ATTEMPTS - used)
        used += n
        if found is None:
            raise InsufficientStructure(
                f"could not {what} {i + 1} of {k} after {used} attempts")
        cur, cur_b, new_sites = found
        sites.extend(new_sites)
    return cur, PerturbationLog(kind, tuple(sites), cur_b.beta0 - base.beta0,
                                cur_b.beta1 - base.beta1)


def perturb_disconnect(mask: BinaryMask, k: int,
                       seed: int) -> tuple[BinaryMask, PerturbationLog]:
    """Erase k short full-width gaps, each verified to add one component.

    Gaps are 2-5 px long, centered on interior skeleton points, mutually
    non-adjacent. Every cut is accepted only if recomputed Betti numbers
    show beta0 + 1 and unchanged beta1; otherwise another site is tried.
    """
    m = as_mask(mask)
    radius: dict[tuple[int, int], float] = {}

    def widths(cur, y, x, p0, p1, base_rw):
        for rw in (base_rw, base_rw + 1.0):
            _, rows, cols = _tube_pixels(cur.shape, [(p0, p1)], rw)
            cand = cur.copy()
            cand[rows, cols] = False
            # an accepted cut is the last one yielded at its site, and it
            # erases the site, so no later attempt overwrites its radius
            radius[y, x] = rw
            yield cand, ((y, x),)

    def cuts(cur, rng, sites):
        skel = skeletonize(cur)
        codes = _neighbour_codes(skel)
        # skeleton pixels with two or more skeleton neighbours
        interior = np.argwhere(skel & ((codes & (codes - 1)) != 0))
        order = rng.permutation(len(interior))
        # second round relaxes the site-separation pre-filter down to plain
        # non-adjacency; the Betti verification still guards every cut
        for relaxed in (False, True):
            for oi in order:
                y, x = map(int, interior[oi])
                if not cur[y, x]:
                    continue
                base_rw = _local_halfwidth(m, y, x) + 1.0
                if any(math.hypot(y - sy, x - sx)
                       < (3.0 if relaxed else base_rw + radius[sy, sx] + 2.0)
                       for sy, sx in sites):
                    continue
                half = int(rng.integers(2, 6)) / 2.0
                ty, tx = _skeleton_tangent(int(codes[y, x]), rng)
                yield widths(cur, y, x, (y - ty * half, x - tx * half),
                             (y + ty * half, x + tx * half), base_rw)

    return _perturb("disconnect", "place cut", m, k, seed,
                    _verified_edit(cuts, {(1, 0)}))


def perturb_merge(mask: BinaryMask, k: int,
                  seed: int) -> tuple[BinaryMask, PerturbationLog]:
    """Draw k short bridges between nearby branches.

    Each bridge must either fuse two components (beta0 - 1) or close a loop
    (beta1 + 1); the actual verified deltas are recorded in the log.
    """
    def near(cur, fg):
        def partners_of(i):
            d = np.maximum(np.abs(fg[:, 0] - fg[i, 0]), np.abs(fg[:, 1] - fg[i, 1]))
            return np.flatnonzero((d >= 3) & (d <= 6))
        return partners_of

    return _perturb("merge", "place bridge", mask, k, seed,
                    _bridge_edit(near, 1.2, {(-1, 0), (0, 1)}))


def perturb_holes(mask: BinaryMask, k: int,
                  seed: int) -> tuple[BinaryMask, PerturbationLog]:
    """Punch k single-pixel holes in thick regions, each adding one loop."""
    m = as_mask(mask)
    interior = np.argwhere(m & (_neighbour_codes(m) == 255))
    if k and len(interior) == 0:
        raise InsufficientStructure("mask has no interior pixels to puncture")
    # the site order is the only draw, so it is the first of the seed's stream
    order = np.random.default_rng(seed).permutation(len(interior))

    def holes(cur, rng, sites):
        # a punched site is background in cur, so it is never tried again
        for oi in order:
            y, x = map(int, interior[oi])
            if cur[y, x]:
                cand = cur.copy()
                cand[y, x] = False
                yield [(cand, ((y, x),))]

    return _perturb("hole", "punch hole", m, k, seed, _verified_edit(holes, {(0, 1)}))


def perturb_dilate_noise(mask: BinaryMask, seed: int) -> tuple[BinaryMask, PerturbationLog]:
    """Thicken a random subset of the boundary without changing topology.

    Produces a mask that differs from the input but has verified identical
    Betti numbers; used for topology-equivalent 'good' candidates. Falls
    back to smaller subsets when a grown pixel would fuse or close anything.

    Adding a pixel keeps beta0 and beta1 exactly when it is a simple point
    of the mask with it added, so each proposed pixel is decided from its
    neighbourhood code there (off-canvas neighbours are background); one
    recount of the returned mask verifies the whole edit.
    """
    m = as_mask(mask).copy()
    rng = np.random.default_rng(seed)
    base = betti_numbers(m)
    candidates = np.argwhere((_neighbour_codes(m) > 0) & ~m)
    if len(candidates) == 0:
        return m, PerturbationLog("dilate-noise", (), 0, 0)
    # each background pixel next to the mask is proposed with probability 0.35
    chosen = candidates[rng.random(len(candidates)) < 0.35]
    width = m.shape[1] + 2
    grid = np.pad(m, 1).ravel().tolist()
    offsets = [(dy * width + dx, i) for i, (dy, dx) in enumerate(_OFFS8)]
    sites: list[tuple[int, int]] = []
    for y, x in chosen.tolist():
        p = (y + 1) * width + x + 1
        if _SIMPLE[sum(grid[p + o] << i for o, i in offsets)]:
            grid[p] = m[y, x] = True
            sites.append((y, x))
    grown = betti_numbers(m)
    if grown != base:
        raise AssertionError(f"dilate-noise changed the Betti numbers from {base} "
                             f"to {grown}")
    return m, PerturbationLog("dilate-noise", tuple(sites), 0, 0)


_PERTURB_FAMILIES = {
    "disconnect": perturb_disconnect,
    "merge": perturb_merge,
    "hole": perturb_holes,
}


def perturb_first(families, mask: BinaryMask, k: int,
                  seed: int) -> tuple[BinaryMask, PerturbationLog]:
    """Apply the first of the perturbation functions ``families`` that can
    make k edits; raise InsufficientStructure if none can."""
    for perturb in families:
        try:
            return perturb(mask, k, seed)
        except InsufficientStructure:
            continue
    raise InsufficientStructure(f"no perturbation family applicable (k={k})")


def emit_samples(out_dir, params: VesselParams, count: int,
                 n_bad: int = 1, max_k: int = 3) -> str:
    """Write `count` scenes plus perturbed variants and a JSONL manifest.

    Per sample id: ``<id>_img.pgm``, ``<id>_gt.pgm`` and ``<id>_bad<j>.pgm``
    files, with one manifest record per sample carrying the perturbation
    logs. Paths in the manifest are relative to the output directory.
    """
    if not (count >= 0 and n_bad >= 0 and max_k >= 1):
        raise InvalidParams(f"need count >= 0, n_bad >= 0 and max_k >= 1, got "
                            f"count={count}, n_bad={n_bad}, max_k={max_k}")
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    sample_seeds = np.random.SeedSequence(params.seed).spawn(count)
    lines = []
    for i, sample_ss in enumerate(sample_seeds):
        sid = f"{i:05d}"
        seeds = sample_ss.generate_state(2 + n_bad)
        scene_params = VesselParams(**{**asdict(params),
                                       "seed": int(seeds[0])})
        image, gt, summary = generate_vessel(scene_params)
        save_image(image, os.path.join(out_dir, f"{sid}_img.pgm"))
        save_mask(gt, os.path.join(out_dir, f"{sid}_gt.pgm"))
        rng = np.random.default_rng(seeds[1])
        bad_entries = []
        for j in range(n_bad):
            family_order = rng.permutation(sorted(_PERTURB_FAMILIES))
            k = int(rng.integers(1, max_k + 1))
            bad, log = perturb_first([_PERTURB_FAMILIES[f] for f in family_order],
                                     gt, k, int(seeds[2 + j]))
            bad_path = f"{sid}_bad{j}.pgm"
            save_mask(bad, os.path.join(out_dir, bad_path))
            bad_entries.append({
                "path": bad_path,
                "kind": log.kind,
                "sites": [list(s) for s in log.sites],
                "beta0_delta": log.expected_beta0_delta,
                "beta1_delta": log.expected_beta1_delta,
            })
        record = {
            "id": sid,
            "image": f"{sid}_img.pgm",
            "gt": f"{sid}_gt.pgm",
            "betti": {"beta0": summary.beta0, "beta1": summary.beta1},
            "bad": bad_entries,
            "params": asdict(scene_params),
        }
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    write_atomic(manifest_path, "".join(lines).encode("utf-8"))
    return manifest_path
