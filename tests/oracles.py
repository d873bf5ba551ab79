"""Independent brute-force oracles used to derive expected test values.

These deliberately share no code with the library paths they check:
labeling is a naive flood fill, the beta0 matching error is scipy's
maximum bipartite matching over pixel-level overlaps, the Euler characteristic is
counted from explicit vertex/edge/face sets, and loop counts come from
the bounded-background duality. The simple-point tables come from a
search of each neighbourhood ring's pieces, against which the closed form
of ``topology._build_luts`` is checked. The reference thinner is the plain
pixel-by-pixel sequential scan that ``skeletonize`` must reproduce exactly,
the reference rasteriser stamps one disk per call, as the vectorised
``synth._disk_pixels`` must reproduce exactly, the reference bridge loop
draws, stamps and recounts one bridge at a time, as the batched
``synth._bridge_edit`` must reproduce exactly, the reference dilate-noise
edit recounts after every proposed pixel, as the simple-point test of
``synth.perturb_dilate_noise`` must reproduce exactly, and the reference 3x3
convolution is the einsum form whose bits the matrix products of
``flowgen._conv3``, ``flowgen._conv3_param_grads`` and
``flowgen._conv3_input_grad`` must reproduce. The reference PGM header
tokenizer is the byte-by-byte scanner whose tokens, end positions and
errors the compiled pattern of ``maskio._next_token`` must reproduce.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from vesseltopo.errors import FormatError

_OFFS = {
    8: [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)],
    4: [(-1, 0), (0, -1), (0, 1), (1, 0)],
}


def naive_flood_labels(mask, connectivity):
    """Stack-based flood fill, first-touched row-major label order.

    Works on a flat Python list of the mask framed by one background pixel,
    so that every neighbour index stays in range: scalar reads of numpy
    arrays cost several times more than list indexing, and the exhaustive
    suites call this about 10^5 times.
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    width = w + 2
    framed = np.zeros((h + 2, width), dtype=bool)
    framed[1:-1, 1:-1] = mask
    grid = framed.ravel().tolist()
    labels = [0] * len(grid)
    offs = [dy * width + dx for dy, dx in _OFFS[connectivity]]
    count = 0
    for p in range(len(grid)):
        if grid[p] and not labels[p]:
            count += 1
            labels[p] = count
            stack = [p]
            while stack:
                q = stack.pop()
                for o in offs:
                    r = q + o
                    if grid[r] and not labels[r]:
                        labels[r] = count
                        stack.append(r)
    framed_labels = np.array(labels, dtype=np.int32).reshape(h + 2, width)
    return framed_labels[1:-1, 1:-1], count


def overlap_pairs(pred, gt):
    """Every (pred label, gt label) pair that shares a pixel, read pixel by pixel."""
    lab_p, _ = naive_flood_labels(pred, 8)
    lab_g, _ = naive_flood_labels(gt, 8)
    both = np.asarray(pred, dtype=bool) & np.asarray(gt, dtype=bool)
    return set(zip(lab_p[both].tolist(), lab_g[both].tolist()))


def beta0_matching_error(pred, gt):
    """Components left unmatched by scipy's maximum bipartite matching over
    the pixel-level overlaps of the flood-fill labelings."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    n_p = naive_flood_labels(pred, 8)[1]
    n_g = naive_flood_labels(gt, 8)[1]
    pairs = sorted(overlap_pairs(pred, gt))
    if not pairs:
        return n_p + n_g
    rows, cols = zip(*pairs)
    graph = csr_matrix((np.ones(len(pairs)), (np.array(rows) - 1, np.array(cols) - 1)),
                       shape=(n_p, n_g))
    matched = int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())
    return n_p + n_g - 2 * matched


def brute_cubical_counts(mask):
    """(V, E, F) of the closed cubical complex, counted via explicit sets."""
    verts, edges, faces = set(), set(), set()
    for y, x in np.argwhere(np.asarray(mask, dtype=bool)):
        y, x = int(y), int(x)
        verts |= {(y, x), (y, x + 1), (y + 1, x), (y + 1, x + 1)}
        edges |= {("h", y, x), ("h", y + 1, x), ("v", y, x), ("v", y, x + 1)}
        faces.add((y, x))
    return len(verts), len(edges), len(faces)


def bounded_background_components(mask):
    """4-connected background components that do not touch the image border."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.size:
        return 0
    labels, count = naive_flood_labels(~mask, 4)
    border = set(labels[0].tolist() + labels[-1].tolist()
                 + labels[:, 0].tolist() + labels[:, -1].tolist())
    border.discard(0)
    return count - len(border)


def betti_delta_after_removal(mask, y, x):
    """(d_beta0, d_beta1) caused by deleting one pixel, via the oracles."""
    mask = np.asarray(mask, dtype=bool)
    removed = mask.copy()
    removed[y, x] = False

    def betti(m):
        b0 = naive_flood_labels(m, 8)[1]
        v, e, f = brute_cubical_counts(m)
        return b0, b0 - (v - e + f)

    b0a, b1a = betti(mask)
    b0b, b1b = betti(removed)
    return b0b - b0a, b1b - b1a


def _ring_components(cells, conn8):
    """Connected components of a subset of the 8-neighbour ring."""
    remaining = set(cells)
    comps = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            cy, cx = frontier.pop()
            for oy, ox in list(remaining):
                dy, dx = abs(cy - oy), abs(cx - ox)
                close = (max(dy, dx) == 1) if conn8 else (dy + dx == 1)
                if close:
                    remaining.discard((oy, ox))
                    comp.add((oy, ox))
                    frontier.append((oy, ox))
        comps.append(comp)
    return comps


def simple_point_tables():
    """(simple, deletable) over all 256 neighbourhood codes by ring search.

    A code is simple iff its foreground neighbours form exactly one
    8-connected piece and its background neighbours exactly one 4-connected
    piece touching an edge neighbour; deletable also needs >= 2 foreground
    neighbours. Bit i of a code is neighbour ``_OFFS[8][i]``.
    """
    simple = np.zeros(256, dtype=bool)
    deletable = np.zeros(256, dtype=bool)
    for code in range(256):
        fg = [off for i, off in enumerate(_OFFS[8]) if (code >> i) & 1]
        bg = [off for i, off in enumerate(_OFFS[8]) if not (code >> i) & 1]
        n_fg = len(_ring_components(fg, conn8=True))
        n_bg = sum(1 for comp in _ring_components(bg, conn8=False)
                   if comp & set(_OFFS[4]))
        simple[code] = n_fg == 1 and n_bg == 1
        deletable[code] = simple[code] and len(fg) >= 2
    return simple, deletable


def _code_at(mask, y, x):
    # bit order matches vesseltopo.topology._OFFS8
    h, w = mask.shape
    code = 0
    if y > 0:
        if x > 0 and mask[y - 1, x - 1]:
            code |= 1
        if mask[y - 1, x]:
            code |= 2
        if x < w - 1 and mask[y - 1, x + 1]:
            code |= 4
    if x > 0 and mask[y, x - 1]:
        code |= 8
    if x < w - 1 and mask[y, x + 1]:
        code |= 16
    if y < h - 1:
        if x > 0 and mask[y + 1, x - 1]:
            code |= 32
        if mask[y + 1, x]:
            code |= 64
        if x < w - 1 and mask[y + 1, x + 1]:
            code |= 128
    return code


def _thin_inplace(mask, deletable_lut):
    # Four boundary passes (N, S, E, W) per sweep; candidates are taken from
    # a pass-start snapshot and re-verified against the live mask so that
    # sequential deletions never break topology. Row-major order fixes ties.
    h, w = mask.shape
    dys = (-1, 1, 0, 0)
    dxs = (0, 0, 1, -1)
    changed = True
    while changed:
        changed = False
        for d in range(4):
            dy = dys[d]
            dx = dxs[d]
            snapshot = mask.copy()
            for y in range(h):
                for x in range(w):
                    if not snapshot[y, x]:
                        continue
                    ny = y + dy
                    nx = x + dx
                    if 0 <= ny < h and 0 <= nx < w and snapshot[ny, nx]:
                        continue  # not a boundary pixel in this direction
                    if deletable_lut[_code_at(mask, y, x)]:
                        mask[y, x] = False
                        changed = True


def _stamp_disk(canvas: np.ndarray, cy: float, cx: float, r: float,
                value: bool = True) -> None:
    h, w = canvas.shape
    y0 = max(0, int(math.floor(cy - r)))
    y1 = min(h, int(math.ceil(cy + r)) + 1)
    x0 = max(0, int(math.floor(cx - r)))
    x1 = min(w, int(math.ceil(cx + r)) + 1)
    if y0 >= y1 or x0 >= x1:
        return
    yy = np.arange(y0, y1, dtype=np.float64)[:, None] - cy
    xx = np.arange(x0, x1, dtype=np.float64)[None, :] - cx
    canvas[y0:y1, x0:x1][yy * yy + xx * xx <= r * r] = value


def stamp_tube(canvas, p0, p1, r):
    """One disk of radius r per position along p0 -> p1."""
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    dist = float(np.hypot(*(p1 - p0)))
    n = max(2, int(dist * 2) + 1)
    for t in np.linspace(0.0, 1.0, n):
        pos = p0 + t * (p1 - p0)
        _stamp_disk(canvas, pos[0], pos[1], r)


def bridge_edit(cur, rng, partners, radius, deltas, budget, betti):
    """One bridge, drawn, stamped and recounted one attempt at a time.

    Each attempt draws p among the foreground pixels fg, then q among those
    where ``partners(fg, p)`` holds (if none, the attempt proposes nothing),
    stamps a tube from p to q on a copy of cur and recounts it with
    ``betti``, the one library call here. Returns ``(mask, sites)`` of the
    first tube whose (beta0, beta1) change is in deltas, or None; then the
    attempts used and the tubes proposed.
    """
    fg = np.argwhere(cur)
    base = betti(cur)
    proposed = 0
    for n in range(1, budget + 1):
        p = fg[rng.integers(len(fg))]
        picks = np.nonzero(partners(fg, p))[0]
        if len(picks) == 0:
            continue
        q = fg[picks[rng.integers(len(picks))]]
        proposed += 1
        cand = cur.copy()
        stamp_tube(cand, p, q, radius)
        b = betti(cand)
        if (b.beta0 - base.beta0, b.beta1 - base.beta1) in deltas:
            return (cand, ((int(p[0]), int(p[1])), (int(q[0]), int(q[1])))), n, proposed
    return None, budget, proposed


def insert_loops(mask, n_loops, rng, radius, betti):
    """Loop insertion by ``bridge_edit``: same-tree partners 8 px to 0.35 of
    the shorter side away, 100 attempts a loop. Returns the looped mask, or
    None, and the (attempts, proposals) of each loop tried."""
    cur = mask
    max_span = 0.35 * min(cur.shape)
    used = []
    for _ in range(n_loops):
        labels = naive_flood_labels(cur, 8)[0]

        def same_tree(fg, p, labels=labels):
            d = np.hypot(fg[:, 0] - p[0], fg[:, 1] - p[1])
            same = labels[fg[:, 0], fg[:, 1]] == labels[p[0], p[1]]
            return (d >= 8) & (d <= max_span) & same

        found, n, proposed = bridge_edit(cur, rng, same_tree, radius, {(0, 1)}, 100, betti)
        used.append((n, proposed))
        if found is None:
            return None, used
        cur = found[0]
    return cur, used


def perturb_merge(mask, k, seed, budget, betti):
    """k merges by ``bridge_edit`` sharing one budget: partners 3 to 6 px
    away in the chessboard metric, radius 1.2. Returns (mask, sites, beta0
    delta, beta1 delta), or the message of the edit that ran out of
    attempts; the (attempts, proposals) of each edit tried; and the final
    rng state."""
    def near(fg, p):
        d = np.maximum(np.abs(fg[:, 0] - p[0]), np.abs(fg[:, 1] - p[1]))
        return (d >= 3) & (d <= 6)

    rng = np.random.default_rng(seed)
    cur = np.asarray(mask, dtype=bool).copy()
    base = betti(cur)
    sites = []
    used = []
    for i in range(k):
        found, n, proposed = bridge_edit(cur, rng, near, 1.2, {(-1, 0), (0, 1)},
                                         budget - sum(u[0] for u in used), betti)
        used.append((n, proposed))
        if found is None:
            spent = sum(u[0] for u in used)
            return (f"could not place bridge {i + 1} of {k} after {spent} attempts",
                    used, rng.bit_generator.state)
        cur, new_sites = found
        sites.extend(new_sites)
    b = betti(cur)
    return ((cur, tuple(sites), b.beta0 - base.beta0, b.beta1 - base.beta1),
            used, rng.bit_generator.state)


def dilate_noise(mask, seed, betti):
    """The dilate-noise edit, recounting the whole mask with ``betti`` after
    each proposed pixel: each background pixel with a foreground 8-neighbour
    is proposed with probability 0.35 and kept when the counts are unchanged.
    Returns the mask and the kept sites."""
    m = np.asarray(mask, dtype=bool).copy()
    rng = np.random.default_rng(seed)
    base = betti(m)
    h, w = m.shape
    framed = np.pad(m, 1)
    near = np.zeros_like(m)
    for dy, dx in _OFFS[8]:
        near |= framed[1 + dy:h + 1 + dy, 1 + dx:w + 1 + dx]
    candidates = np.argwhere(near & ~m)
    if len(candidates) == 0:
        return m, ()
    sites = []
    for y, x in candidates[rng.random(len(candidates)) < 0.35].tolist():
        grown = m.copy()
        grown[y, x] = True
        if betti(grown) == base:
            m = grown
            sites.append((y, x))
    return m, tuple(sites)


def local_halfwidth(mask, y, x, cap=6):
    """Largest r <= cap whose disk at (y, x), one full-canvas probe per r, fits."""
    probe = np.zeros_like(mask)
    best = 0
    for r in range(1, cap + 1):
        probe[:] = False
        _stamp_disk(probe, float(y), float(x), float(r))
        if not (probe & ~mask).any():
            best = r
        else:
            break
    return best


def skeleton_tangent(skel, y, x, rng):
    """Unit direction from the first to the last skeleton neighbour of (y, x)
    in a row-major scan of its in-canvas neighbours; drawn from rng with
    fewer than two."""
    neigh = [(dy, dx)
             for dy in (-1, 0, 1) for dx in (-1, 0, 1)
             if (dy or dx)
             and 0 <= y + dy < skel.shape[0] and 0 <= x + dx < skel.shape[1]
             and skel[y + dy, x + dx]]
    if len(neigh) >= 2:
        (ay, ax), (by, bx) = neigh[0], neigh[-1]
        ty, tx = by - ay, bx - ax
        norm = math.hypot(ty, tx)
        if norm > 0:
            return ty / norm, tx / norm
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return math.sin(angle), math.cos(angle)


def einsum_conv3(x, weight, bias):
    """Same-padded 3x3 convolution; returns output and the window view."""
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))
    out = np.einsum("fcij,chwij->fhw", weight, win, optimize=True)
    return out + bias[:, None, None], win


def einsum_conv3_param_grads(win, dout):
    """Weight and bias gradients of ``einsum_conv3``."""
    return np.einsum("fhw,chwij->fcij", dout, win, optimize=True), dout.sum(axis=(1, 2))


def einsum_conv3_input_grad(weight, dout):
    """Input gradient of ``einsum_conv3``."""
    c = weight.shape[1]
    h, w = dout.shape[1:]
    dxp = np.zeros((c, h + 2, w + 2))
    for i in range(3):
        for j in range(3):
            dxp[:, i:i + h, j:j + w] += np.einsum(
                "fc,fhw->chw", weight[:, :, i, j], dout, optimize=True
            )
    return dxp[:, 1:-1, 1:-1]


def next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next whitespace-delimited header token, skipping # comments."""
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c == b"#":
            while pos < n and buf[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError("truncated PGM header")
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace() and buf[pos:pos + 1] != b"#":
        pos += 1
    return buf[start:pos], pos
