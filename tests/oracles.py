"""Independent brute-force oracles used to derive expected test values.

These deliberately share no code with the library paths they check:
labeling is a naive recursive flood fill, the Euler characteristic is
counted from explicit vertex/edge/face sets, and loop counts come from
the bounded-background duality. The reference thinner is the plain
pixel-by-pixel sequential scan that ``skeletonize`` must reproduce exactly.
"""

import sys

import numpy as np

sys.setrecursionlimit(100_000)

_OFFS = {
    8: [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)],
    4: [(-1, 0), (0, -1), (0, 1), (1, 0)],
}


def naive_flood_labels(mask, connectivity):
    """Recursive flood fill, first-touched row-major label order."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    labels = np.zeros((h, w), np.int32)
    offs = _OFFS[connectivity]

    def fill(y, x, lab):
        labels[y, x] = lab
        for dy, dx in offs:
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and labels[ny, nx] == 0:
                fill(ny, nx, lab)

    count = 0
    for y in range(h):
        for x in range(w):
            if mask[y, x] and labels[y, x] == 0:
                count += 1
                fill(y, x, count)
    return labels, count


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
    labels, count = naive_flood_labels(~mask, 4)
    border = set(labels[0, :]) | set(labels[-1, :]) | set(labels[:, 0]) | set(labels[:, -1])
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
