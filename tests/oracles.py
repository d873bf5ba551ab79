"""Independent brute-force oracles used to derive expected test values.

These deliberately share no code with the library paths they check:
labeling is a naive flood fill, the Euler characteristic is
counted from explicit vertex/edge/face sets, and loop counts come from
the bounded-background duality. The reference thinner is the plain
pixel-by-pixel sequential scan that ``skeletonize`` must reproduce exactly,
the reference rasteriser stamps one disk per call, as the vectorised
``synth._disk_pixels`` must reproduce exactly, and the reference 3x3
convolution is the einsum form whose bits the matrix products of
``flowgen._conv3`` and ``flowgen._conv3_backward`` must reproduce.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def stamp_tube(canvas, p0, p1, r0, r1):
    """One disk per position along p0 -> p1 (radii lerped)."""
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    dist = float(np.hypot(*(p1 - p0)))
    n = max(2, int(dist * 2) + 1)
    for t in np.linspace(0.0, 1.0, n):
        pos = p0 + t * (p1 - p0)
        _stamp_disk(canvas, pos[0], pos[1], r0 + t * (r1 - r0))


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


def einsum_conv3(x, weight, bias):
    """Same-padded 3x3 convolution; returns output and the window view."""
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))
    out = np.einsum("fcij,chwij->fhw", weight, win, optimize=True)
    return out + bias[:, None, None], win


def einsum_conv3_backward(weight, win, dout, in_shape):
    """Weight, bias and input gradients of ``einsum_conv3``."""
    d_weight = np.einsum("fhw,chwij->fcij", dout, win, optimize=True)
    d_bias = dout.sum(axis=(1, 2))
    c, h, w = in_shape
    dxp = np.zeros((c, h + 2, w + 2))
    for i in range(3):
        for j in range(3):
            dxp[:, i:i + h, j:j + w] += np.einsum(
                "fc,fhw->chw", weight[:, :, i, j], dout, optimize=True
            )
    return d_weight, d_bias, dxp[:, 1:-1, 1:-1]
