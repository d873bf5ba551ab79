"""Digital topology on binary masks.

Connectivity convention: 8-connected foreground, 4-connected background.
This is the standard dual pair and matches the closed cubical complex used
for the Euler characteristic, where corner-touching pixels share a vertex.

* ``label_components``  - deterministic run-forest labeling (4- or 8-conn),
  labels in first-touched row-major order. Run starts and ends come from
  one scan of the row-padded mask; the runs that each run touches in the
  row above, from two binary searches over those endpoints. Each run hangs
  under the first of them, pointer jumping takes every run to its tree's
  top, and a union-find over tree tops alone joins the trees that runs with
  two or more upper neighbours connect; the label image and sizes are
  built from the runs' labels when first read
* ``betti_numbers``     - beta0, beta1 and Euler characteristic chi = V-E+F
  from the same runs and pairs, with no per-run labels: beta0 is trees
  minus joins, chi is runs minus touching run pairs; trees are built and
  joined only when some run touches two or more runs above
* ``euler_characteristic`` - chi alone, by Gray's bit-quad count
* ``count_loops``       - beta1 (equals the number of bounded 4-connected
  background components, the duality used as a test oracle)
* ``beta0_number_error`` / ``beta0_matching_error`` - global and spatially
  matched component-count discrepancies between two masks, by run labels
* ``skeletonize``       - topology-preserving thinning that removes simple
  points from per-pass candidate lists in a fixed row-major order,
  endpoints retained; it keeps an image of every pixel's neighbourhood
  code, built once and updated from each pass's deletions, so a pass reads
  its candidates' codes in one gather, and which earlier neighbours are
  candidates too from at most one more, through one status table per
  direction

All kernels are plain numpy plus short Python loops over the runs that touch
two or more runs above and over thinning candidates; nothing is compiled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .maskio import BinaryMask, as_mask, check_same_shape

# 8-neighbour offsets in row-major order; bit i of a neighbourhood code
# corresponds to _OFFS8[i].
_OFFS8 = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
# The ring of _OFFS8 bits walked from E: E, NE, N, NW, W, SW, S, SE.
_RING = (4, 2, 1, 0, 3, 5, 6, 7)


@dataclass(frozen=True)
class ComponentLabeling:
    """Labels are 1..count in first-touched row-major order; 0 is background.

    The int32 image ``labels`` and the int64 pixel counts ``sizes`` are
    built on first read from the runs and run labels kept here, never from
    the labeled mask.
    """

    count: int
    _shape: tuple[int, int]
    _starts: np.ndarray
    _lengths: np.ndarray
    _run_labels: np.ndarray

    @cached_property
    def labels(self) -> np.ndarray:
        h, w = self._shape
        # +label at each run's start and -label one past its end, summed
        steps = np.zeros(h * (w + 1), dtype=np.int32)
        steps[self._starts] = self._run_labels
        steps[self._starts + self._lengths] = -self._run_labels
        return np.cumsum(steps, out=steps).reshape(h, w + 1)[:, :w].copy()

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.bincount(self._run_labels, self._lengths,
                           minlength=self.count + 1)[1:].astype(np.int64)


@dataclass(frozen=True)
class TopologySummary:
    beta0: int
    beta1: int
    euler: int


def _build_luts() -> tuple[np.ndarray, np.ndarray]:
    """Simple-point and deletability tables over all 256 neighbourhood codes.

    A foreground pixel is simple (deleting it preserves both foreground and
    background topology) iff Yokoi's 8-connectivity number is 1: the sum
    over the edge neighbours k of bk - bk*bk+1*bk+2, where bk is 1 for a
    background neighbour and the ring is walked from E. Deletable
    additionally requires >= 2 foreground neighbours so arc endpoints
    survive thinning.
    """
    bg = 1 - (np.arange(256)[:, None] >> np.array(_RING) & 1)
    turns = bg * bg[:, [1, 2, 3, 4, 5, 6, 7, 0]] * bg[:, [2, 3, 4, 5, 6, 7, 0, 1]]
    simple = (bg - turns)[:, ::2].sum(1) == 1
    return simple, simple & (8 - bg.sum(1) >= 2)


SIMPLE_LUT, _DELETABLE_LUT = _build_luts()


def _build_pass_status(deletable: np.ndarray) -> np.ndarray:
    """Thinning decisions that no earlier deletion in the same pass can change.

    Entry ``early << 8 | code`` describes a candidate whose pass-start
    neighbourhood is ``code`` and whose earlier-visited neighbours in the set
    ``early`` (bits 0-3: NW, N, NE, W) are themselves candidates, so any of
    them may already be gone: 1 if it is deletable whichever of them are
    gone, 0 if it is deletable in no such case, 2 if that depends on which.
    """
    # outcome[s, c]: is code c deletable once the neighbours in s are gone
    outcome = deletable[np.arange(256) & ~np.arange(16)[:, None]]
    status = np.empty((16, 256), dtype=np.uint8)
    for early in range(16):
        rows = outcome[[s for s in range(16) if s & ~early == 0]]
        status[early] = np.where(rows.all(0), 1, np.where(rows.any(0), 2, 0))
    return status.ravel()


_PASS_STATUS = _build_pass_status(_DELETABLE_LUT)

# Gray's bit-quad weights: a 2x2 window read as TL + 2*TR + 4*BL + 8*BR
# adds +1 with one foreground pixel, -1 with three and -2 for a diagonal
# pair; the sum over all windows is 4 * chi for 8-connected foreground.
_QUAD_WEIGHTS = np.array([0, 1, 1, 0, 1, 0, -2, -1, 1, -2, 0, -1, 0, -1, -1, 0])


def _runs(m: np.ndarray, conn8: bool) -> tuple[np.ndarray, ...]:
    """Runs of foreground pixels, and the runs of the row above that each touches.

    Runs are numbered 0..n-1 in row-major order and indexed as a flat
    row-major copy of the mask with one background pixel after every row,
    pixel (y, x) at y * (w + 1) + x, so that no run crosses a row. Returns
    each run's start and length; the first run ``lo[i]`` that run i touches
    in the row above and the number ``n_upper[i]`` it touches there, which
    are consecutive; and the runs that touch two or more.
    """
    h, w = m.shape
    width = w + 1
    buf = np.zeros(h * width + 1, dtype=bool)  # a background pixel in front
    buf[1:].reshape(h, width)[:, :w] = m
    edges = (buf[1:] != buf[:-1]).nonzero()[0]  # starts and ends, alternating
    starts = edges[0::2]
    ends = edges[1::2]  # one past each run's last pixel
    # A run [s, e) touches the runs [s', e') of the row above whose columns
    # overlap its own, e' > s - width and s' < e - width, or under
    # 8-adjacency touch it at a corner too, e' >= s - width and
    # s' <= e - width. Starts and ends are both increasing, so these runs
    # are one index range [lo, hi), and no run of another row falls in it.
    up = edges - width
    if conn8:
        lo = ends.searchsorted(up[0::2], side="left")
        hi = starts.searchsorted(up[1::2], side="right")
    else:
        lo = ends.searchsorted(up[0::2], side="right")
        hi = starts.searchsorted(up[1::2], side="left")
    n_upper = hi - lo
    return starts, ends - starts, lo, n_upper, (n_upper > 1).nonzero()[0]


def _label_runs(lo: np.ndarray, n_upper: np.ndarray, multi: np.ndarray, run: np.ndarray,
                h: int) -> tuple[np.ndarray, dict[int, int], int]:
    """Run-forest labeling, after run-based union-find (Wu, Otoo & Suzuki 2005).

    Takes the upper neighbours of each run from ``_runs``, and ``run`` =
    ``arange(n)``. Each run that touches the row above hangs under the first
    run it touches there, so every link goes up one row and no tree is more
    than h - 1 links deep; ceil(log2(h - 1)) rounds of pointer jumping
    (Shiloach & Vishkin 1982) then take every run to its tree's top, which
    is the tree's smallest run. Only the runs in ``multi``, which touch two
    or more runs above, have further pairs. Each of those may join two
    trees, through a small union-find over tree tops alone that hooks the
    larger top under the smaller, so each component's root is its first run
    in row-major order.

    Returns the top of every run's tree, the component root of every top
    that was hooked under another, and the number of touching pairs other
    than each run's first.
    """
    top = np.where(n_upper, lo, run)
    for _ in range((h - 2).bit_length()):
        top = top[top]
    hooked: dict[int, int] = {}  # a joined top -> a smaller top of its component
    n_extra = 0
    tops, firsts, counts = top.data, lo.data, n_upper.data  # scalar access
    for i in multi.tolist():
        a = tops[i]
        while a in hooked:
            up = hooked[a]
            hooked[a] = hooked.get(up, up)
            a = up
        first = firsts[i]
        for j in range(first + 1, first + counts[i]):
            n_extra += 1
            b = tops[j]
            while b in hooked:
                up = hooked[b]
                hooked[b] = hooked.get(up, up)
                b = up
            if a < b:
                hooked[b] = a
            elif b < a:
                hooked[a] = b
                a = b
    # Every top is hooked under a smaller one, so in increasing order each
    # one's parent already points at its component's root.
    for t in sorted(hooked):
        hooked[t] = hooked.get(hooked[t], hooked[t])
    return top, hooked, n_extra


def _code_image(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask in a two-pixel background frame, flat, and the neighbourhood
    code of every pixel of that frame, in one vector pass.

    The frame's rows are ``m.shape[1] + 4`` long. Bit i of ``c[q]`` is set
    when neighbour ``_OFFS8[i]`` of q is foreground, for every q whose 8
    neighbours lie in the frame: the mask and the inner ring of the frame.
    Rows wrap in the flat layout, but a neighbour across the wrap lies in
    the frame's two background columns.
    """
    h, w = m.shape
    width = w + 4
    f = np.zeros((h + 4) * width, dtype=bool)
    f.reshape(h + 4, width)[2:-2, 2:-2] = m
    # Bits are placed by multiplying 0/1 bytes, which numpy vectorises;
    # its uint8 left shift runs about ten times slower.
    b = f.view(np.uint8)
    # Row triples: bits 0-2 of r[k] are pixels k, k + 1 and k + 2.
    r = b[:-2] | b[1:-1] * 2 | b[2:] * 4
    c = np.zeros_like(b)
    lo, hi = width + 1, b.size - width - 1
    c[lo:hi] = (r[lo - width - 1:hi - width - 1] | b[lo - 1:hi - 1] * 8
                | b[lo + 1:hi + 1] * 16 | r[lo + width - 1:hi + width - 1] * 32)
    return f, c


def _neighbour_codes(m: np.ndarray) -> np.ndarray:
    """``_code_image`` at the mask's own pixels: off-canvas neighbours are 0 bits."""
    h, w = m.shape
    return _code_image(m)[1].reshape(h + 4, w + 4)[2:-2, 2:-2]


def _build_pass_tables(status: np.ndarray) -> list[tuple[int, int, int, int, np.ndarray]]:
    """The N, S, E and W thinning passes as ``(step_bit, dy, dx, extra_mask, table)``.

    A pass's candidates are the foreground pixels whose step-neighbour, bit
    ``step_bit`` of their code, is background. Early bit i says that earlier
    neighbour i (NW, N, NE or W) is a candidate too: foreground, with a
    background step-neighbour. That step-neighbour is the candidate itself,
    which is foreground; another of its neighbours, read from ``code``; or
    a neighbour of the pixel ``(dy, dx)`` from the candidate, read from that
    pixel's code ``extra`` under ``extra_mask``. ``table[extra << 8 | code]``
    is the ``_PASS_STATUS`` entry of those early bits. The S pass reads no
    extra code, and its ``extra_mask`` is 0.
    """
    code = np.arange(256)
    rows = []
    for (sy, sx), (dy, dx) in (((-1, 0), (-1, 0)), ((1, 0), (0, 0)),
                               ((0, 1), (-1, 1)), ((0, -1), (0, -1))):
        extra_mask = 0
        terms = []  # (neighbour bit, step-neighbour bit, read from extra)
        for i, (ny, nx) in enumerate(_OFFS8[:4]):
            ty, tx = ny + sy, nx + sx
            if (ty, tx) == (0, 0):
                continue
            if (ty, tx) in _OFFS8:
                terms.append((i, _OFFS8.index((ty, tx)), False))
            else:
                k = _OFFS8.index((ty - dy, tx - dx))
                extra_mask |= 1 << k
                terms.append((i, k, True))
        extra = np.arange(extra_mask + 1)[:, None]
        early = np.zeros((extra_mask + 1, 256), dtype=np.intp)
        for i, k, from_extra in terms:
            blocked = (extra if from_extra else code) >> k & 1
            early |= (code >> i & 1 & ~blocked) << i
        table = status[early << 8 | code].ravel()
        rows.append((_OFFS8.index((sy, sx)), dy, dx, extra_mask, table))
    return rows


_PASSES = _build_pass_tables(_PASS_STATUS)
_DELETABLE = _DELETABLE_LUT.tolist()

# A pass clears each deleted pixel's bit in its 8 neighbours' codes. One
# np.bitwise_and.at call costs about 6 us plus 20 ns an element; one masked
# write per offset (no index repeats within one offset) about 5 ns an
# element but some 20 us of calls a pass. Measured on a 2-CPU x86 host:
# per-offset writes alone made 4x4 and 16x16 skeletons about 30% slower,
# ufunc.at alone made 512x512 score masks about 30% slower, and switching
# anywhere from 50 to 400 deleted pixels timed the same.
_FEW_DELETED = 200
# Neighbour _OFFS8[i] of a deleted pixel sees it as neighbour 7 - i.
_CLEAR_BITS = np.array([~(128 >> i) & 255 for i in range(8)], dtype=np.uint8)
_CLEAR_LIST = _CLEAR_BITS.tolist()


def _thin_pass(f: np.ndarray, codes: np.ndarray, fg: np.ndarray, width: int,
               offsets: np.ndarray, direction: tuple) -> np.ndarray:
    """One thinning pass over the framed flat mask ``f`` and its ``codes``.

    ``fg`` holds the foreground pixels of ``f``, ``offsets`` the flat
    offsets of ``_OFFS8``, ``direction`` a row of ``_PASSES``. Deletes in
    both ``f`` and ``codes`` and returns the deleted pixels.
    """
    step_bit, dy, dx, extra_mask, table = direction
    cand = fg[(codes[fg] & (1 << step_bit)) == 0]
    code = codes[cand]
    # take() is about 1.5x faster than [] with a uint8 index
    if extra_mask:
        extra = codes[cand + (dy * width + dx)] & extra_mask
        status = table.take(np.left_shift(extra, 8, dtype=np.intp) | code)
    else:
        status = table.take(code)
    gone = cand[status == 1]
    f[gone] = False
    undecided = status == 2
    live = f.view(np.uint8).data  # scalar access to f for the loop
    later = []
    for q, c in zip(cand[undecided].tolist(), code[undecided].tolist()):
        if not live[q - width - 1]:
            c &= ~1
        if not live[q - width]:
            c &= ~2
        if not live[q - width + 1]:
            c &= ~4
        if not live[q - 1]:
            c &= ~8
        if _DELETABLE[c]:
            live[q] = 0
            later.append(q)
    if later:
        gone = np.concatenate((gone, later))
    if gone.size > _FEW_DELETED:
        for o, bits in zip(offsets.tolist(), _CLEAR_LIST):
            codes[gone + o] &= bits
    elif gone.size:
        np.bitwise_and.at(codes, gone[:, None] + offsets, _CLEAR_BITS)
    return gone


def _thin(m: np.ndarray) -> np.ndarray:
    # Sequential thinning: N, S, E and W boundary passes in turn. A pass
    # takes its candidates from the pass-start mask and visits them in
    # row-major order, deleting each one that is deletable in the live
    # mask. Only a candidate's earlier-visited neighbours (NW, N, NE, W) can
    # differ from the pass-start mask, so every decision _PASS_STATUS
    # settles from the pass-start codes is applied at once and the loop
    # visits only the rest.
    #
    # Works on a flat copy with a two-pixel background frame and keeps the
    # code image of _code_image current, so a pass reads its candidates'
    # codes, and the codes its early bits need, by gathers alone. Those
    # reads, and the bits cleared after deletions, reach one pixel past the
    # mask, whose codes need the second frame pixel. Each pass
    # is a function of the mask alone, so once four passes in a row delete
    # nothing, every direction has run on the same unchanged mask and every
    # later pass would delete nothing too.
    h, w = m.shape
    width = w + 4
    f, codes = _code_image(m)
    offsets = np.array([dy * width + dx for dy, dx in _OFFS8])
    fg = np.flatnonzero(f)
    quiet = 0
    for direction in itertools.cycle(_PASSES):
        if _thin_pass(f, codes, fg, width, offsets, direction).size:
            quiet = 0
            fg = fg[f[fg]]
        else:
            quiet += 1
            if quiet == 4:
                break
    return f.reshape(h + 4, width)[2:-2, 2:-2].copy()


def label_components(mask: BinaryMask, connectivity: int) -> ComponentLabeling:
    """Label connected components under 4- or 8-adjacency.

    Horizontal runs form a forest, each hanging under the first run it
    touches in the row above; pointer jumping finds every run's tree top,
    and a union-find over tree tops joins the trees that a run touching two
    or more runs above connects. Components are numbered 1..count in the
    order their first pixel is reached by a row-major scan, which makes
    labelings reproducible.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    m = as_mask(mask)
    starts, lengths, lo, n_upper, multi = _runs(m, connectivity == 8)
    run = np.arange(lengths.size)
    root, hooked, _ = _label_runs(lo, n_upper, multi, run, m.shape[0])
    if hooked:
        root[list(hooked)] = list(hooked.values())
        root = root[root]
    # Number the roots in increasing order; every other run takes the
    # label of its root.
    roots = (root == run).nonzero()[0]
    return ComponentLabeling(roots.size, m.shape, starts, lengths,
                             roots.searchsorted(root, side="right"))


def _quad_codes(m: np.ndarray) -> tuple[np.ndarray, int]:
    """Bit-quad codes of the mask padded by one background pixel, each by its
    window's top-left pixel in the flat padded image, and that image's row
    length. Flat windows that wrap across rows hold only padding, code 0."""
    h, w = m.shape
    width = w + 2
    padded = np.zeros((h + 2, width), dtype=np.uint8)
    padded[1:-1, 1:-1] = m
    flat = padded.ravel()
    pairs = flat[:-1] + 2 * flat[1:]
    return pairs[:-width] + 4 * pairs[width:], width


def euler_characteristic(mask: BinaryMask) -> int:
    """V - E + F of the closed cubical complex covered by foreground pixels.

    Counted with Gray's (1971) bit-quads, coded by ``_quad_codes``.
    """
    quads, _ = _quad_codes(as_mask(mask))
    return int(np.bincount(quads, minlength=16) @ _QUAD_WEIGHTS) // 4


def _euler_deltas(mask: np.ndarray, group: np.ndarray, rows: np.ndarray,
                  cols: np.ndarray, n: int) -> np.ndarray:
    """chi(mask | the pixels of group g) - chi(mask), for each g in 0..n-1.

    ``(group[j], rows[j], cols[j])`` lists the pixels to add; a pixel may be
    listed more than once and may be foreground already. Only the bit-quads
    (2x2 windows) that hold an added pixel can change, so each group's delta
    is summed over those windows alone, weighed before and after as
    ``euler_characteristic`` weighs them.
    """
    code, width = _quad_codes(mask)
    size = (mask.shape[0] + 2) * width
    # one padded canvas per group, one after the other
    key = group * size + (rows + 1) * width + cols + 1
    # A pixel sets bits 1, 2, 4 and 8 (top-left, top-right, bottom-left,
    # bottom-right) of the windows whose top-left pixel is itself and its W,
    # N and NW neighbours. Setting a bit twice, or one that is set in
    # ``before``, changes nothing.
    added = np.zeros(n * size, dtype=np.uint8)
    for bit, off in ((1, 0), (2, 1), (4, width), (8, width + 1)):
        added[key - off] |= bit
    quads = np.flatnonzero(added != 0)  # a bool scan is several times faster
    before = code[quads % size]
    change = _QUAD_WEIGHTS[before | added[quads]] - _QUAD_WEIGHTS[before]
    return np.bincount(quads // size, change, minlength=n).astype(np.int64) // 4


def betti_numbers(mask: BinaryMask) -> TopologySummary:
    """beta0 (8-conn components), beta1 (independent loops) and chi.

    beta1 is derived as beta0 - chi, exact for 8-connected foreground in 2-D.
    Both counts come from the runs and the pairs of touching runs, with no
    per-run labels. In the run forest, where each run hangs under the first
    run it touches in the row above, beta0 is #trees (runs touching nothing
    above) minus the joins of two trees by runs touching two or more above;
    with no such run there is nothing to join, and no forest is built. Each
    run is a closed bar, two runs meet (in one segment or point) only if
    they touch across adjacent rows, and no three runs meet, so by
    inclusion-exclusion chi = #runs - #touching pairs, which equals
    ``euler_characteristic``.
    """
    m = as_mask(mask)
    _, lengths, lo, n_upper, multi = _runs(m, True)
    beta0 = euler = lengths.size - int(np.count_nonzero(n_upper))  # trees
    if multi.size:
        _, hooked, n_extra = _label_runs(lo, n_upper, multi, np.arange(lengths.size),
                                         m.shape[0])
        beta0 -= len(hooked)
        euler -= n_extra
    return TopologySummary(beta0=beta0, beta1=beta0 - euler, euler=euler)


def count_loops(mask: BinaryMask) -> int:
    """Number of independent foreground loops (beta1)."""
    return betti_numbers(mask).beta1


def beta0_number_error(pred: BinaryMask, gt: BinaryMask) -> int:
    """|beta0(pred) - beta0(gt)|, the global component-count discrepancy."""
    p = as_mask(pred)
    g = as_mask(gt)
    check_same_shape(p, g)
    return abs(label_components(p, 8).count - label_components(g, 8).count)


def _overlap_codes(lab_p: ComponentLabeling, lab_g: ComponentLabeling) -> np.ndarray:
    """The distinct codes label_p * (n_g + 1) + label_g over the pixels that
    pred and gt share, in increasing order, where n_g = ``lab_g.count``.

    Pred run i shares pixels with the ``n[i]`` gt runs from ``lo[i]`` on, the
    ones that end after it starts and start before it ends: runs are sorted
    and disjoint, so each bound is one binary search, with no pixel read.
    """
    lo = (lab_g._starts + lab_g._lengths).searchsorted(lab_p._starts, side="right")
    n = lab_g._starts.searchsorted(lab_p._starts + lab_p._lengths) - lo
    in_g = np.arange(n.sum()) + (lo - n.cumsum() + n).repeat(n)
    codes = np.sort(lab_p._run_labels.repeat(n) * (lab_g.count + 1) + lab_g._run_labels[in_g])
    keep = np.ones(codes.size, dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


def beta0_matching_error(pred: BinaryMask, gt: BinaryMask) -> int:
    """Unmatched components under a maximum one-to-one overlap matching.

    Components of pred and gt form a bipartite graph with an edge wherever
    two components share at least one pixel; the error is the number of
    components left unmatched by a maximum-cardinality matching.
    """
    p = as_mask(pred)
    g = as_mask(gt)
    check_same_shape(p, g)
    lab_p = label_components(p, 8)
    lab_g = label_components(g, 8)
    n_p, n_g = lab_p.count, lab_g.count
    if n_p == 0 or n_g == 0:
        return n_p + n_g
    codes = _overlap_codes(lab_p, lab_g)
    adj: list[list[int]] = [[] for _ in range(n_p)]
    for code in codes.tolist():
        adj[code // (n_g + 1) - 1].append(code % (n_g + 1) - 1)

    # Kuhn's augmenting-path search from each pred component, depth-first
    # with an explicit stack so that long alternating chains cannot reach
    # the interpreter's recursion limit.
    match_of_g = [-1] * n_g
    seen_by = [-1] * n_g  # the search that last visited each gt component
    matched = 0
    for root in range(n_p):
        stack = [(root, iter(adj[root]))]
        taken: list[int] = []  # gt component each stack entry moves to
        while stack:
            u, untried = stack[-1]
            for v in untried:
                if seen_by[v] != root:
                    seen_by[v] = root
                    break
            else:
                stack.pop()
                if taken:
                    taken.pop()
                continue
            if match_of_g[v] == -1:
                match_of_g[v] = u
                for (owner, _), moved in zip(stack, taken):
                    match_of_g[moved] = owner
                matched += 1
                break
            taken.append(v)
            stack.append((match_of_g[v], iter(adj[match_of_g[v]])))
    return n_p + n_g - 2 * matched


def skeletonize(mask: BinaryMask) -> BinaryMask:
    """Thin a mask to a 1-pixel-wide skeleton with identical Betti numbers.

    Repeatedly deletes simple points (endpoints excluded) in alternating
    N, S, E, W boundary sub-iterations until no pixel changes. Each
    sub-iteration lists its candidates from the mask at its start and
    deletes them one at a time in row-major order, re-checking each against
    the deletions already made, so the result is fully determined. It is
    always a subset of the input.
    """
    return _thin(as_mask(mask))

