import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vesseltopo import topology
from vesseltopo.errors import DimensionMismatch
from vesseltopo.synth import VesselParams, generate_vessel
from vesseltopo.topology import (
    _DELETABLE_LUT,
    _FEW_DELETED,
    _OFFS8,
    _PASS_STATUS,
    _PASSES,
    _code_image,
    _neighbour_codes,
    _thin_pass,
    SIMPLE_LUT,
    TopologySummary,
    beta0_matching_error,
    beta0_number_error,
    betti_numbers,
    count_loops,
    euler_characteristic,
    is_simple_point,
    label_components,
    skeletonize,
)

from tests.oracles import (
    _code_at,
    _stamp_disk,
    _thin_inplace,
    beta0_matching_error as oracle_matching_error,
    betti_delta_after_removal,
    bounded_background_components,
    brute_cubical_counts,
    naive_flood_labels,
    overlap_pairs,
    simple_point_tables,
)

masks_strategy = hnp.arrays(bool, st.tuples(st.integers(1, 10), st.integers(1, 10)))


# ------------------------------ labeling --------------------------------- #

def test_label_empty():
    lab = label_components(np.zeros((3, 3), dtype=bool), 8)
    assert lab.count == 0
    assert not lab.labels.any()
    assert lab.sizes.size == 0


def test_label_diagonal_pixels():
    m = np.zeros((2, 2), dtype=bool)
    m[0, 0] = m[1, 1] = True
    assert label_components(m, 8).count == 1
    assert label_components(m, 4).count == 2


def test_label_full():
    assert label_components(np.ones((5, 7), dtype=bool), 8).count == 1


def test_label_order_is_row_major_first_touch():
    m = np.array([
        [0, 1, 0, 1],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
    ], dtype=bool)
    lab = label_components(m, 4)
    assert lab.count == 3
    assert lab.labels[0, 1] == 1
    assert lab.labels[0, 3] == lab.labels[1, 3] == 2
    assert lab.labels[2, 0] == 3
    assert list(lab.sizes) == [1, 2, 1]


def test_label_invalid_connectivity():
    with pytest.raises(ValueError):
        label_components(np.ones((2, 2), dtype=bool), 6)


def test_label_matches_oracle_exhaustive_3x3():
    bits = np.arange(9)
    for code in range(512):
        _agrees_with_oracles(((code >> bits) & 1).astype(bool).reshape(3, 3))


def test_labels_ignore_later_edits_of_the_mask():
    m = np.random.default_rng(22).random((9, 14)) < 0.5
    ref_labels, ref_count = naive_flood_labels(m, 8)
    lab = label_components(m, 8)
    m[:] = ~m  # bool input is labeled in place, not copied
    assert np.array_equal(lab.labels, ref_labels)
    assert lab.sizes.tolist() == np.bincount(
        ref_labels.ravel(), minlength=ref_count + 1)[1:].tolist()


def test_label_matches_oracle_random_8x8():
    rng = np.random.default_rng(12)
    for _ in range(200):
        _agrees_with_oracles(rng.random((8, 8)) < rng.uniform(0.2, 0.8))


def _staircase(n, step, width):
    """Horizontal bars of ``width`` pixels, each starting ``step`` columns
    right of the bar above: with step == width consecutive bars meet only at
    a corner, with step == width + 1 they do not touch at all."""
    m = np.zeros((n, step * (n - 1) + width), dtype=bool)
    for i in range(n):
        m[i, step * i:step * i + width] = True
    return m


def _agrees_with_oracles(m):
    """Labels at both connectivities and all three Betti counts, each against
    an oracle that shares no code with the run-pair finder. The label image
    and sizes are built from the labeling's runs on first read, so their
    dtypes and the image's C-contiguous (H, W) layout are checked too."""
    for conn in (4, 8):
        lab = label_components(m, conn)
        ref_labels, ref_count = naive_flood_labels(m, conn)
        assert lab.labels.dtype == np.int32 and lab.sizes.dtype == np.int64
        assert lab.labels.flags.c_contiguous
        assert lab.count == ref_count, conn
        assert np.array_equal(lab.labels, ref_labels), conn
        assert lab.sizes.tolist() == np.bincount(
            ref_labels.ravel(), minlength=ref_count + 1)[1:].tolist()
    s = betti_numbers(m)
    assert s.beta0 == naive_flood_labels(m, 8)[1]
    assert s.beta1 == bounded_background_components(m)
    assert s.euler == s.beta0 - s.beta1


def _last_column_runs(h, w, shift):
    """Even rows hold a run over the last 3 columns; odd rows a run over the
    first 2 and one over the last 1 + ``shift``. In a flat row-major layout a
    run ending in the last column abuts one starting in the first column of
    the next row, which it must not touch."""
    m = np.zeros((h, w), dtype=bool)
    m[0::2, w - 3:] = True
    m[1::2, :2] = True
    m[1::2, w - 1 - shift:] = True
    return m


def _tall_loop(h):
    """Two 1-pixel columns of height ``h``, two apart and closed into a loop
    by bars on the top and bottom rows, beside a lone pixel at the top right.
    The bottom bar hangs h - 1 links below the top one in the run forest and
    closes the loop, so a tree top left unresolved shows as a second
    component or as a run labelled like the lone pixel."""
    m = np.zeros((h, 5), dtype=bool)
    m[:, [0, 2]] = True
    m[[0, -1], :3] = True
    m[0, 4] = True
    return m


def _comb(teeth):
    """1-pixel teeth on every other column, whose tops lie on rows 0-4 in a
    scrambled order, all touching one bar along the bottom row."""
    m = np.zeros((6, 2 * teeth - 1), dtype=bool)
    for i in range(teeth):
        m[(3 * i) % 5:, 2 * i] = True
    m[-1] = True
    return m


def _art(*rows):
    return np.array([[c == "#" for c in row] for row in rows], dtype=bool)


# Under 8-adjacency each valley run touches two runs above that belong to
# trees with different tops. In the M the right peak is the higher one, so
# the valley's first upper neighbour has the larger top; in the W the left
# peak is the highest, so it has the smaller.
_M = _art(".......#",
          "#.....##",
          "##...#.#",
          "#.#.#..#",
          "#..#...#",
          "#......#")
_W = _art("#.........",
          "#...#.....",
          "#...#...#.",
          ".#.#.#.#..",
          "..#...#...")


@pytest.mark.parametrize("name, m", [
    ("empty", np.zeros((5, 7), dtype=bool)),
    ("full", np.ones((6, 4), dtype=bool)),
    ("row", np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1]], dtype=bool)),
    ("column", np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1]], dtype=bool).T),
    ("single", np.ones((1, 1), dtype=bool)),
    ("checkerboard", (np.add.outer(np.arange(7), np.arange(9)) % 2).astype(bool)),
    ("staircase down-right", _staircase(6, 3, 3)),
    ("staircase down-left", _staircase(6, 3, 3)[:, ::-1]),
    ("staircase apart", _staircase(6, 4, 3)),
    ("staircase 1px", np.eye(7, dtype=bool)[:, ::-1]),
    ("0xN", np.zeros((0, 9), dtype=bool)),
    ("Nx0", np.zeros((9, 0), dtype=bool)),
    ("0x0", np.zeros((0, 0), dtype=bool)),
    ("full row", np.ones((1, 17), dtype=bool)),
    ("full column", np.ones((17, 1), dtype=bool)),
    ("full large", np.ones((33, 40), dtype=bool)),
    ("last column", _last_column_runs(7, 6, 0)),
    ("last column two wide", _last_column_runs(7, 6, 1)),
    ("last column narrow", _last_column_runs(8, 3, 0)),
    ("staircase to the edge", _staircase(5, 2, 2)[:, ::-1]),
    *[(f"column loop of height {h}", _tall_loop(h))
      for k in range(1, 10) for h in (2 ** k + 1, 2 ** k + 2)],
    ("comb", _comb(9)),
    ("M", _M),
    ("W", _W),
])
def test_label_edge_cases_match_oracle(name, m):
    _agrees_with_oracles(m)
    _agrees_with_oracles(m[::-1])


def test_run_pairs_match_oracles_on_large_random_masks():
    rng = np.random.default_rng(7)
    for h, w in ((300, 257), (257, 300), (1, 300), (300, 1), (64, 129)):
        _agrees_with_oracles(rng.random((h, w)) < rng.uniform(0.2, 0.8))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hnp.arrays(bool, st.tuples(st.integers(0, 12), st.integers(0, 12))))
def test_run_pairs_match_oracles_property(m):
    _agrees_with_oracles(m)


# --------------------------- Betti numbers ------------------------------- #

def test_betti_empty():
    assert betti_numbers(np.zeros((4, 4), dtype=bool)) == TopologySummary(0, 0, 0)


def test_betti_3x3_ring():
    m = np.ones((3, 3), dtype=bool)
    m[1, 1] = False
    # brute cubical count: V=16, E=24, F=8
    assert brute_cubical_counts(m) == (16, 24, 8)
    s = betti_numbers(m)
    assert (s.beta0, s.beta1, s.euler) == (1, 1, 0)


def test_betti_single_pixel():
    s = betti_numbers(np.ones((1, 1), dtype=bool))
    assert (s.beta0, s.beta1, s.euler) == (1, 0, 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(masks_strategy)
def test_euler_consistency_property(m):
    s = betti_numbers(m)
    v, e, f = brute_cubical_counts(m)
    assert s.euler == v - e + f == euler_characteristic(m)
    assert s.beta0 - s.beta1 == s.euler
    assert s.beta0 >= 0 and s.beta1 >= 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(masks_strategy)
def test_background_duality_property(m):
    assert betti_numbers(m).beta1 == bounded_background_components(m)


def test_count_loops(tree_mask, ring_mask):
    assert count_loops(tree_mask) == 0
    assert count_loops(ring_mask) == 1
    assert bounded_background_components(ring_mask) == 1
    two = np.zeros((7, 15), dtype=bool)
    two[1:6, 1:6] = True
    two[2:5, 2:5] = False
    two[1:6, 8:13] = True
    two[2:5, 9:12] = False
    assert count_loops(two) == 2
    assert bounded_background_components(two) == 2


# ----------------------------- beta0 errors ------------------------------ #

def test_beta0_number_error_examples(ring_mask):
    assert beta0_number_error(ring_mask, ring_mask) == 0
    three = np.zeros((1, 5), dtype=bool)
    three[0, ::2] = True
    one = np.ones((1, 5), dtype=bool)
    assert beta0_number_error(three, one) == 2
    assert beta0_number_error(one, three) == 2


def test_beta0_number_error_shape_check():
    with pytest.raises(DimensionMismatch):
        beta0_number_error(np.ones((2, 2), dtype=bool), np.ones((2, 3), dtype=bool))


def test_beta0_matching_error_examples():
    a = np.ones((3, 3), dtype=bool)
    assert beta0_matching_error(a, a) == 0

    # one pred component overlapping both gt components: 1 + 2 - 2*1 = 1
    pred = np.zeros((1, 5), dtype=bool)
    pred[0, :] = True
    gt = np.zeros((1, 5), dtype=bool)
    gt[0, 0] = gt[0, 4] = True
    assert beta0_matching_error(pred, gt) == 1
    assert beta0_matching_error(gt, pred) == 1

    # disjoint single components: no edges, 1 + 1 - 0 = 2
    p = np.zeros((2, 2), dtype=bool)
    p[0, 0] = True
    g = np.zeros((2, 2), dtype=bool)
    g[1, 1] = True
    assert beta0_matching_error(p, g) == 2


def test_matching_error_zero_implies_equal_counts():
    rng = np.random.default_rng(5)
    for _ in range(300):
        p = rng.random((9, 9)) < rng.uniform(0.2, 0.8)
        g = rng.random((9, 9)) < rng.uniform(0.2, 0.8)
        assert beta0_matching_error(p, g) == beta0_matching_error(g, p)
        assert beta0_number_error(p, g) == beta0_number_error(g, p)
        if beta0_matching_error(p, g) == 0:
            assert betti_numbers(p).beta0 == betti_numbers(g).beta0


def test_matching_error_long_alternating_chain():
    # 1,500 components per side in a chain: pred component i overlaps gt
    # components i - 1 and i. The leftmost pred component is labeled last,
    # so its augmenting path runs through the whole chain.
    n = 1500
    pred = np.zeros((12, 6 * n + 1), dtype=bool)
    gt = np.zeros_like(pred)
    for i in range(n):
        pred[5, 6 * i:6 * i + 4] = True
        gt[5, 6 * i + 3:6 * i + 7] = True
        if i:
            pred[:5, 6 * i] = True
    assert label_components(pred, 8).count == label_components(gt, 8).count == n
    assert beta0_matching_error(pred, gt) == 0
    assert beta0_matching_error(gt, pred) == 0
    gt[5, 3:7] = False  # drop gt component 0: exactly one pred is left over
    assert beta0_matching_error(pred, gt) == 1


_mask_pairs = st.tuples(st.integers(0, 12), st.integers(0, 12)).flatmap(
    lambda shape: st.tuples(hnp.arrays(bool, shape), hnp.arrays(bool, shape)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mask_pairs)
@example((np.zeros((0, 5), bool), np.zeros((0, 5), bool)))
@example((np.zeros((3, 0), bool), np.zeros((3, 0), bool)))
@example((np.ones((1, 1), bool), np.ones((1, 1), bool)))
@example((np.ones((1, 1), bool), np.zeros((1, 1), bool)))
@example((np.ones((4, 9), bool), np.ones((4, 9), bool)))
@example((np.ones((7, 3), bool), np.eye(7, 3, dtype=bool) | np.eye(7, 3, -4, dtype=bool)))
@example((np.random.default_rng(3).random((12, 5)) < 0.6,
          np.random.default_rng(4).random((12, 5)) < 0.6))
def test_matching_error_matches_bipartite_oracle_property(pair):
    pred, gt = pair
    assert beta0_matching_error(pred, gt) == oracle_matching_error(pred, gt)
    lab_p, lab_g = label_components(pred, 8), label_components(gt, 8)
    codes = topology._overlap_codes(lab_p, lab_g)
    assert (np.diff(codes) > 0).all()
    got = {divmod(code, lab_g.count + 1) for code in codes.tolist()}
    assert got == overlap_pairs(pred, gt)


def _overlap_cases():
    rng = np.random.default_rng(23)
    row_p, row_g = rng.random((1, 40)) < 0.6, rng.random((1, 40)) < 0.6
    stripes = np.zeros((6, 7), dtype=bool)
    stripes[0::2] = True
    return {
        "1xN": (row_p, row_g),
        "Nx1": (row_p.T.copy(), row_g.T.copy()),
        "1xN full against runs": (np.ones((1, 40), bool), row_g),
        "empty": (np.zeros((4, 5), bool), np.zeros((4, 5), bool)),
        "empty pred": (np.zeros((4, 5), bool), np.ones((4, 5), bool)),
        "full": (np.ones((4, 5), bool), np.ones((4, 5), bool)),
        "disjoint": (stripes, ~stripes),
        "random": (rng.random((11, 13)) < 0.5, rng.random((11, 13)) < 0.5),
    }


@pytest.mark.parametrize("case", sorted(_overlap_cases()))
def test_overlap_codes_find_the_runs_of_both_labelings(case):
    # each pred run finds the gt runs it overlaps by binary search over their
    # ends and starts; compared with the pairs read pixel by pixel
    pred, gt = _overlap_cases()[case]
    lab_p, lab_g = label_components(pred, 8), label_components(gt, 8)
    codes = topology._overlap_codes(lab_p, lab_g)
    assert (np.diff(codes) > 0).all()
    assert {divmod(c, lab_g.count + 1) for c in codes.tolist()} == overlap_pairs(pred, gt)


def test_beta0_errors_never_fill_a_label_image(monkeypatch):
    def filled(self):
        raise AssertionError("a beta0 error read a label image or sizes")
    monkeypatch.setattr(topology.ComponentLabeling, "labels", property(filled))
    monkeypatch.setattr(topology.ComponentLabeling, "sizes", property(filled))
    for pred, gt in _overlap_cases().values():
        assert beta0_number_error(pred, gt) == abs(
            naive_flood_labels(pred, 8)[1] - naive_flood_labels(gt, 8)[1])
        assert beta0_matching_error(pred, gt) == oracle_matching_error(pred, gt)


def test_matching_error_empty_sides():
    empty = np.zeros((3, 3), dtype=bool)
    full = np.ones((3, 3), dtype=bool)
    assert beta0_matching_error(empty, empty) == 0
    assert beta0_matching_error(empty, full) == 1


# ----------------------------- skeletonize ------------------------------- #

def test_skeleton_path_unchanged():
    m = np.zeros((3, 9), dtype=bool)
    m[1, 1:8] = True
    assert np.array_equal(skeletonize(m), m)
    diag = np.eye(6, dtype=bool)
    assert np.array_equal(skeletonize(diag), diag)


def test_skeleton_solid_square():
    m = np.ones((5, 5), dtype=bool)
    skel = skeletonize(m)
    assert skel.any()
    assert (skel <= m).all()
    s = betti_numbers(skel)
    assert (s.beta0, s.beta1) == (1, 0)


def test_skeleton_empty():
    m = np.zeros((4, 4), dtype=bool)
    assert not skeletonize(m).any()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(masks_strategy)
def test_skeleton_preserves_topology_property(m):
    skel = skeletonize(m)
    assert (skel <= m).all()
    assert betti_numbers(skel) == betti_numbers(m)


def test_skeleton_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = rng.random((12, 12)) < 0.6
        skel = skeletonize(m)
        assert np.array_equal(skeletonize(skel), skel)


def _early_bits(m, y, x, sy, sx):
    # Early bit i: neighbour i (NW, N, NE, W) of (y, x) is a candidate of
    # the pass of step (sy, sx), i.e. foreground with a background step-
    # neighbour, off-canvas counting as background.
    def fg(yy, xx):
        return 0 <= yy < m.shape[0] and 0 <= xx < m.shape[1] and bool(m[yy, xx])

    return sum(1 << i for i, (dy, dx) in enumerate(_OFFS8[:4])
               if fg(y + dy, x + dx) and not fg(y + dy + sy, x + dx + sx))


def test_code_image_and_pass_tables_match_brute_force():
    # Runs the passes of _thin one at a time. Before every pass the kept
    # code image must equal _code_at at every pixel a pass can read it (the
    # mask and a one-pixel ring around it), and each candidate's table
    # status must be _PASS_STATUS at its brute-force early bits. Wrong early
    # bits that only over-report slow thinning down without changing its
    # output, so they are checked here directly.
    rng = np.random.default_rng(29)
    for _ in range(60):
        h, w = rng.integers(1, 11, size=2)
        m = rng.random((h, w)) < rng.uniform(0.3, 0.9)
        width = w + 4
        f, codes = _code_image(m)
        framed = f.reshape(h + 4, width)
        offsets = np.array([dy * width + dx for dy, dx in _OFFS8])
        ringed = framed[1:-1, 1:-1]  # a live view of the mask and the ring
        quiet = 0
        for direction in itertools.cycle(_PASSES):
            assert codes.reshape(h + 4, width)[1:-1, 1:-1].tolist() == [
                [_code_at(ringed, y, x) for x in range(w + 2)] for y in range(h + 2)]
            step_bit, dy, dx, extra_mask, table = direction
            sy, sx = _OFFS8[step_bit]
            for y, x in np.argwhere(ringed).tolist():
                if ringed[y + sy, x + sx]:
                    continue  # not a candidate of this pass
                q = (y + 1) * width + x + 1
                code = _code_at(ringed, y, x)
                extra = int(codes[q + dy * width + dx]) & extra_mask
                early = _early_bits(ringed, y, x, sy, sx)
                assert table[extra << 8 | code] == _PASS_STATUS[early << 8 | code]
            before = f.copy()
            gone = _thin_pass(f, codes, np.flatnonzero(f), width, offsets, direction)
            assert sorted(gone.tolist()) == np.flatnonzero(before & ~f).tolist()
            quiet = 0 if gone.size else quiet + 1
            if quiet == 4:
                break
        assert np.array_equal(framed[2:-2, 2:-2], _reference_skeleton(m))


def test_neighbour_codes_match_brute_force():
    # Random masks of every density, and single rows and columns, where
    # every pixel lies on an edge and off-canvas neighbours must read as
    # background.
    rng = np.random.default_rng(67)
    shapes = [tuple(rng.integers(1, 13, size=2)) for _ in range(60)]
    shapes += [(1, n) for n in range(1, 12)] + [(n, 1) for n in range(1, 12)]
    for h, w in shapes:
        for density in (0.0, rng.uniform(0.2, 0.8), 1.0):
            m = rng.random((h, w)) < density
            codes = _neighbour_codes(m)
            assert codes.shape == (h, w) and codes.dtype == np.uint8
            assert codes.tolist() == [[_code_at(m, y, x) for x in range(w)]
                                      for y in range(h)], (h, w, density)


def test_pass_tables_match_brute_force_on_every_neighbourhood():
    # Every assignment of the pixels a pass's table reads, the candidate's
    # 3x3 and the 3x3 of its extra code, in a 5x5 patch whose other pixels
    # are random: the candidate is foreground and its step-neighbour not.
    rng = np.random.default_rng(53)
    for step_bit, dy, dx, extra_mask, table in _PASSES:
        sy, sx = _OFFS8[step_bit]
        free = sorted({(2 + oy + ay, 2 + ox + ax) for oy, ox in ((0, 0), (dy, dx))
                       for ay in (-1, 0, 1) for ax in (-1, 0, 1)}
                      - {(2, 2), (2 + sy, 2 + sx)})
        for bits in range(1 << len(free)):
            patch = rng.random((5, 5)) < 0.5
            patch[2, 2], patch[2 + sy, 2 + sx] = True, False
            for j, (y, x) in enumerate(free):
                patch[y, x] = bits >> j & 1
            code = _code_at(patch, 2, 2)
            extra = _code_at(patch, 2 + dy, 2 + dx) & extra_mask
            early = _early_bits(patch, 2, 2, sy, sx)
            assert table[extra << 8 | code] == _PASS_STATUS[early << 8 | code]


def _reference_skeleton(m):
    ref = np.array(m, dtype=bool)
    _thin_inplace(ref, _DELETABLE_LUT)
    return ref


def _assert_skeleton_matches_reference(m):
    skel = skeletonize(m)
    assert skel.dtype == np.bool_ and skel.shape == m.shape
    assert np.array_equal(skel, _reference_skeleton(m))


def test_skeleton_matches_reference_exhaustive_3x3():
    bits = np.arange(9)
    for code in range(512):
        _assert_skeleton_matches_reference(((code >> bits) & 1).astype(bool).reshape(3, 3))


def test_skeleton_matches_reference_random_strips_and_squares():
    for shape in ((0, 5), (5, 0), (1, 1)):
        _assert_skeleton_matches_reference(np.zeros(shape, dtype=bool))
        _assert_skeleton_matches_reference(np.ones(shape, dtype=bool))
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        row = rng.random((1, n)) < rng.uniform(0.3, 0.9)
        _assert_skeleton_matches_reference(row)
        _assert_skeleton_matches_reference(row.T)
    for _ in range(100):
        _assert_skeleton_matches_reference(rng.random((16, 16)) < rng.uniform(0.3, 0.9))


def test_skeleton_matches_reference_on_vessel_scenes():
    scenes = [VesselParams(width=side, height=side, n_trees=1 + i % 2,
                           n_loops=i % 3, radius_root=(2.0, 2.4)[i % 2],
                           seed=4200 + i)
              for i, side in enumerate((48, 64, 80, 96))]
    scenes.append(VesselParams(width=256, height=256, radius_root=3.7, seed=0))
    for params in scenes:
        _, mask, _ = generate_vessel(params)
        _assert_skeleton_matches_reference(mask)


def test_skeleton_matches_reference_at_the_canvas_border():
    # Foreground on rows 0 and h-1 and columns 0 and w-1: the pass-start
    # probes of such pixels' neighbours reach two pixels past the mask,
    # beyond the one-pixel frame, and negative flat indices wrap around.
    rng = np.random.default_rng(37)
    for h, w in ((2, 2), (3, 8), (12, 12), (17, 9), (7, 53), (53, 7)):
        _assert_skeleton_matches_reference(np.ones((h, w), dtype=bool))
        for _ in range(8):
            m = rng.random((h, w)) < rng.uniform(0.4, 0.95)
            m[[0, -1], :] |= rng.random((2, w)) < 0.8
            m[:, [0, -1]] |= rng.random((h, 2)) < 0.8
            m[[0, 0, -1, -1], [0, -1, 0, -1]] = True
            _assert_skeleton_matches_reference(m)


def test_skeleton_matches_reference_on_thick_blobs():
    # Disks of radius 4-10 thin over many sweeps, and most candidates of a
    # pass have earlier neighbours that are candidates too.
    rng = np.random.default_rng(43)
    for _ in range(12):
        side = int(rng.integers(24, 65))
        m = np.zeros((side, side), dtype=bool)
        for _ in range(int(rng.integers(1, 4))):
            cy, cx = rng.uniform(0, side, size=2)
            _stamp_disk(m, cy, cx, rng.uniform(4.0, 10.0))
        _assert_skeleton_matches_reference(m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hnp.arrays(bool, st.tuples(st.integers(0, 12), st.integers(0, 12))))
def test_skeleton_matches_reference_property(m):
    _assert_skeleton_matches_reference(m)


def test_skeleton_matches_reference_across_both_code_updates(monkeypatch):
    # A solid 40x300 bar and a dense random 64x64 mask: their first passes
    # delete more than _FEW_DELETED pixels each and their later passes
    # fewer, so the kept codes are updated both by per-offset writes and by
    # np.bitwise_and.at. After every pass they must equal the codes built
    # afresh from the mask.
    deleted = []

    def checked_pass(f, codes, fg, width, offsets, direction):
        gone = _thin_pass(f, codes, fg, width, offsets, direction)
        assert np.array_equal(codes, _code_image(f.reshape(-1, width)[2:-2, 2:-2])[1])
        deleted.append(gone.size)
        return gone

    monkeypatch.setattr(topology, "_thin_pass", checked_pass)
    bar = np.zeros((44, 304), dtype=bool)
    bar[2:42, 2:302] = True
    for m in (bar, np.random.default_rng(61).random((64, 64)) < 0.8):
        deleted.clear()
        _assert_skeleton_matches_reference(m)
        assert max(deleted) > _FEW_DELETED
        assert any(0 < n <= _FEW_DELETED for n in deleted)


def test_skeleton_matches_reference_with_deletions_in_the_last_column():
    # Thick foreground against the right edge, at widths that are not
    # multiples of 8: the deleted pixels' neighbours there lie in the frame
    # and, in the flat layout, beside the first column of the next row.
    rng = np.random.default_rng(59)
    for w in (3, 5, 9, 13, 21, 30, 37):
        for _ in range(4):
            m = rng.random((int(rng.integers(4, 20)), w)) < 0.5
            m[:, -3:] = True
            skel = skeletonize(m)
            assert (m[:, -1] & ~skel[:, -1]).any()
            _assert_skeleton_matches_reference(m)


# --------------------------- simple points ------------------------------- #

def test_simple_lut_against_betti_delta_oracle():
    # local simplicity must coincide with "deleting the pixel leaves both
    # Betti numbers unchanged", checked by brute force; and adding a
    # background pixel must keep both exactly when it is simple in the mask
    # with it added. Half the added pixels lie on the canvas border, where
    # off-canvas neighbours count as background.
    rng = np.random.default_rng(9)
    checked = added = 0
    while checked < 400:
        m = rng.random((6, 6)) < rng.uniform(0.3, 0.8)
        fg = np.argwhere(m)
        if len(fg) == 0:
            continue
        y, x = fg[rng.integers(len(fg))]
        db0, db1 = betti_delta_after_removal(m, int(y), int(x))
        assert is_simple_point(m, int(y), int(x)) == (db0 == 0 and db1 == 0)
        checked += 1
    border = np.ones((6, 6), dtype=bool)
    border[1:-1, 1:-1] = False
    while added < 400:
        m = rng.random((6, 6)) < rng.uniform(0.2, 0.8)
        bg = np.argwhere(~m & (border if added % 2 else ~border))
        if len(bg) == 0:
            continue
        y, x = (int(v) for v in bg[rng.integers(len(bg))])
        grown = m.copy()
        grown[y, x] = True
        db0, db1 = betti_delta_after_removal(grown, y, x)
        assert is_simple_point(grown, y, x) == (db0 == 0 and db1 == 0)
        added += 1


def test_is_simple_point_rejects_coordinates_outside_the_mask():
    m = np.zeros((3, 5), dtype=bool)
    m[2] = True
    assert is_simple_point(m, 2, 0)
    for y, x in ((-1, 0), (3, 0), (2, -5), (2, -1), (2, 5)):
        with pytest.raises(IndexError):
            is_simple_point(m, y, x)


def test_simple_point_tables_match_ring_search_on_every_code():
    simple, deletable = simple_point_tables()
    assert SIMPLE_LUT.tolist() == simple.tolist()
    assert _DELETABLE_LUT.tolist() == deletable.tolist()


def test_pass_status_matches_subset_search_on_every_entry():
    # Entry early << 8 | code is 1 if code stays deletable whichever of the
    # neighbours in early are gone, 0 if it is deletable in no such case and
    # 2 otherwise, with deletability taken from the ring search.
    _, deletable = simple_point_tables()
    for early in range(16):
        subsets = [s for s in range(16) if s & ~early == 0]
        for code in range(256):
            outcomes = [deletable[code & ~s] for s in subsets]
            want = 1 if all(outcomes) else 2 if any(outcomes) else 0
            assert _PASS_STATUS[early << 8 | code] == want, (early, code)


def test_simple_lut_known_codes():
    assert not SIMPLE_LUT[0]  # isolated pixel
    # single west neighbour: an endpoint, simple by the classical definition
    assert SIMPLE_LUT[0b00001000]
    # west and east neighbours: middle of a straight path, not simple
    assert not SIMPLE_LUT[0b00011000]
