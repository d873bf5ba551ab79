import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vesseltopo import synth
from vesseltopo.cli import main
from vesseltopo.errors import InsufficientStructure, InvalidParams
from vesseltopo.synth import (
    PerturbationLog,
    VesselParams,
    _disk_pixels,
    _local_halfwidth,
    _skeleton_tangent,
    _tube_pixels,
    emit_samples,
    generate_vessel,
    perturb_dilate_noise,
    perturb_disconnect,
    perturb_first,
    perturb_holes,
    perturb_merge,
)
from vesseltopo.topology import (_OFFS8, TopologySummary, _euler_deltas, betti_numbers,
                                 euler_characteristic)

from tests import oracles
from tests.oracles import _stamp_disk, local_halfwidth, stamp_tube


def straight_tube(width=40, thickness=5):
    m = np.zeros((16, width), dtype=bool)
    lo = (16 - thickness) // 2
    m[lo:lo + thickness, 2:width - 2] = True
    return m


def test_generate_tree_is_contractible():
    _, mask, s = generate_vessel(VesselParams(n_trees=1, n_loops=0, seed=0))
    assert (s.beta0, s.beta1) == (1, 0)
    assert betti_numbers(mask) == s


def test_generate_two_trees():
    _, mask, s = generate_vessel(VesselParams(n_trees=2, n_loops=0, seed=1))
    assert (s.beta0, s.beta1) == (2, 0)


def test_generate_loops_verified_by_betti():
    _, mask, s = generate_vessel(VesselParams(n_trees=1, n_loops=3, seed=2))
    assert (s.beta0, s.beta1) == (1, 3)
    assert betti_numbers(mask) == s


def test_generate_deterministic():
    p = VesselParams(n_trees=2, n_loops=1, seed=33)
    a_img, a_mask, a_s = generate_vessel(p)
    b_img, b_mask, b_s = generate_vessel(p)
    assert np.array_equal(a_img, b_img)
    assert np.array_equal(a_mask, b_mask)
    assert a_s == b_s


def test_generate_foreground_band():
    for seed in range(8):
        _, mask, _ = generate_vessel(VesselParams(seed=seed))
        assert 0.02 <= mask.mean() <= 0.4


def test_generate_image_contrast():
    img, mask, _ = generate_vessel(VesselParams(seed=5))
    assert img[mask].mean() > 0.6
    assert img[~mask].mean() < 0.4
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_generate_spawns_one_sub_seed_per_attempt(monkeypatch):
    attempts = []
    place_roots = synth._place_roots

    def counting(rng, params):
        attempts.append(1)
        return place_roots(rng, params)

    monkeypatch.setattr(synth, "_place_roots", counting)
    # a summary that never matches makes every attempt fail
    monkeypatch.setattr(synth, "betti_numbers",
                        lambda mask: TopologySummary(0, 0, 0))
    with pytest.raises(InvalidParams):
        generate_vessel(VesselParams(width=32, height=32, radius_root=2.0))
    assert len(attempts) == 100
    # spawn(1) n times gives the same children as spawn(n) at once
    lazy = np.random.SeedSequence(7)
    one_by_one = [lazy.spawn(1)[0].generate_state(4) for _ in range(5)]
    up_front = [c.generate_state(4) for c in np.random.SeedSequence(7).spawn(5)]
    assert np.array_equal(one_by_one, up_front)


def _random_disks(rng, h, w, n):
    """Centres from 8 px outside the canvas to 8 px beyond it, radii in
    [1, 6]; half of them integral, so some pixels lie exactly on a rim."""
    cy = rng.uniform(-8.0, h + 8.0, n)
    cx = rng.uniform(-8.0, w + 8.0, n)
    r = rng.uniform(1.0, 6.0, n)
    whole = rng.random(n) < 0.5
    return (np.where(whole, np.round(cy), cy), np.where(whole, np.round(cx), cx),
            np.where(rng.random(n) < 0.5, np.round(r), r))


def _reference_disks(shape, cy, cx, r):
    ref = np.zeros(shape, dtype=bool)
    for args in zip(cy, cx, r):
        _stamp_disk(ref, *args)
    return ref


def test_disk_pixels_matches_reference_disks():
    rng = np.random.default_rng(0)
    shapes = [(1, 17), (17, 1), (1, 1), (12, 12), (20, 9)]
    shapes += [tuple(int(v) for v in rng.integers(1, 25, 2)) for _ in range(40)]
    for shape in shapes:
        h, w = shape
        for n in (1, 2, 7):
            cy, cx, r = _random_disks(rng, h, w, n)
            got = np.zeros(shape, dtype=bool)
            got[_disk_pixels(shape, cy, cx, r)[1:]] = True
            assert np.array_equal(got, _reference_disks(shape, cy, cx, r)), \
                (shape, cy, cx, r)
    # disks straddling each border and disks wholly outside each side
    h, w = 10, 14
    cy = [0.0, 9.5, 4.3, 5.0, -7.0, 16.2, 4.0, 5.5, 4.5]
    cx = [6.0, 7.2, -0.4, 13.6, 3.0, 5.0, -6.5, 20.1, 7.0]
    r = [3.0, 2.5, 4.0, 1.7, 6.0, 6.0, 6.0, 6.0, 6.0]
    got = np.zeros((h, w), dtype=bool)
    got[_disk_pixels((h, w), cy, cx, r)[1:]] = True
    assert np.array_equal(got, _reference_disks((h, w), cy, cx, r))
    _, rows, cols = _disk_pixels((h, w), cy[4:8], cx[4:8], r[4:8])
    assert rows.size == 0 and cols.size == 0


def _reference_tube(shape, p0, p1, r):
    ref = np.zeros(shape, dtype=bool)
    stamp_tube(ref, p0, p1, r)
    return ref


def test_tube_pixels_match_reference_tubes():
    rng = np.random.default_rng(3)
    h, w = 20, 27
    # a tube that crosses each border, one along the top row, one wholly
    # outside, single points (p == q) inside, on a corner and outside
    ends = [((-3, 5), (6, 9)), ((14, 8), (25, 12)), ((7, -4), (12, 6)),
            ((3, 20), (9, 31)), ((0, 0), (0, 26)), ((-9, -9), (-3, -7)),
            ((10, 13), (10, 13)), ((0, 26), (0, 26)), ((-2, 30), (-2, 30))]
    ends += [tuple(map(tuple, e)) for e in rng.integers(-4, 31, (24, 2, 2))]
    for r in (0.5, 1.0, 1.2, 2.5):
        for batch in (ends, ends[:1], ends[6:7]):
            tube, rows, cols = _tube_pixels((h, w), np.array(batch), r)
            for i, (p0, p1) in enumerate(batch):
                got = np.zeros((h, w), dtype=bool)
                got[rows[tube == i], cols[tube == i]] = True
                assert np.array_equal(got, _reference_tube((h, w), p0, p1, r)), (r, p0, p1)
    # fractional ends, as perturb_disconnect stamps its cuts
    for _ in range(30):
        p0, p1 = rng.uniform(-3.0, 23.0, (2, 2))
        tube, rows, cols = _tube_pixels((h, w), [(p0, p1)], 1.7)
        got = np.zeros((h, w), dtype=bool)
        got[rows, cols] = True
        assert np.array_equal(got, _reference_tube((h, w), p0, p1, 1.7)), (p0, p1)


def test_stamp_tube_matches_reference_tube():
    # one tube through _tube_pixels on thin and small canvases, ends from
    # 8 px outside them to 8 px beyond
    rng = np.random.default_rng(1)
    for shape in [(1, 30), (30, 1), (24, 24), (40, 17)]:
        for _ in range(25):
            cy, cx, r = _random_disks(rng, *shape, 2)
            p0, p1 = (cy[0], cx[0]), (cy[1], cx[1])
            _, rows, cols = _tube_pixels(shape, [(p0, p1)], r[0])
            got = np.zeros(shape, dtype=bool)
            got[rows, cols] = True
            assert np.array_equal(got, _reference_tube(shape, p0, p1, r[0])), \
                (shape, p0, p1, r[0])


def test_tube_pixels_take_the_disk_centres_of_stamp_tube(monkeypatch):
    # a centre one ulp off moves a pixel only where it lies exactly on a
    # rim, so the centres themselves are compared, bit for bit
    centres = []
    disk_pixels = synth._disk_pixels

    def spy(shape, cy, cx, r):
        centres.append((np.array(cy), np.array(cx)))
        return disk_pixels(shape, cy, cx, r)

    monkeypatch.setattr(synth, "_disk_pixels", spy)
    rng = np.random.default_rng(4)
    ends = np.concatenate([rng.integers(0, 40, (40, 2, 2)).astype(float),
                           rng.uniform(0.0, 40.0, (40, 2, 2))])
    _tube_pixels((40, 40), ends, 1.0)
    (cy, cx), = centres
    # the centres oracles.stamp_tube stamps, one tube at a time
    ref = []
    for p0, p1 in ends:
        n = max(2, int(np.hypot(*(p1 - p0)) * 2) + 1)
        ref.append(p0 + np.linspace(0, 1, n)[:, None] * (p1 - p0))
    ref = np.concatenate(ref)
    assert np.array_equal(cy, ref[:, 0])
    assert np.array_equal(cx, ref[:, 1])


_coords = st.integers(-4, 17)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hnp.arrays(bool, st.tuples(st.integers(1, 14), st.integers(1, 14))),
       st.lists(st.tuples(_coords, _coords, _coords, _coords, st.booleans()),
                min_size=1, max_size=6),
       st.sampled_from([0.5, 1.0, 1.2, 2.0]))
def test_euler_deltas_match_recounted_chi_property(mask, tubes, r):
    # a tube marked covered is made foreground first, so it adds no pixel;
    # tubes wholly off the canvas add none either
    ends = np.array([[(y0, x0), (y1, x1)] for y0, x0, y1, x1, _ in tubes])
    tube, rows, cols = _tube_pixels(mask.shape, ends, r)
    cur = mask.copy()
    for i, (*_, covered) in enumerate(tubes):
        if covered:
            cur[rows[tube == i], cols[tube == i]] = True
    got = _euler_deltas(cur, tube, rows, cols, len(tubes))
    base = euler_characteristic(cur)
    for i in range(len(tubes)):
        grown = cur.copy()
        grown[rows[tube == i], cols[tube == i]] = True
        assert got[i] == euler_characteristic(grown) - base, i


class _CountingRng:
    """Counts the draws an edit makes; the state is the wrapped rng's."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def integers(self, *args):
        self.draws += 1
        return self.rng.integers(*args)


def _spy_on_bridges(monkeypatch):
    """Record (attempts, draws, rng state after) of every bridge edit made."""
    calls = []
    factory = synth._bridge_edit

    def spied_factory(partners, radius, deltas):
        edit = factory(partners, radius, deltas)

        def spied(cur, cur_b, rng, sites, budget):
            counting = _CountingRng(rng)
            found, n = edit(cur, cur_b, counting, sites, budget)
            calls.append((n, counting.draws, rng.bit_generator.state))
            return found, n
        return spied

    monkeypatch.setattr(synth, "_bridge_edit", spied_factory)
    return calls


def _undone_draws(calls, used, accepted):
    """Check each edit's attempts and draws against the one-at-a-time
    reference's (attempts, proposals); return how many accepted edits drew
    past the accepted proposal, and so had their rng set back."""
    assert [n for n, _, _ in calls] == [n for n, _ in used]
    undone = 0
    for i, ((_, draws, _), (n, proposed)) in enumerate(zip(calls, used)):
        # one draw of p per attempt, one of q per proposal
        if i < accepted:
            assert draws >= n + proposed
            undone += draws > n + proposed
        else:
            assert draws == n + proposed
    return undone


def test_bridge_edit_recounts_a_bridge_whose_euler_change_matches():
    # a bridge along the top of a bar that touches a blob above it lowers
    # chi by one, as a new loop does, but it fuses the blob and closes no loop
    m = np.zeros((12, 24), dtype=bool)
    m[6:9, 2:22] = True
    m[4, 11:13] = True
    ends = np.array([[(6, 4), (6, 19)]])
    tube, rows, cols = _tube_pixels(m.shape, ends, 1.0)
    assert _euler_deltas(m, tube, rows, cols, 1).tolist() == [-1]

    def only_this_bridge(cur, fg):
        p, q = (np.flatnonzero((fg == end).all(1)) for end in ends[0])
        return lambda i: q if i == p[0] else q[:0]

    for deltas, kept in (({(0, 1)}, False), ({(-1, 0)}, True)):
        rng = np.random.default_rng(0)
        found, n = synth._bridge_edit(only_this_bridge, 1.0, deltas)(
            m, betti_numbers(m), rng, (), 300)
        assert (found is not None) == kept and (n < 300) == kept
        if kept:
            assert found[2] == ((6, 4), (6, 19))
            assert found[1] == betti_numbers(found[0]) == TopologySummary(1, 0, 1)


def test_insert_loops_matches_one_at_a_time_reference(monkeypatch):
    calls = _spy_on_bridges(monkeypatch)
    undone = failed = 0
    for seed in range(12):
        params = VesselParams(width=48 + 16 * (seed % 3), height=48 + 16 * (seed % 3),
                              n_trees=1 + seed % 2, radius_root=2.0, seed=seed)
        _, tree, _ = generate_vessel(params)
        rng = np.random.default_rng(seed + 100)
        want_rng = np.random.default_rng(seed + 100)
        calls.clear()
        got = synth._insert_loops(tree, 3, rng, params)
        want, used = oracles.insert_loops(tree, 3, want_rng, params.radius_min, betti_numbers)
        assert (got is None) == (want is None), seed
        assert got is None or np.array_equal(got, want), seed
        assert rng.bit_generator.state == want_rng.bit_generator.state, seed
        undone += _undone_draws(calls, used, len(used) - (want is None))
        failed += want is None
    # acceptance before the end of a batch, and a spent budget, both occur
    assert undone and failed


@pytest.mark.parametrize("budget", [1000, 45])
def test_merges_match_one_at_a_time_reference(monkeypatch, budget):
    calls = _spy_on_bridges(monkeypatch)
    monkeypatch.setattr(synth, "_MAX_SITE_ATTEMPTS", budget)
    undone = failed = 0
    for seed in range(8):
        _, gt, _ = generate_vessel(VesselParams(width=64, height=64, n_trees=1 + seed % 2,
                                                radius_root=2.0, seed=seed))
        calls.clear()
        want, used, want_state = oracles.perturb_merge(gt, 3, seed + 50, budget, betti_numbers)
        if isinstance(want, str):
            with pytest.raises(InsufficientStructure) as info:
                perturb_merge(gt, 3, seed=seed + 50)
            assert str(info.value) == want, seed
        else:
            out, log = perturb_merge(gt, 3, seed=seed + 50)
            mask, sites, d0, d1 = want
            assert np.array_equal(out, mask), seed
            assert log == PerturbationLog("merge", sites, d0, d1), seed
        assert calls[-1][2] == want_state, seed
        undone += _undone_draws(calls, used, len(used) - isinstance(want, str))
        failed += isinstance(want, str)
    assert undone and failed


def test_local_halfwidth_matches_probe_loop():
    rng = np.random.default_rng(2)
    _, gt, _ = generate_vessel(VesselParams(width=48, height=48,
                                            radius_root=3.7, seed=4))
    masks = [gt, straight_tube(thickness=7), np.ones((5, 30), dtype=bool),
             np.ones((1, 9), dtype=bool), np.ones((9, 1), dtype=bool)]
    masks += [rng.random((20, 20)) < 0.9 for _ in range(5)]
    # a full canvas, and misses only at its corners and edges
    edges = np.ones((17, 23), dtype=bool)
    edges[[0, 0, -1, -1], [0, -1, 0, -1]] = False
    edges[[0, 8, 16], [11, 0, 22]] = False
    masks += [np.ones((30, 30), dtype=bool), edges]
    for mask in masks:
        for y, x in np.ndindex(mask.shape):
            assert _local_halfwidth(mask, y, x) == local_halfwidth(mask, y, x), \
                (mask.shape, y, x)


def test_skeleton_tangent_matches_row_major_scan_on_every_code():
    # The centre of a 3x3 skeleton with the neighbours of each code: the
    # same direction, bit for bit, and the same rng draws, which happen
    # only with fewer than two neighbours.
    for code in range(256):
        skel = np.zeros((3, 3), dtype=bool)
        for i, (dy, dx) in enumerate(_OFFS8):
            skel[1 + dy, 1 + dx] = bool(code >> i & 1)
        got_rng, want_rng = np.random.default_rng(code), np.random.default_rng(code)
        got = _skeleton_tangent(code, got_rng)
        assert got == oracles.skeleton_tangent(skel, 1, 1, want_rng), code
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, code


def test_invalid_params():
    # each check runs as the object is built
    with pytest.raises(InvalidParams):
        VesselParams(radius_min=0.5)
    with pytest.raises(InvalidParams):
        VesselParams(branch_depth=0)
    with pytest.raises(InvalidParams):
        VesselParams(branch_prob=1.5)
    with pytest.raises(InvalidParams):
        VesselParams(width=16, height=16, radius_root=3.0)


def test_disconnect_noop():
    m = straight_tube()
    out, log = perturb_disconnect(m, 0, seed=0)
    assert np.array_equal(out, m)
    assert log == PerturbationLog("disconnect", (), 0, 0)


def test_disconnect_straight_tube():
    m = straight_tube()
    out, log = perturb_disconnect(m, 1, seed=0)
    s = betti_numbers(out)
    assert s.beta0 == 2 and s.beta1 == 0
    assert log.expected_beta0_delta == 1
    assert len(log.sites) == 1
    assert (out <= m).all()


def test_disconnect_tree_three_cuts():
    _, gt, _ = generate_vessel(VesselParams(seed=11))
    out, log = perturb_disconnect(gt, 3, seed=7)
    s = betti_numbers(out)
    assert s.beta0 == 4 and s.beta1 == 0
    assert log.expected_beta0_delta == 3 and log.expected_beta1_delta == 0


def test_disconnect_insufficient():
    m = np.zeros((8, 8), dtype=bool)
    m[4, 4] = True
    with pytest.raises(InsufficientStructure):
        perturb_disconnect(m, 1, seed=0)


def test_merge_two_bars_fuses_components():
    m = np.zeros((12, 20), dtype=bool)
    m[2:4, 2:18] = True
    m[8:10, 2:18] = True  # two bars 4 px apart
    base = betti_numbers(m)
    assert base.beta0 == 2
    out, log = perturb_merge(m, 1, seed=0)
    s = betti_numbers(out)
    assert (s.beta0 - base.beta0, s.beta1 - base.beta1) in ((-1, 0), (0, 1))
    assert (log.expected_beta0_delta, log.expected_beta1_delta) == \
        (s.beta0 - base.beta0, s.beta1 - base.beta1)
    assert (out >= m).all()


def test_merge_within_tree_closes_loop():
    m = np.zeros((12, 12), dtype=bool)
    m[2:10, 2:4] = True
    m[2:10, 8:10] = True
    m[2:4, 2:10] = True  # U shape, arms 4 px apart
    assert betti_numbers(m) == TopologySummary(1, 0, 1)
    out, log = perturb_merge(m, 1, seed=1)
    s = betti_numbers(out)
    assert s.beta0 == 1 and s.beta1 == 1
    assert log.expected_beta1_delta == 1


def test_merge_noop_and_insufficient():
    m = straight_tube()
    out, log = perturb_merge(m, 0, seed=0)
    assert np.array_equal(out, m) and log.kind == "merge"
    lone = np.zeros((8, 8), dtype=bool)
    lone[4, 4] = True
    with pytest.raises(InsufficientStructure):
        perturb_merge(lone, 1, seed=0)
    with pytest.raises(InsufficientStructure, match="no foreground"):
        perturb_merge(np.zeros((8, 8), dtype=bool), 1, seed=0)


def test_perturb_first_takes_the_first_family_that_applies():
    line = np.zeros((16, 32), dtype=bool)
    line[8, 2:30] = True  # no interior pixel, so no hole can be punched
    out, log = perturb_first((perturb_holes, perturb_disconnect), line, 1, seed=3)
    want, want_log = perturb_disconnect(line, 1, seed=3)
    assert np.array_equal(out, want) and log == want_log
    assert perturb_first((perturb_holes, perturb_disconnect), straight_tube(), 1,
                         seed=3)[1].kind == "hole"
    with pytest.raises(InsufficientStructure,
                       match=r"no perturbation family applicable \(k=2\)"):
        perturb_first((perturb_holes, perturb_merge), np.zeros((8, 8), dtype=bool),
                      2, seed=0)


def annulus(size=24, width=3):
    m = np.zeros((size, size), dtype=bool)
    m[2:size - 2, 2:size - 2] = True
    m[2 + width:size - 2 - width, 2 + width:size - 2 - width] = False
    return m


def annulus_and_tube():
    m = np.zeros((24, 44), dtype=bool)
    m[:, :24] = annulus()
    m[10:14, 28:38] = True  # takes one cut; no cut of the ring adds a component
    return m


def thick_bar():
    m = np.zeros((16, 24), dtype=bool)
    m[3:13, 3:21] = True  # no bridge inside it fuses or closes anything
    return m


@pytest.mark.parametrize("fn, mask, seed, message, betti_calls", [
    # each cut site tries two erase widths, both rejected: 1 + 2 * 20 recounts
    (perturb_disconnect, annulus(), 0, "could not place cut 1 of 2 after 20 attempts", 41),
    # no bridge inside the bar changes chi by -1, so only the base is counted
    (perturb_merge, thick_bar(), 0, "could not place bridge 1 of 2 after 20 attempts", 1),
    # the first cut takes a tube site; the second spends what is left
    (perturb_disconnect, annulus_and_tube(), 0,
     "could not place cut 2 of 2 after 20 attempts", 40),
], ids=["disconnect-ring", "merge-bar", "disconnect-ring-then-tube"])
def test_site_budget_is_shared_by_all_edits_and_counted_per_site(
        monkeypatch, fn, mask, seed, message, betti_calls):
    calls = []
    real = synth.betti_numbers
    monkeypatch.setattr(synth, "betti_numbers", lambda m: calls.append(1) or real(m))
    monkeypatch.setattr(synth, "_MAX_SITE_ATTEMPTS", 20)
    with pytest.raises(InsufficientStructure) as info:
        fn(mask, 2, seed=seed)
    assert str(info.value) == message
    assert len(calls) == betti_calls


def test_holes_thick_tube():
    m = straight_tube(thickness=7)
    base = betti_numbers(m)
    out, log = perturb_holes(m, 1, seed=0)
    s = betti_numbers(out)
    assert s.beta0 == base.beta0 and s.beta1 == base.beta1 + 1
    assert log.expected_beta1_delta == 1


def test_holes_noop_and_thin_tree():
    m = straight_tube()
    out, log = perturb_holes(m, 0, seed=0)
    assert np.array_equal(out, m)
    thin = np.zeros((9, 9), dtype=bool)
    thin[4, 1:8] = True  # 1-px wide, no interior
    with pytest.raises(InsufficientStructure):
        perturb_holes(thin, 1, seed=0)


def test_perturbation_logs_match_recomputed_betti():
    # self-verifying generation: log deltas equal recomputed differences
    for seed in range(6):
        _, gt, s0 = generate_vessel(VesselParams(width=64, height=64,
                                                 radius_root=2.0, seed=seed))
        for fn, k in ((perturb_disconnect, 2), (perturb_merge, 1), (perturb_holes, 1)):
            try:
                out, log = fn(gt, k, seed=seed + 100)
            except InsufficientStructure:
                continue
            s1 = betti_numbers(out)
            assert s1.beta0 - s0.beta0 == log.expected_beta0_delta
            assert s1.beta1 - s0.beta1 == log.expected_beta1_delta
            assert log.sites


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(0, 2),
       st.sampled_from(["disconnect", "merge", "hole", "dilate-noise"]),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_perturbation_log_deltas_equal_recounted_betti_property(
        scene, n_trees, n_loops, family, k, seed):
    _, gt, s0 = generate_vessel(VesselParams(width=48, height=48, n_trees=n_trees,
                                             n_loops=n_loops, radius_root=2.0, seed=scene))
    try:
        if family == "dilate-noise":
            out, log = perturb_dilate_noise(gt, seed=seed)
        else:
            out, log = synth._PERTURB_FAMILIES[family](gt, k, seed=seed)
    except InsufficientStructure:
        return
    s1 = betti_numbers(out)
    assert (s1.beta0 - s0.beta0, s1.beta1 - s0.beta1) == \
        (log.expected_beta0_delta, log.expected_beta1_delta)


def test_perturbations_deterministic():
    _, gt, _ = generate_vessel(VesselParams(seed=21))
    a = perturb_disconnect(gt, 2, seed=5)
    b = perturb_disconnect(gt, 2, seed=5)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_dilate_noise_preserves_topology():
    _, gt, s = generate_vessel(VesselParams(width=64, height=64,
                                            radius_root=2.0, seed=13))
    out, log = perturb_dilate_noise(gt, seed=3)
    assert betti_numbers(out) == s
    assert (out >= gt).all()
    assert (out != gt).any()
    assert log.kind == "dilate-noise"


def test_dilate_noise_matches_recount_per_pixel_reference():
    """Scenes and random masks, small ones too, whose grown pixels often lie
    on the canvas border."""
    rng = np.random.default_rng(17)
    masks = [generate_vessel(VesselParams(width=48, height=48, n_trees=1 + s % 2,
                                          n_loops=s % 3, radius_root=2.0, seed=s))[1]
             for s in range(8)]
    masks += [rng.random(tuple(rng.integers(1, 13, 2))) < rng.uniform(0.15, 0.85)
              for _ in range(150)]
    masks += [np.zeros((3, 4), dtype=bool), np.ones((3, 4), dtype=bool)]
    kept = 0
    for seed, mask in enumerate(masks):
        out, log = perturb_dilate_noise(mask, seed=seed)
        ref, sites = oracles.dilate_noise(mask, seed, betti_numbers)
        assert out.dtype == ref.dtype and np.array_equal(out, ref), seed
        assert log == PerturbationLog("dilate-noise", sites, 0, 0), seed
        kept += len(sites)
    assert kept > 500


def test_dilate_noise_verifier_raises_when_a_grown_pixel_changes_topology(
        monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(synth, "_SIMPLE", [True] * 256)
    ring = np.ones((5, 5), dtype=bool)
    ring[1:4, 1:4] = False
    with pytest.raises(AssertionError, match="dilate-noise changed the Betti numbers"):
        perturb_dilate_noise(ring, seed=0)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"per_kind": {"quality_judgement": 2}}))
    assert main(["taskgen", "--out", str(tmp_path / "t"), "--width", "32",
                 "--height", "32", "--config", str(config)]) == 3
    assert "dilate-noise changed the Betti numbers" in capsys.readouterr().err


def test_emit_samples_layout_and_determinism(tmp_path):
    params = VesselParams(width=64, height=64, radius_root=2.0, seed=9)
    m1 = emit_samples(tmp_path / "a", params, count=2, n_bad=2)
    records = [json.loads(line) for line in open(m1)]
    assert len(records) == 2
    for rec in records:
        assert (tmp_path / "a" / rec["image"]).exists()
        assert (tmp_path / "a" / rec["gt"]).exists()
        assert len(rec["bad"]) == 2
        for bad in rec["bad"]:
            assert (tmp_path / "a" / bad["path"]).exists()
            assert bad["kind"] in ("disconnect", "merge", "hole")
    m2 = emit_samples(tmp_path / "b", params, count=2, n_bad=2)
    assert open(m1).read() == open(m2).read()
