import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vesseltopo.errors import DimensionMismatch, EmptyInput
from vesseltopo.metrics import (
    MetricReport,
    aggregate_reports,
    cl_dice,
    dice,
    format_csv,
    metric_report,
)
from vesseltopo.synth import VesselParams, generate_vessel, perturb_disconnect
from vesseltopo.topology import skeletonize

pair_strategy = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda s: st.tuples(hnp.arrays(bool, s), hnp.arrays(bool, s))
)


def test_dice_examples(ring_mask):
    assert dice(ring_mask, ring_mask) == 1.0
    a = np.zeros((2, 4), dtype=bool)
    a[0, 0] = True
    b = np.zeros((2, 4), dtype=bool)
    b[1, 3] = True
    assert dice(a, b) == 0.0

    p = np.zeros((20, 10), dtype=bool)
    p[:10] = True  # |P| = 100
    g = np.zeros((20, 10), dtype=bool)
    g[5:15] = True  # |G| = 100, overlap 50
    assert dice(p, g) == 0.5


def test_dice_empty_conventions():
    e = np.zeros((3, 3), dtype=bool)
    f = np.ones((3, 3), dtype=bool)
    assert dice(e, e) == 1.0
    assert dice(e, f) == 0.0
    assert cl_dice(e, e) == 1.0
    assert cl_dice(e, f) == 0.0
    assert cl_dice(f, e) == 0.0


def test_dice_shape_check():
    with pytest.raises(DimensionMismatch):
        dice(np.ones((2, 2), dtype=bool), np.ones((3, 2), dtype=bool))


def test_cl_dice_identity_and_disjoint(ring_mask):
    assert cl_dice(ring_mask, ring_mask) == 1.0
    a = np.zeros((3, 8), dtype=bool)
    a[1, 0:3] = True
    b = np.zeros((3, 8), dtype=bool)
    b[1, 5:8] = True
    assert cl_dice(a, b) == 0.0


def test_cl_dice_two_thirds_case():
    # gt: 20-px line (its own skeleton); pred: the left half.
    # Tprec = |skel(pred) & gt| / |skel(pred)| = 1
    # Tsens = |skel(gt) & pred| / |skel(gt)| = 10/20 = 0.5
    gt = np.zeros((3, 20), dtype=bool)
    gt[1, :] = True
    pred = np.zeros((3, 20), dtype=bool)
    pred[1, :10] = True
    assert np.array_equal(skeletonize(gt), gt)
    assert np.array_equal(skeletonize(pred), pred)
    assert int((skeletonize(pred) & gt).sum()) == 10
    assert int((skeletonize(gt) & pred).sum()) == 10
    assert cl_dice(pred, gt) == pytest.approx(2 / 3)


@settings(max_examples=100, deadline=None)
@given(pair_strategy)
def test_ratio_bounds_and_symmetry(pair):
    a, b = pair
    d = dice(a, b)
    c = cl_dice(a, b)
    assert 0.0 <= d <= 1.0
    assert 0.0 <= c <= 1.0
    assert d == dice(b, a)
    assert c == pytest.approx(cl_dice(b, a))


def test_self_scores_one_for_nonempty():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.random((7, 7)) < 0.5
        if not m.any():
            continue
        assert dice(m, m) == 1.0
        assert cl_dice(m, m) == 1.0


def test_removing_false_positives_never_hurts_dice():
    rng = np.random.default_rng(1)
    for _ in range(100):
        pred = rng.random((8, 8)) < 0.5
        gt = rng.random((8, 8)) < 0.5
        fp = pred & ~gt
        if not fp.any():
            continue
        drop = fp & (rng.random((8, 8)) < 0.5)
        cleaned = pred & ~drop
        assert dice(cleaned, gt) >= dice(pred, gt)


def test_metric_report_identity(ring_mask):
    r = metric_report(ring_mask, ring_mask)
    assert (r.dice, r.cl_dice, r.beta0_num, r.beta0_mat) == (1.0, 1.0, 0.0, 0.0)


def test_metric_report_disconnect_perturbation():
    _, gt, _ = generate_vessel(VesselParams(width=64, height=64, radius_root=2.0, seed=4))
    bad, log = perturb_disconnect(gt, 1, seed=1)
    r = metric_report(bad, gt)
    assert r.beta0_num == 1.0
    assert r.dice < 1.0


def test_metric_report_disjoint_single_components():
    p = np.zeros((4, 4), dtype=bool)
    p[0, 0] = True
    g = np.zeros((4, 4), dtype=bool)
    g[3, 3] = True
    r = metric_report(p, g)
    assert (r.dice, r.cl_dice, r.beta0_num, r.beta0_mat) == (0.0, 0.0, 0.0, 2.0)


def test_aggregate_examples():
    r1 = MetricReport(0.0, 0.2, 1.0, 2.0)
    r2 = MetricReport(1.0, 0.4, 3.0, 4.0)
    assert aggregate_reports([r1]) == r1
    agg = aggregate_reports([r1, r2])
    assert agg.dice == 0.5
    assert agg.cl_dice == pytest.approx(0.3)
    assert aggregate_reports([r2] * 5) == r2
    with pytest.raises(EmptyInput):
        aggregate_reports([])


def test_csv_format():
    rows = [("s0", MetricReport(1.0, 1.0, 0.0, 0.0)),
            ("s1", MetricReport(0.5, 0.25, 2.0, 3.0))]
    # one row per report and no mean row of its own
    assert format_csv(rows).splitlines() == ["sample,dice,cldice,beta0_num,beta0_mat",
                                             "s0,100.00,100.00,0,0",
                                             "s1,50.00,25.00,2,3"]


def test_csv_mean_row_prints_counts_as_any_row_does():
    rows = [("s0", MetricReport(1.0, 1.0, 0.0, 0.0)),
            ("s1", MetricReport(0.5, 0.25, 2.0, 3.0))]
    mean = ("mean", aggregate_reports([r for _, r in rows]))
    # a whole-number mean prints whole, a fractional one with two decimals
    assert format_csv(rows + [mean]).splitlines()[-1] == "mean,75.00,62.50,1,1.50"
