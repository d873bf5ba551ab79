import json

import numpy as np
import pytest

from vesseltopo import flowgen
from vesseltopo.errors import DimensionMismatch, InvalidConfig, NonFiniteLoss
from vesseltopo.flowgen import (
    TokenWeightMap,
    TrainConfig,
    VelocityModel,
    error_map,
    interpolate,
    load_checkpoint,
    make_condition,
    predict_clean,
    refine_eval,
    sample,
    save_checkpoint,
    target_velocity,
    token_weights,
    train,
    training_loss_and_grads,
    weighted_flow_loss,
)
from vesseltopo.synth import VesselParams, generate_vessel, perturb_disconnect

from tests.oracles import einsum_conv3, einsum_conv3_input_grad, einsum_conv3_param_grads


@pytest.fixture(scope="module")
def triple():
    img, gt, _ = generate_vessel(VesselParams(width=32, height=32,
                                              radius_root=1.6, branch_depth=3,
                                              seed=1))
    bad, _ = perturb_disconnect(gt, 1, seed=2)
    return img, bad, gt


# ------------------------------ algebra ----------------------------------- #

def test_interpolate_endpoints():
    x = np.full((4, 4), 3.0)
    eps = np.full((4, 4), -1.0)
    assert np.array_equal(interpolate(x, eps, 1.0), x)
    assert np.array_equal(interpolate(x, eps, 0.0), eps)
    quarter = interpolate(np.ones((2, 2)), np.zeros((2, 2)), 0.25)
    assert np.allclose(quarter, 0.25)


def test_target_velocity():
    x = np.ones((3, 3))
    assert not target_velocity(x, x).any()
    assert np.array_equal(target_velocity(x, np.zeros((3, 3))), x)


def test_clean_prediction_identity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=(6, 6))
        eps = rng.normal(size=(6, 6))
        tau = float(rng.uniform())
        z = interpolate(x, eps, tau)
        # algebra: z_tau + (1 - tau) * v_target == x, for any tau
        assert np.allclose(predict_clean(z, tau, target_velocity(x, eps)), x,
                           atol=1e-6)
        assert np.allclose(z + (1 - tau) * target_velocity(x, eps), x, atol=1e-6)


def test_predict_clean_examples():
    z = np.full((2, 2), 0.5)
    assert np.array_equal(predict_clean(z, 1.0, np.ones((2, 2))), z)
    assert np.allclose(predict_clean(z, 0.5, np.ones((2, 2))), 1.0)


def test_error_map_absolute():
    y = np.ones((2, 2))
    y_img = np.zeros((2, 2))
    assert np.array_equal(error_map(y, y), np.zeros((2, 2)))
    assert np.array_equal(error_map(y, y_img), np.ones((2, 2)))
    assert np.array_equal(error_map(y_img, y), np.ones((2, 2)))  # sign discarded


def test_error_map_shape_check():
    with pytest.raises(DimensionMismatch):
        error_map(np.zeros((2, 2)), np.zeros((2, 3)))


# ---------------------------- token weights ------------------------------- #

def test_token_weights_examples():
    assert (token_weights(np.zeros((8, 8)), 4, 10.0).weights == 1.0).all()
    assert (token_weights(np.ones((8, 8)), 4, 10.0).weights == 11.0).all()
    half = np.zeros((4, 4))
    half[:2, :] = 1.0
    assert token_weights(half, 4, 10.0).weights[0, 0] == 6.0


def test_token_weights_bounds_and_monotonicity():
    rng = np.random.default_rng(2)
    lam = 10.0
    for _ in range(50):
        e = rng.uniform(size=(8, 8))
        w = token_weights(e, 4, lam).weights
        assert (w >= 1.0).all() and (w <= 1.0 + lam).all()
        bumped = np.clip(e.copy(), 0, 1)
        bumped[:4, :4] = np.minimum(1.0, bumped[:4, :4] + 0.1)
        w2 = token_weights(bumped, 4, lam).weights
        assert w2[0, 0] > w[0, 0]  # raising a patch's mean error raises its weight


def test_token_weights_divisibility_and_range():
    with pytest.raises(DimensionMismatch):
        token_weights(np.zeros((6, 6)), 4, 10.0)
    with pytest.raises(ValueError):
        token_weights(np.full((4, 4), 1.5), 4, 10.0)


def test_weighted_loss_examples():
    v = np.ones((4, 4))
    w1 = TokenWeightMap(np.ones((1, 1)))
    assert weighted_flow_loss(v, v, w1) == 0.0
    resid = np.arange(16.0).reshape(4, 4)
    assert weighted_flow_loss(resid, np.zeros((4, 4)), w1) == np.mean(resid ** 2)
    w11 = TokenWeightMap(np.array([[11.0]]))
    assert weighted_flow_loss(v, np.zeros((4, 4)), w11) == 121.0


@pytest.mark.parametrize("p", [1, 2, 8, 16])
def test_broadcast_weights_matches_kron_bit_for_bit(p):
    rng = np.random.default_rng(p)
    for ht, wt in ((1, 1), (4, 4), (2, 5), (3, 1)):
        w = TokenWeightMap(weights=1.0 + 10.0 * rng.random((ht, wt)))
        got = flowgen._broadcast_weights(w, (ht * p, wt * p))
        want = np.kron(w.weights, np.ones((p, p)))
        assert _same_bits(got, want) and got.strides == want.strides


def test_weighted_loss_zero_iff_equal():
    rng = np.random.default_rng(3)
    w = TokenWeightMap(1.0 + rng.uniform(size=(2, 2)))
    a = rng.normal(size=(4, 4))
    b = a + 1e-3
    assert weighted_flow_loss(a, a, w) == 0.0
    assert weighted_flow_loss(a, b, w) > 0.0


# ---------------------------- gradient check ------------------------------ #

def test_gradient_matches_central_differences():
    h = 1e-6
    worst = 0.0
    for inst in range(5):
        rng = np.random.default_rng(100 + inst)
        model = VelocityModel(hidden=5, seed=200 + inst)
        z = rng.normal(size=(4, 4))
        tau = float(rng.uniform())
        cond = rng.normal(size=(4, 4, 4))
        v_t = rng.normal(size=(4, 4))
        wmap = token_weights(rng.uniform(size=(4, 4)), 2, 10.0)
        _, grads = training_loss_and_grads(model, z, tau, cond, v_t, wmap)
        for li, layer in enumerate(model.params):
            for k in range(2):
                flat = layer[k].ravel()
                stride = max(1, flat.size // 5)
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
    assert worst < 1e-4


# ----------------------- convolutions vs einsum --------------------------- #

CONV_CHANNELS = [(6, 16), (16, 16), (16, 1), (6, 4), (4, 1), (6, 32), (32, 32),
                 (32, 1)]
CONV_CANVASES = [(1, 1), (3, 5), (8, 8), (16, 8), (24, 24), (32, 32), (40, 16),
                 (64, 64), (8, 64)]


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("c,f", CONV_CHANNELS)
def test_conv_matches_einsum_oracle_bit_for_bit(c, f):
    rng = np.random.default_rng(100 * c + f)
    for h, w in CONV_CANVASES:
        x = rng.normal(size=(c, h, w))
        weight = rng.normal(size=(f, c, 3, 3))
        bias = rng.normal(size=f)
        out, cache = flowgen._conv3(x, weight, bias)
        want, want_win = einsum_conv3(x, weight, bias)
        assert _same_bits(out, want) and out.strides == want.strides, (h, w)
        # output gradients as backward forms them: dense, in the layout of a
        # conv output, and ReLU-masked from a padded slice (zeros of both signs)
        dxp = np.zeros((f, h + 2, w + 2))
        dxp[:, 1:-1, 1:-1] = rng.normal(size=(f, h, w))
        masked = dxp[:, 1:-1, 1:-1] * (out > 0)
        for dout in (rng.normal(size=(f, h, w)), want, masked, -masked):
            got = (*flowgen._conv3_param_grads(weight, cache, dout),
                   flowgen._conv3_input_grad(weight, dout))
            ref = (*einsum_conv3_param_grads(want_win, dout),
                   einsum_conv3_input_grad(weight, dout))
            if h * w == 1:
                # einsum turns a one-term weight-gradient sum into a plain
                # product, which keeps the -0.0 that a matrix product's sum
                # turns into +0.0; the values are equal
                assert np.array_equal(got[0], ref[0])
                got, ref = (got[0] + 0.0, *got[1:]), (ref[0] + 0.0, *ref[1:])
            for name, a, b in zip(("d_weight", "d_bias", "d_input"), got, ref):
                assert _same_bits(a, b), (h, w, name)


def test_train_matches_einsum_oracle_conv(monkeypatch, triple):
    """A 20-step run gives the same losses and parameter bytes as one on the
    einsum convolutions."""
    img, bad, gt = triple
    quarters = [(img[s], bad[s], gt[s]) for s in
                (np.s_[:16, :16], np.s_[16:, 16:])]
    config = TrainConfig(steps=20, batch_size=2, seed=4)
    got = train(config, quarters)

    def param_grads(weight, win, dout):
        return einsum_conv3_param_grads(win, dout)

    monkeypatch.setattr(flowgen, "_conv3", einsum_conv3)
    monkeypatch.setattr(flowgen, "_conv3_param_grads", param_grads)
    monkeypatch.setattr(flowgen, "_conv3_input_grad", einsum_conv3_input_grad)
    want = train(config, quarters)
    assert got.losses == want.losses
    for got_layer, want_layer in zip(got.model.params, want.model.params):
        for a, b in zip(got_layer, want_layer):
            assert _same_bits(a, b)


# ------------------------------ training ---------------------------------- #

def test_one_step_run_smoke(triple):
    result = train(TrainConfig(steps=1, batch_size=1, seed=0, hidden=4), [triple])
    assert len(result.losses) == 1
    assert np.isfinite(result.losses[0])


def test_training_reduces_loss(triple):
    result = train(TrainConfig(steps=150, batch_size=2, seed=3, hidden=8), [triple])
    assert np.mean(result.losses[-10:]) < np.mean(result.losses[:10])


def test_nonfinite_loss_aborts(triple):
    # the loss overflows to inf and then NaN, which numpy warns about
    with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteLoss):
        train(TrainConfig(steps=60, batch_size=1, seed=0, hidden=4,
                          learning_rate=1e150), [triple])


def test_invalid_configs():
    # range checks run as the object is built
    with pytest.raises(InvalidConfig):
        TrainConfig(steps=0)
    with pytest.raises(InvalidConfig):
        TrainConfig(steps=1, lam=-1.0)
    with pytest.raises(InvalidConfig):
        train(TrainConfig(steps=1), [])


# ------------------------------ sampling ---------------------------------- #

def test_sample_single_step_formula(triple):
    img, bad, gt = triple
    model = VelocityModel(hidden=4, seed=5)
    out = sample(model, img, bad, steps=1, seed=42, n_components=1, n_loops=0)
    cond = make_condition(img, bad, 1, 0)
    rng = np.random.default_rng(42)
    eps = rng.standard_normal(img.shape)
    expected = np.clip(eps + model.forward(eps, 0.0, cond), 0.0, 1.0)
    assert np.array_equal(out, expected)


def test_sample_deterministic(triple):
    img, bad, _ = triple
    model = VelocityModel(hidden=4, seed=6)
    a = sample(model, img, bad, steps=4, seed=7, n_components=1, n_loops=0)
    b = sample(model, img, bad, steps=4, seed=7, n_components=1, n_loops=0)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_sample_rejects_zero_steps(triple):
    img, bad, _ = triple
    with pytest.raises(InvalidConfig):
        sample(VelocityModel(hidden=4, seed=0), img, bad, steps=0, seed=0,
               n_components=1, n_loops=0)


# ------------------------------ evaluation -------------------------------- #

def test_refine_eval_untrained_model_is_total(tmp_path, triple):
    model = VelocityModel(hidden=4, seed=1)
    csv_path = tmp_path / "refine.csv"
    agg_in, agg_out = refine_eval(model, [triple, triple], steps=2,
                                  csv_path=str(csv_path))
    for rep in (agg_in, agg_out):
        assert np.isfinite([rep.dice, rep.cl_dice, rep.beta0_num, rep.beta0_mat]).all()
    text = csv_path.read_text()
    assert text.startswith("sample,dice,cldice,beta0_num,beta0_mat\n")
    assert "refined_mean" in text


def test_refine_eval_perfect_refinement_scores_clean(monkeypatch, triple):
    img, bad, gt = triple
    import vesseltopo.flowgen as flowgen
    monkeypatch.setattr(flowgen, "sample",
                        lambda *args, **kwargs: gt.astype(np.float64))
    agg_in, agg_out = refine_eval(VelocityModel(hidden=4, seed=0),
                                  [triple], steps=1)
    assert (agg_out.dice, agg_out.cl_dice) == (1.0, 1.0)
    assert (agg_out.beta0_num, agg_out.beta0_mat) == (0.0, 0.0)
    assert agg_in.beta0_num == 1.0  # the imperfect input has one cut


def test_refine_eval_csv_means_print_counts_as_any_row_does(monkeypatch, tmp_path,
                                                           triple):
    img, bad, gt = triple
    monkeypatch.setattr(flowgen, "sample",
                        lambda *args, **kwargs: gt.astype(np.float64))
    csv_path = tmp_path / "refine.csv"
    # inputs with one cut each, then one with a cut and one without
    for inputs, mean in (((bad, bad), "1"), ((bad, gt), "0.50")):
        refine_eval(VelocityModel(hidden=4, seed=0), [(img, m, gt) for m in inputs],
                    steps=1, csv_path=str(csv_path))
        rows = dict(line.split(",", 1) for line in csv_path.read_text().splitlines())
        assert rows["input_mean"].split(",")[2:] == [mean, mean]
        assert rows["refined_mean"].split(",")[2:] == ["0", "0"]


# ------------------------------ checkpoints -------------------------------- #

def test_checkpoint_roundtrip(tmp_path, triple):
    img, bad, _ = triple
    result = train(TrainConfig(steps=5, batch_size=1, seed=4, hidden=4), [triple])
    path = tmp_path / "ck.json"
    save_checkpoint(result.model, result.config, path)
    loaded, config = load_checkpoint(path)
    assert config == result.config
    a = sample(result.model, img, bad, steps=2, seed=1, n_components=1, n_loops=0)
    b = sample(loaded, img, bad, steps=2, seed=1, n_components=1, n_loops=0)
    assert np.array_equal(a, b)


def test_checkpoint_unknown_config_key(tmp_path, triple):
    result = train(TrainConfig(steps=2, batch_size=1, seed=4, hidden=4), [triple])
    path = tmp_path / "ck.json"
    save_checkpoint(result.model, result.config, path)
    blob = json.loads(path.read_text())
    blob["config"]["momentum"] = 0.9
    path.write_text(json.dumps(blob))
    with pytest.raises(InvalidConfig):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [("weighting", False),
                                        ("checkpoint_path", "/old/ck.json"),
                                        ("loss_curve_path", None)])
def test_checkpoint_with_legacy_key_is_rejected(tmp_path, key, value):
    """Keys that older checkpoints stored are unknown fields like any other."""
    path = tmp_path / "ck.json"
    save_checkpoint(VelocityModel(hidden=4, seed=0), TrainConfig(steps=1, hidden=4), path)
    blob = json.loads(path.read_text())
    blob["config"][key] = value
    path.write_text(json.dumps(blob))
    with pytest.raises(InvalidConfig, match=f"TrainConfig has no field {key}"):
        load_checkpoint(path)


def test_checkpoint_version_guard(tmp_path):
    path = tmp_path / "bad.json"
    # wrong version, no config, no params, not an object
    for blob in ({"version": 99}, {"version": 1},
                 {"version": 1, "config": {"steps": 1}, "widths": [6, 4, 4, 1]},
                 [1, 2]):
        path.write_text(json.dumps(blob))
        with pytest.raises(InvalidConfig):
            load_checkpoint(path)
