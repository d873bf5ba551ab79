"""Desk-scale conditional rectified flow for topology refinement.

The generator is a velocity field v(z, tau, cond) trained by flow matching
on straight-line interpolations z_tau = tau*x + (1-tau)*eps, so tau=1 is
clean data and the target velocity is x - eps. One Euler integration from
noise at tau=0 to tau=1 produces a refined mask image.

Latents are pixel grids (identity decoder); tokens are p x p pixel patches.
The adaptive loss weighting turns the pixel error between the one-shot
clean estimate and the ground truth into per-token weights w = 1 + lambda*e
that multiply the velocity residual inside the squared loss. Weights are
treated as constants during backpropagation.

The network is a small 3x3 convolutional stack implemented directly in
numpy (float64) so analytic gradients can be checked against central
finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, NonFiniteLoss, build_config
from .maskio import (GrayImage, as_gray, as_mask, check_same_shape, threshold,
                     write_atomic)
from .metrics import MetricReport, aggregate_reports, format_csv, metric_report
from .topology import betti_numbers

E_MAX = 1.0  # dynamic range of [0, 1] images
_COUNT_PLANE_SCALE = 8.0  # keeps count-conditioning planes O(1)


# --------------------------- flow algebra ops ---------------------------- #

def interpolate(x: np.ndarray, eps: np.ndarray, tau: float) -> np.ndarray:
    """z_tau = tau * x + (1 - tau) * eps (tau=1 is the clean latent)."""
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    check_same_shape(x, eps)
    return tau * x + (1.0 - tau) * eps


def target_velocity(x: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Constant ground-truth velocity x - eps of the straight-line flow."""
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    check_same_shape(x, eps)
    return x - eps


def predict_clean(z_tau: np.ndarray, tau: float, v_pred: np.ndarray) -> np.ndarray:
    """One-shot clean estimate z0 = z_tau + (1 - tau) * v_pred."""
    z_tau = np.asarray(z_tau, dtype=np.float64)
    v_pred = np.asarray(v_pred, dtype=np.float64)
    check_same_shape(z_tau, v_pred)
    return z_tau + (1.0 - tau) * v_pred


def error_map(y: GrayImage, y_img: GrayImage) -> np.ndarray:
    """Pixel-wise absolute error |y - y_img| between two [0, 1] images."""
    a = as_gray(y)
    b = as_gray(y_img)
    check_same_shape(a, b)
    return np.abs(a - b)


@dataclass(frozen=True)
class TokenWeightMap:
    """Per-token weights on the patch grid; w_i in [1, 1 + lam] always."""

    weights: np.ndarray


def token_weights(e_map: np.ndarray, patch_size: int, lam: float) -> TokenWeightMap:
    """w_i = 1 + lam * e_i with e_i the mean patch error over E_MAX."""
    e_arr = np.asarray(e_map, dtype=np.float64)
    h, w = e_arr.shape
    if h % patch_size or w % patch_size:
        raise DimensionMismatch(
            f"grid {h}x{w} not divisible by patch size {patch_size}"
        )
    if e_arr.size and (e_arr.min() < 0.0 or e_arr.max() > E_MAX):
        raise ValueError(f"error map entries must lie in [0, {E_MAX}]")
    ht, wt = h // patch_size, w // patch_size
    e_tok = e_arr.reshape(ht, patch_size, wt, patch_size).mean(axis=(1, 3)) / E_MAX
    return TokenWeightMap(weights=1.0 + lam * e_tok)


def _broadcast_weights(w: TokenWeightMap, shape: tuple[int, int]) -> np.ndarray:
    ht, wt = w.weights.shape
    h, v = shape
    if h % ht or v % wt or h // ht != v // wt:
        raise DimensionMismatch(
            f"weight grid {ht}x{wt} does not tile latent {h}x{v}"
        )
    p = h // ht
    # the bytes of np.kron(weights, np.ones((p, p))): a product by 1.0 is exact
    return w.weights.repeat(p, 0).repeat(p, 1)


def weighted_flow_loss(v_pred: np.ndarray, v_target: np.ndarray,
                       w: TokenWeightMap) -> float:
    """Mean over entries of (w (.) (v_pred - v_target))^2.

    Each token weight is broadcast over its patch and sits inside the
    square, so a patch with weight 11 and residual 1 contributes 121.
    """
    v_pred = np.asarray(v_pred, dtype=np.float64)
    v_target = np.asarray(v_target, dtype=np.float64)
    check_same_shape(v_pred, v_target)
    return _loss_and_dv(v_pred, v_target, w)[0]


def _loss_and_dv(v_pred: np.ndarray, v_target: np.ndarray,
                 w: TokenWeightMap) -> tuple[float, np.ndarray]:
    """The weighted flow loss and its gradient dL/dv_pred, weights held fixed."""
    wb = _broadcast_weights(w, v_pred.shape)
    resid = v_pred - v_target
    loss = float(np.mean((wb * resid) ** 2))
    return loss, 2.0 * (wb ** 2) * resid / resid.size


# ------------------------------ the model -------------------------------- #

def _conv3(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """Same-padded 3x3 convolution as one BLAS product on im2col rows.

    Returns the output and the padded input, which ``_conv3_param_grads``
    reads. The products here and in the backward pass use the operand
    layouts numpy's einsum picks for the same contractions, so every bit
    matches the einsum form (on a 1x1 canvas, up to the sign of a zero
    weight gradient): ``rows @ W.T`` must not become ``W @ cols``, which
    rounds differently for one output channel.

    ``rows`` is filled by nine slice copies, one per tap, each moving h*w*c
    elements. A copy of a transposed window view of ``xp`` runs numpy's
    inner loop over 3 elements at a time, and was the largest cost of a step.
    """
    c, h, w = x.shape
    f = weight.shape[0]
    xp = np.zeros((c, h + 2, w + 2))
    xp[:, 1:-1, 1:-1] = x
    rows = np.empty((h, w, c, 3, 3))
    for i in range(3):
        for j in range(3):
            rows[..., i, j] = xp[:, i:i + h, j:j + w].transpose(1, 2, 0)
    out = (rows.reshape(h * w, c * 9) @ weight.reshape(f, c * 9).T).T.reshape(f, h, w)
    # free the copy before the cached output is allocated, or the heap keeps
    # its pages: holding it raised flow-32's peak RSS by about 0.8 MiB
    del rows
    return out + bias[:, None, None], xp


def _conv3_param_grads(weight: np.ndarray, xp: np.ndarray, dout: np.ndarray):
    """Gradients wrt weight and bias.

    ``xp`` is the padded input that ``_conv3`` returns. ``cols`` is filled
    by nine slice copies of it, as ``rows`` is; it is a layout of its own
    because the transposed ``rows`` rounds differently.
    """
    f, c = weight.shape[:2]
    h, w = dout.shape[1:]
    cols = np.empty((c, 3, 3, h, w))
    for i in range(3):
        for j in range(3):
            cols[:, i, j] = xp[:, i:i + h, j:j + w]
    d_weight = (cols.reshape(c * 9, h * w) @ dout.reshape(f, h * w).T).T
    return d_weight.reshape(weight.shape), dout.sum(axis=(1, 2))


def _conv3_input_grad(weight: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """Gradient wrt the input of ``_conv3``.

    With one output channel each tap is a product of one weight and one
    output gradient, so plain multiplies into one reused buffer give the
    bits of the matrix product.
    """
    f, c = weight.shape[:2]
    h, w = dout.shape[1:]
    d2 = dout.reshape(f, h * w)
    dxp = np.zeros((c, h + 2, w + 2))
    if f == 1:
        tap = np.empty((c, h, w))
    for i in range(3):
        for j in range(3):
            if f == 1:
                np.multiply(weight[0, :, i, j, None, None], dout[0], out=tap)
            else:
                tap = (weight[:, :, i, j].T @ d2).reshape(c, h, w)
            dxp[:, i:i + h, j:j + w] += tap
    return dxp[:, 1:-1, 1:-1]


class VelocityModel:
    """Small convolutional velocity field on single-channel pixel latents.

    Input channels: the noisy latent, the broadcast time scalar, and four
    condition planes (image, imperfect mask, component count, loop count;
    counts are constant planes standing in for the textual topology
    constraint). Hidden layers are ReLU, the output layer is linear.
    """

    N_COND = 4

    def __init__(self, hidden: int, seed):
        rng = np.random.default_rng(seed)
        self.widths = (2 + self.N_COND, hidden, hidden, 1)
        self.params: list[list[np.ndarray]] = []
        for cin, cout in zip(self.widths[:-1], self.widths[1:]):
            scale = math.sqrt(2.0 / (cin * 9))
            self.params.append([
                rng.normal(0.0, scale, size=(cout, cin, 3, 3)),
                np.zeros(cout),
            ])

    def _stack_input(self, z: np.ndarray, tau: float,
                     cond: np.ndarray) -> np.ndarray:
        if cond.shape != (self.N_COND, *z.shape):
            raise DimensionMismatch(
                f"conditioning shape {cond.shape} does not match latent {z.shape}"
            )
        return np.concatenate(
            [z[None], np.full((1, *z.shape), tau), cond], axis=0
        )

    def forward_cached(self, z: np.ndarray, tau: float, cond: np.ndarray):
        a = self._stack_input(np.asarray(z, dtype=np.float64), tau, cond)
        caches = []
        last = len(self.params) - 1
        for li, (weight, bias) in enumerate(self.params):
            pre, xp = _conv3(a, weight, bias)
            caches.append((xp, pre))
            a = np.maximum(pre, 0.0) if li < last else pre
        return a[0], caches

    def forward(self, z: np.ndarray, tau: float, cond: np.ndarray) -> np.ndarray:
        return self.forward_cached(z, tau, cond)[0]

    def backward(self, caches, d_out: np.ndarray):
        """Gradients of a scalar loss wrt all parameters, given dL/dv."""
        grads = [None] * len(self.params)
        da = d_out[None]
        last = len(self.params) - 1
        for li in range(last, -1, -1):
            xp, pre = caches[li]
            dpre = da if li == last else da * (pre > 0)
            grads[li] = list(_conv3_param_grads(self.params[li][0], xp, dpre))
            # layer 0's input is the data, whose gradient nothing reads
            if li > 0:
                da = _conv3_input_grad(self.params[li][0], dpre)
        return grads


def training_loss_and_grads(model: VelocityModel, z: np.ndarray, tau: float,
                            cond: np.ndarray, v_target: np.ndarray,
                            w: TokenWeightMap):
    """Adaptively weighted flow loss and its analytic parameter gradients.

    The weight map is an input here, not recomputed, which is exactly the
    trained objective: weights are constants wrt the parameters.
    """
    v_pred, caches = model.forward_cached(z, tau, cond)
    loss, d_v = _loss_and_dv(v_pred, np.asarray(v_target, dtype=np.float64), w)
    return loss, model.backward(caches, d_v)


class _Adam:
    """First-order adaptive-moment update."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr: float):
        self.lr = lr
        self.t = 0
        self.m = [[np.zeros_like(a) for a in layer] for layer in params]
        self.v = [[np.zeros_like(a) for a in layer] for layer in params]

    def step(self, params, grads) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for layer, glayer, mlayer, vlayer in zip(params, grads, self.m, self.v):
            for k in range(len(layer)):
                g = glayer[k]
                mlayer[k] = self.beta1 * mlayer[k] + (1 - self.beta1) * g
                vlayer[k] = self.beta2 * vlayer[k] + (1 - self.beta2) * g * g
                m_hat = mlayer[k] / b1c
                v_hat = vlayer[k] / b2c
                layer[k] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ------------------------------ training --------------------------------- #

@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; a checkpoint stores exactly these fields."""

    steps: int = 2000
    batch_size: int = 4
    learning_rate: float = 1e-3
    lam: float = 10.0  # adaptive weighting strength; 0 is plain flow matching
    patch_size: int = 8
    seed: int = 0
    hidden: int = 16

    def __post_init__(self) -> None:
        # each test is written so that NaN, which fails every comparison, fails it
        if self.steps < 1:
            raise InvalidConfig("steps must be >= 1")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise InvalidConfig(f"lam must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidConfig(f"learning_rate must be finite and > 0, "
                                f"got {self.learning_rate}")
        if self.batch_size < 1 or self.patch_size < 1 or self.hidden < 1:
            raise InvalidConfig("batch_size, patch_size, hidden must be >= 1")


@dataclass
class TrainResult:
    model: VelocityModel
    losses: list[float]
    config: TrainConfig


def make_condition(image: GrayImage, imperfect, n_components: int,
                   n_loops: int) -> np.ndarray:
    """Stack the four conditioning planes for one refinement input."""
    img = as_gray(image)
    imp = as_mask(imperfect).astype(np.float64)
    check_same_shape(img, imp)
    comp_plane = np.full(img.shape, n_components / _COUNT_PLANE_SCALE)
    loop_plane = np.full(img.shape, n_loops / _COUNT_PLANE_SCALE)
    return np.stack([img, imp, comp_plane, loop_plane])


def _prepare_triples(triples, patch_size: int):
    if len(triples) == 0:
        raise InvalidConfig("training needs at least one (image, imperfect, gt) triple")
    prepared = []
    for image, imperfect, gt in triples:
        gt_mask = as_mask(gt)
        h, w = gt_mask.shape
        if h % patch_size or w % patch_size:
            raise DimensionMismatch(
                f"canvas {h}x{w} not divisible by patch size {patch_size}"
            )
        summary = betti_numbers(gt_mask)
        cond = make_condition(image, imperfect, summary.beta0, summary.beta1)
        prepared.append((gt_mask.astype(np.float64), cond))
    return prepared


def train(config: TrainConfig, triples: Sequence) -> TrainResult:
    """Train the velocity field on (image, imperfect mask, gt mask) triples.

    Per step: draw a batch, sample tau ~ U(0,1) and a standard normal noise
    grid per sample, predict the velocity, form the one-shot clean estimate,
    decode (identity + clamp to [0,1]), derive the pixel error map against
    the gt, turn it into token weights (held constant for the gradient), and
    apply one adaptive-moment update of the weighted flow loss.

    Pure computation: nothing is written. Persist the result with
    ``save_checkpoint`` and ``write_loss_curve``.
    """
    prepared = _prepare_triples(triples, config.patch_size)
    model_ss, data_ss = np.random.SeedSequence(config.seed).spawn(2)
    model = VelocityModel(hidden=config.hidden, seed=model_ss)
    rng = np.random.default_rng(data_ss)
    opt = _Adam(model.params, lr=config.learning_rate)
    losses: list[float] = []
    for step in range(config.steps):
        batch_loss = 0.0
        grad_acc = None
        for _ in range(config.batch_size):
            x, cond = prepared[int(rng.integers(len(prepared)))]
            tau = float(rng.uniform())
            eps = rng.standard_normal(x.shape)
            z = interpolate(x, eps, tau)
            v_t = target_velocity(x, eps)
            v_pred, caches = model.forward_cached(z, tau, cond)
            z0 = predict_clean(z, tau, v_pred)
            y_img = np.clip(z0, 0.0, 1.0)
            e_map = error_map(x, y_img)
            wmap = token_weights(e_map, config.patch_size, config.lam)
            loss, d_v = _loss_and_dv(v_pred, v_t, wmap)
            batch_loss += loss
            grads = model.backward(caches, d_v)
            if grad_acc is None:
                grad_acc = grads
            else:
                for gl, al in zip(grads, grad_acc):
                    for k in range(len(gl)):
                        al[k] += gl[k]
        batch_loss /= config.batch_size
        for layer in grad_acc:
            for k in range(len(layer)):
                layer[k] /= config.batch_size
        if not math.isfinite(batch_loss):
            raise NonFiniteLoss(f"loss became {batch_loss} at step {step}")
        opt.step(model.params, grad_acc)
        losses.append(batch_loss)
    return TrainResult(model=model, losses=losses, config=config)


def write_loss_curve(losses: Sequence[float], path) -> None:
    """CSV with a ``step,loss`` header and one row per optimizer step."""
    rows = "".join(f"{i},{loss:.8g}\n" for i, loss in enumerate(losses))
    write_atomic(path, ("step,loss\n" + rows).encode("utf-8"))


def save_checkpoint(model: VelocityModel, config: TrainConfig, path) -> None:
    """Versioned JSON checkpoint: hyperparameters and flat parameters, no paths."""
    blob = {
        "version": 1,
        "widths": list(model.widths),
        "config": asdict(config),
        "params": [
            {"weight": w.tolist(), "bias": b.tolist()} for w, b in model.params
        ],
    }
    write_atomic(path, json.dumps(blob, sort_keys=True).encode("utf-8"))


def load_checkpoint(path) -> tuple[VelocityModel, TrainConfig]:
    """Read a checkpoint written by ``save_checkpoint``; raise InvalidConfig,
    naming the path, on a config value of the wrong type or out of range, or
    on widths or parameters that do not fit the stored hidden width."""
    with open(path, "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    try:
        return _checkpoint_from(blob)
    except InvalidConfig as exc:
        raise InvalidConfig(f"checkpoint {path}: {exc}") from None


def _checkpoint_from(blob) -> tuple[VelocityModel, TrainConfig]:
    if not isinstance(blob, dict):
        raise InvalidConfig("must hold a JSON object")
    if blob.get("version") != 1:
        raise InvalidConfig(f"unsupported version {blob.get('version')}")
    try:
        stored = {**blob["config"]}
    except (KeyError, TypeError) as exc:  # missing or not a mapping
        raise InvalidConfig(f"bad config: {exc}") from None
    config = build_config(TrainConfig, stored)
    try:
        params = [
            [np.asarray(entry["weight"], dtype=np.float64),
             np.asarray(entry["bias"], dtype=np.float64)]
            for entry in blob["params"]
        ]
        widths = tuple(blob["widths"])
    except (KeyError, TypeError, ValueError) as exc:  # missing or malformed
        raise InvalidConfig(f"bad parameters: {exc!r}") from None
    model = VelocityModel(hidden=config.hidden, seed=0)
    got = [[w.shape, b.shape] for w, b in params]
    if widths != model.widths or got != [[w.shape, b.shape] for w, b in model.params]:
        raise InvalidConfig(f"widths {list(widths)} or parameter shapes do not fit "
                            f"hidden width {config.hidden}")
    if not all(np.isfinite(a).all() for layer in params for a in layer):
        raise InvalidConfig("parameters are not all finite")
    model.params = params
    return model, config


# ------------------------------ inference -------------------------------- #

def sample(model: VelocityModel, image: GrayImage, imperfect, steps: int,
           seed: int, n_components: int, n_loops: int) -> GrayImage:
    """Integrate the flow from noise to a refined mask image.

    Explicit Euler: z <- z + (1/steps) * v(z, k/steps, cond) for k = 0..steps-1,
    starting from a seeded standard normal grid; the result is clamped to
    [0, 1]. Deterministic per seed. ``n_components`` and ``n_loops`` are the
    counts the topology prompt states for the refined mask.
    """
    if steps < 1:
        raise InvalidConfig("steps must be >= 1")
    cond = make_condition(image, imperfect, n_components, n_loops)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(cond.shape[1:])
    dt = 1.0 / steps
    for k in range(steps):
        z = z + dt * model.forward(z, k / steps, cond)
    return np.clip(z, 0.0, 1.0)


def refine_eval(model: VelocityModel, triples: Sequence, steps: int = 16,
                seed: int = 0, csv_path=None) -> tuple[MetricReport, MetricReport]:
    """Score imperfect inputs and refined outputs against the ground truth.

    Returns the aggregated (input, refined) report pair; per-sample rows and
    the two means are emitted as CSV when a path is given. The topology
    constraint planes are derived from each gt, mirroring the counts a
    refinement prompt states.
    """
    rows = []  # input and refined report of each triple, in turn
    for i, (image, imperfect, gt) in enumerate(triples):
        gt_mask = as_mask(gt)
        summary = betti_numbers(gt_mask)
        refined_img = sample(model, image, imperfect, steps, seed + i,
                             summary.beta0, summary.beta1)
        refined_mask = threshold(refined_img, 0.5)
        rows.append((f"input_{i:04d}", metric_report(as_mask(imperfect), gt_mask)))
        rows.append((f"refined_{i:04d}", metric_report(refined_mask, gt_mask)))
    agg_in = aggregate_reports([r for _, r in rows[0::2]])
    agg_out = aggregate_reports([r for _, r in rows[1::2]])
    if csv_path:
        rows.append(("input_mean", agg_in))
        rows.append(("refined_mean", agg_out))
        write_atomic(csv_path, format_csv(rows).encode("utf-8"))
    return agg_in, agg_out
