"""Minimal trainer for learnable feature-weight matrices.

With the input embedding frozen, a replacement layer's output Re(A Phi(x))
is linear in A, so gradients are exact outer products against the
conjugated features; training A directly is what makes the layer a
compressed stand-in for the original weights.  Phi depends only on the
inputs and the frozen draws, so ``fit_A`` computes it once per split and
reuses it for every SGD batch and every epoch's full-split loss.  Plain SGD
with optional momentum; the point is validated trainability, not
leaderboard accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._seeds import MISC_STREAM, rng_for
from .layers import SnnkLayer


class DivergenceDetected(RuntimeError):
    """Training loss became non-finite or exceeded 10x its initial value."""


# ---------------------------------------------------------------------------
# data


@dataclass
class Dataset:
    X: np.ndarray  # (n, d)
    Y: np.ndarray  # (n, k) targets, or (n,) integer labels
    split: str = "train"

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y)
        if len(self.X) < 1 or len(self.X) != len(self.Y):
            raise ValueError("X and Y must be nonempty and aligned")

    @property
    def n(self) -> int:
        return len(self.X)

    @property
    def is_classification(self) -> bool:
        return self.Y.ndim == 1 and np.issubdtype(self.Y.dtype, np.integer)


def generate_blobs(n: int, d: int, k: int, separation: float, seed: int) -> Dataset:
    """k unit-variance Gaussian clusters with pairwise mean distance >= separation."""
    if k < 2 or separation <= 0:
        raise ValueError("need k >= 2 and separation > 0")
    rng = rng_for(seed, 300, 0, MISC_STREAM)
    means = rng.standard_normal((k, d))
    dists = [
        np.linalg.norm(means[i] - means[j]) for i in range(k) for j in range(i + 1, k)
    ]
    means *= separation / min(dists)
    labels = np.arange(n) % k
    X = means[labels] + rng.standard_normal((n, d))
    return Dataset(X=X, Y=labels.astype(np.int64))


def split_dataset(data: Dataset, validation_frac: float, seed: int):
    rng = rng_for(seed, 301, 0, MISC_STREAM)
    perm = rng.permutation(data.n)
    n_val = int(round(validation_frac * data.n))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    return (
        Dataset(X=data.X[train_idx], Y=data.Y[train_idx], split="train"),
        Dataset(X=data.X[val_idx], Y=data.Y[val_idx], split="validation"),
    )


# ---------------------------------------------------------------------------
# configuration and heads


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    loss: str = "mse"  # or "cross_entropy"
    seed: int = 0
    l2: float = 0.0
    momentum: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.loss not in ("mse", "cross_entropy"):
            raise ValueError("loss must be 'mse' or 'cross_entropy'")
        if self.l2 < 0:
            raise ValueError("l2 must be nonnegative")


@dataclass
class AffineHead:
    W: np.ndarray  # (k, l)
    b: np.ndarray  # (k,)

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        self.b = np.asarray(self.b, dtype=float)


def make_learnable_layer(feature_map, out_dim: int, seed: int) -> SnnkLayer:
    """Free A initialized at std 1/sqrt(M); complex iff the features are."""
    M = feature_map.total_features
    rng = rng_for(seed, 302, 0, MISC_STREAM)
    A = rng.standard_normal((out_dim, M)) / math.sqrt(M)
    probe = feature_map.features(np.zeros(feature_map.in_dim))
    if np.iscomplexobj(probe):
        A = A.astype(complex)
    return SnnkLayer(feature_map=feature_map, A=A, learnable=True)


def make_head(out_dim: int, in_dim: int, seed: int) -> AffineHead:
    rng = rng_for(seed, 303, 0, MISC_STREAM)
    return AffineHead(
        W=rng.standard_normal((out_dim, in_dim)) / math.sqrt(in_dim),
        b=np.zeros(out_dim),
    )


# ---------------------------------------------------------------------------
# losses


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _forward(feats, A, W, b):
    hidden = (feats @ A.T).real  # (n, l)
    if W is None:
        return hidden, hidden
    return hidden, hidden @ W.T + b


def _loss_and_grad(pred, Y, loss):
    """Mean loss and d(loss)/d(pred)."""
    n = len(pred)
    if loss == "mse":
        diff = pred - Y
        return float(np.sum(diff * diff) / n), 2.0 * diff / n
    probs = _softmax(pred)
    eps = 1e-300
    ll = -np.log(probs[np.arange(n), Y] + eps)
    grad = probs.copy()
    grad[np.arange(n), Y] -= 1.0
    return float(np.mean(ll)), grad / n


def evaluate(layer: SnnkLayer, head, data: Dataset, loss: str, feats=None):
    """(loss, accuracy) on the full split; accuracy is NaN for mse.

    ``feats`` is ``layer.feature_map.features_many(data.X)``, computed here
    when not given.
    """
    if feats is None:
        feats = layer.feature_map.features_many(data.X)
    W, b = (head.W, head.b) if head is not None else (None, None)
    _, pred = _forward(feats, layer.A, W, b)
    if loss == "cross_entropy":
        value, _ = _loss_and_grad(pred, data.Y, loss)
        acc = float(np.mean(pred.argmax(axis=1) == data.Y))
        return value, acc
    Y = data.Y if data.Y.ndim == 2 else data.Y[:, None]
    value, _ = _loss_and_grad(pred, Y, loss)
    return value, float("nan")


# ---------------------------------------------------------------------------
# training


def _grads(feats, A, W, b, Y, loss, l2):
    hidden, pred = _forward(feats, A, W, b)
    value, dpred = _loss_and_grad(pred, Y, loss)
    if W is not None:
        gW = dpred.T @ hidden + l2 * W
        gb = dpred.sum(axis=0)
        dhidden = dpred @ W
    else:
        gW = gb = None
        dhidden = dpred
    # d Re(A f) / dA = conj(f); exact because the output is linear in A
    gA = dhidden.T @ feats.conj()
    if not np.iscomplexobj(A):
        gA = gA.real
    gA = gA + l2 * A
    if l2 > 0:
        value = value + l2 * (
            float(np.sum(np.abs(A) ** 2))
            + (float(np.sum(W**2)) if W is not None else 0.0)
        )
    return value, gA, gW, gb


def fit_A(layer: SnnkLayer, head, data: Dataset, cfg: TrainConfig,
          validation: Dataset | None = None):
    """Mini-batch SGD on A (and the affine head); returns (layer, head, history).

    Phi is computed once for the training split and once for the validation
    split; the training matrix is sliced for every SGD batch, and both are
    reused for every epoch's full-split loss.  History rows are (epoch,
    split, loss, accuracy), evaluated before training and after each epoch.
    Raises DivergenceDetected if the training loss is non-finite, the
    initial one included, or passes 10x its starting value; a non-finite
    mini-batch loss raises at once, before that batch's step.
    """
    if not layer.learnable:
        raise ValueError("layer is not in learnable mode")
    if cfg.batch_size > data.n:
        raise ValueError("batch_size exceeds dataset size")
    if cfg.loss == "cross_entropy" and head is None:
        raise ValueError("cross-entropy training expects a classification head")

    A = layer.A.copy()
    headW = head.W.copy() if head is not None else None
    headb = head.b.copy() if head is not None else None
    vA = np.zeros_like(A)
    vW = np.zeros_like(headW) if headW is not None else None
    vb = np.zeros_like(headb) if headb is not None else None

    feats = layer.feature_map.features_many(data.X)
    val_feats = (
        layer.feature_map.features_many(validation.X) if validation is not None else None
    )
    Y = data.Y if (cfg.loss == "cross_entropy" or data.Y.ndim == 2) else data.Y[:, None]

    def snapshot():
        lay = SnnkLayer(feature_map=layer.feature_map, A=A.copy(), learnable=True,
                        provenance=layer.provenance)
        hd = AffineHead(W=headW.copy(), b=headb.copy()) if head is not None else None
        return lay, hd

    history = []
    for epoch in range(cfg.epochs + 1):
        if epoch > 0:
            order = rng_for(cfg.seed, 310, epoch, MISC_STREAM).permutation(data.n)
            for batch, start in enumerate(range(0, data.n, cfg.batch_size)):
                idx = order[start : start + cfg.batch_size]
                batch_loss, gA, gW, gb = _grads(
                    feats[idx], A, headW, headb, Y[idx], cfg.loss, cfg.l2
                )
                if not math.isfinite(batch_loss):
                    raise DivergenceDetected(
                        f"loss {batch_loss:.3e} at epoch {epoch}, batch {batch} is non-finite"
                    )
                vA = cfg.momentum * vA - cfg.learning_rate * gA
                A = A + vA
                if head is not None:
                    vW = cfg.momentum * vW - cfg.learning_rate * gW
                    vb = cfg.momentum * vb - cfg.learning_rate * gb
                    headW = headW + vW
                    headb = headb + vb
        lay, hd = snapshot()
        loss_value, acc = evaluate(lay, hd, data, cfg.loss, feats=feats)
        history.append((epoch, "train", loss_value, acc))
        if epoch == 0:
            initial_loss = loss_value
        if validation is not None:
            vloss, vacc = evaluate(lay, hd, validation, cfg.loss, feats=val_feats)
            history.append((epoch, "validation", vloss, vacc))
        if not math.isfinite(loss_value) or loss_value > 10.0 * max(initial_loss, 1e-30):
            raise DivergenceDetected(
                f"loss {loss_value:.3e} at epoch {epoch} is non-finite or exceeded "
                f"10x initial {initial_loss:.3e}"
            )
    return lay, hd, history


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(layer: SnnkLayer, head, data_batch: Dataset, loss: str = "mse",
               step: float = 1e-5, max_entries: int = 64) -> float:
    """Max relative error, analytic vs central finite differences.

    Checks every entry of A (real and imaginary parts) and of the head up
    to ``max_entries`` per array, scanning in a fixed order.
    """
    if data_batch.n < 1:
        raise ValueError("batch must be nonempty")
    feats = layer.feature_map.features_many(data_batch.X)
    Y = data_batch.Y
    if loss == "mse" and Y.ndim == 1 and not data_batch.is_classification:
        Y = Y[:, None]
    if loss == "mse" and data_batch.is_classification:
        raise ValueError("mse check expects real targets")

    def loss_at(A, W, b):
        _, pred = _forward(feats, A, W, b)
        value, _ = _loss_and_grad(pred, Y, loss)
        return value

    A0 = layer.A.copy()
    W0 = head.W.copy() if head is not None else None
    b0 = head.b.copy() if head is not None else None
    _, gA, gW, gb = _grads(feats, A0, W0, b0, Y, loss, l2=0.0)

    worst = 0.0

    def compare(analytic, numeric):
        nonlocal worst
        scale = max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, abs(analytic - numeric) / scale)

    deltas = [1.0]
    if np.iscomplexobj(A0):
        deltas.append(1j)
    for delta in deltas:
        grad_part = gA.real if delta == 1.0 else gA.imag
        for idx in range(min(A0.size, max_entries)):
            bump = np.zeros_like(A0).reshape(-1)
            bump[idx] = delta * step
            bump = bump.reshape(A0.shape)
            up = loss_at(A0 + bump, W0, b0)
            down = loss_at(A0 - bump, W0, b0)
            compare(grad_part.reshape(-1)[idx], (up - down) / (2 * step))

    if head is not None:
        for arr, grad, name in ((W0, gW, "W"), (b0, gb, "b")):
            for idx in range(min(arr.size, max_entries)):
                bump = np.zeros_like(arr).reshape(-1)
                bump[idx] = step
                bump = bump.reshape(arr.shape)
                if name == "W":
                    up = loss_at(A0, W0 + bump, b0)
                    down = loss_at(A0, W0 - bump, b0)
                else:
                    up = loss_at(A0, W0, b0 + bump)
                    down = loss_at(A0, W0, b0 - bump)
                compare(grad.reshape(-1)[idx], (up - down) / (2 * step))
    return worst


# ---------------------------------------------------------------------------
# parameter accounting


def ffl_param_count(in_dim: int, out_dim: int) -> int:
    """Weight entries of the dense layer being replaced (biases excluded)."""
    return in_dim * out_dim
