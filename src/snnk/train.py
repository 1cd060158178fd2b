"""Minimal trainer for learnable feature-weight matrices.

With the input embedding frozen, a replacement layer's output Re(A Phi(x))
is linear in A, so gradients are exact outer products against the
features; training A directly is what makes the layer a compressed
stand-in for the original weights.  Training runs in real coordinates:
complex features become the real design F = [Re Phi | Im Phi] and a
complex A trains as A_s = [Re A | -Im A], so Re(Phi A^T) = F A_s^T and
every product is a real GEMM; relu features and weights are real already
and pass through.  Phi depends only on the inputs and the frozen draws, so
``fit_A`` builds F once per split and reuses it for every SGD batch and
every epoch's full-split loss.  Plain SGD with optional momentum and an
``l2 (|A|^2 + |W|^2)`` penalty; the point is validated trainability, not
leaderboard accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._seeds import MISC_STREAM, rng_for
from .layers import SnnkLayer
from .urf import ConfigError


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


def check_blobs(k: int, separation: float):
    """A ConfigError naming ``k`` or ``separation`` if ``generate_blobs`` cannot use it."""
    if k < 2:
        raise ConfigError("k", f"must be >= 2, got {k}")
    if not separation > 0:
        raise ConfigError("separation", f"must be > 0, got {separation}")


def generate_blobs(n: int, d: int, k: int, separation: float, seed: int) -> Dataset:
    """k unit-variance Gaussian clusters with pairwise mean distance >= separation."""
    for key, size in (("n", n), ("d", d)):
        if size < 1:
            raise ConfigError(key, f"must be >= 1, got {size}")
    check_blobs(k, separation)
    rng = rng_for(seed, 300, 0, MISC_STREAM)
    means = rng.standard_normal((k, d))
    dists = [
        np.linalg.norm(means[i] - means[j]) for i in range(k) for j in range(i + 1, k)
    ]
    means *= separation / min(dists)
    labels = np.arange(n) % k
    X = means[labels] + rng.standard_normal((n, d))
    return Dataset(X=X, Y=labels.astype(np.int64))


def validation_count(n: int, validation_frac: float) -> int:
    """Validation rows of ``n`` in ``split_dataset``; a ConfigError if a split would be empty."""
    n_val = int(round(validation_frac * n)) if 0.0 < validation_frac < 1.0 else 0
    if not 0 < n_val < n:
        raise ConfigError("validation_frac", f"must leave at least one of the {n} rows in "
                          f"each split, got {validation_frac}")
    return n_val


def split_dataset(data: Dataset, validation_frac: float, seed: int):
    n_val = validation_count(data.n, validation_frac)
    rng = rng_for(seed, 301, 0, MISC_STREAM)
    perm = rng.permutation(data.n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    return (
        Dataset(X=data.X[train_idx], Y=data.Y[train_idx], split="train"),
        Dataset(X=data.X[val_idx], Y=data.Y[val_idx], split="validation"),
    )


# ---------------------------------------------------------------------------
# configuration and heads


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings for ``fit_A``; a failing value raises a ConfigError naming its field."""

    learning_rate: float
    epochs: int
    batch_size: int
    loss: str = "mse"  # or "cross_entropy"
    seed: int = 0
    l2: float = 0.0
    momentum: float = 0.0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate", f"must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError("epochs", f"must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError("batch_size", f"must be >= 1, got {self.batch_size}")
        if self.loss not in ("mse", "cross_entropy"):
            raise ConfigError("loss", f"expected 'mse' or 'cross_entropy', got {self.loss!r}")
        if not self.l2 >= 0:
            raise ConfigError("l2", f"must be >= 0, got {self.l2}")


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
    return SnnkLayer(feature_map=feature_map, A=A)


def make_head(out_dim: int, in_dim: int, seed: int) -> AffineHead:
    rng = rng_for(seed, 303, 0, MISC_STREAM)
    return AffineHead(
        W=rng.standard_normal((out_dim, in_dim)) / math.sqrt(in_dim),
        b=np.zeros(out_dim),
    )


# ---------------------------------------------------------------------------
# real coordinates


def real_design(feats: np.ndarray) -> np.ndarray:
    """The real design ``[Re Phi | Im Phi]`` of a feature matrix.

    Real (relu) features pass through unchanged.  With the weights stacked
    by ``_stack_weights``, ``Re(Phi A^T) = F A_s^T`` exactly.
    """
    if not np.iscomplexobj(feats):
        return feats
    return np.concatenate((feats.real, feats.imag), axis=-1)


def _stack_weights(A: np.ndarray, design: np.ndarray) -> np.ndarray:
    """A as the real weights of ``design``: ``[Re A | -Im A]`` for a complex
    A, a copy of a real A.  A must be complex iff the features are."""
    if np.iscomplexobj(A):
        A_s = np.concatenate((A.real, -A.imag), axis=1)
    else:
        A_s = np.array(A, dtype=float)
    if A_s.shape[1] != design.shape[1]:
        raise ValueError("A must be complex iff the features are complex")
    return A_s


def _unstack_weights(A_s: np.ndarray, complex_weights: bool) -> np.ndarray:
    """The feature-weight matrix whose stacked form is ``A_s``."""
    if not complex_weights:
        return A_s.copy()
    M = A_s.shape[1] // 2
    A = np.empty((A_s.shape[0], M), dtype=complex)
    A.real = A_s[:, :M]
    A.imag = -A_s[:, M:]
    return A


# ---------------------------------------------------------------------------
# losses


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _loss_and_grad(pred, Y, loss):
    """Mean loss and d(loss)/d(pred)."""
    n = len(pred)
    if loss == "mse":
        diff = pred - Y
        value = float(np.sum(diff * diff) / n)
        diff *= 2.0
        diff /= n
        return value, diff
    probs = _softmax(pred)
    rows = np.arange(n)
    ll = -np.log(probs[rows, Y] + 1e-300)
    probs[rows, Y] -= 1.0
    probs /= n
    return float(ll.sum() / n), probs


def evaluate(layer: SnnkLayer, head, data: Dataset, loss: str, feats=None):
    """(loss, accuracy) on the full split; accuracy is NaN for mse.

    ``feats`` is ``layer.feature_map.features_many(data.X)`` or its real
    design ``real_design(...)`` (the same array for real features), computed
    here when not given.  The head is folded into the layer's weights first,
    so the pass over the design yields the k outputs directly.
    """
    if feats is None:
        feats = layer.feature_map.features_many(data.X)
    feats = real_design(feats)
    A = _stack_weights(layer.A, feats)
    if head is None:
        pred = feats @ A.T
    else:
        pred = feats @ (head.W @ A).T + head.b
    if loss == "cross_entropy":
        value, _ = _loss_and_grad(pred, data.Y, loss)
        return value, float(np.mean(pred.argmax(axis=1) == data.Y))
    Y = data.Y if data.Y.ndim == 2 else data.Y[:, None]
    value, _ = _loss_and_grad(pred, Y, loss)
    return value, float("nan")


# ---------------------------------------------------------------------------
# training


def _grads(feats, A, W, b, Y, loss, l2):
    """Objective ``loss + l2 (|A|^2 + |W|^2)`` and its gradients in A, W, b.

    ``feats`` is a real design and ``A`` its stacked weights; the output is
    linear in A, so its gradient is an exact outer product with the design.
    """
    hidden = feats @ A.T  # (n, l)
    if W is None:
        value, dpred = _loss_and_grad(hidden, Y, loss)
        gA = dpred.T @ feats
        gW = gb = None
    else:
        value, dpred = _loss_and_grad(hidden @ W.T + b, Y, loss)
        gA = W.T @ (dpred.T @ feats)
        gW = dpred.T @ hidden
        gb = dpred.sum(axis=0)
    if l2 > 0:
        penalty = float(np.sum(A * A))
        gA += (2.0 * l2) * A
        if W is not None:
            penalty += float(np.sum(W * W))
            gW += (2.0 * l2) * W
        value += l2 * penalty
    return value, gA, gW, gb


def fit_A(layer: SnnkLayer, head, data: Dataset, cfg: TrainConfig,
          validation: Dataset | None = None):
    """Mini-batch SGD on A (and the affine head); returns (layer, head, history).

    Training runs in real coordinates: Phi is computed once for the training
    split and once for the validation split and turned into the real design
    ``real_design(Phi)``, and a complex A trains as ``[Re A | -Im A]``.  The
    training design is sliced for every SGD batch, and both designs are
    reused for every epoch's full-split loss.  History rows are (epoch,
    split, loss, accuracy), evaluated before training and after each epoch.
    Raises DivergenceDetected if the training loss is non-finite, the
    initial one included, or passes 10x its starting value; a non-finite
    mini-batch loss raises at once, before that batch's step, and so does
    a non-finite entry of A at the end of an epoch.
    """
    if cfg.batch_size > data.n:
        raise ValueError("batch_size exceeds dataset size")
    if cfg.loss == "cross_entropy" and head is None:
        raise ValueError("cross-entropy training expects a classification head")
    if cfg.loss == "mse" and data.is_classification:
        raise ValueError("mse training expects real targets, got class labels")

    feats = real_design(layer.feature_map.features_many(data.X))
    val_feats = (
        real_design(layer.feature_map.features_many(validation.X))
        if validation is not None else None
    )
    Y = data.Y if (cfg.loss == "cross_entropy" or data.Y.ndim == 2) else data.Y[:, None]

    A = _stack_weights(layer.A, feats)
    params = [A] if head is None else [A, head.W.copy(), head.b.copy()]
    W, b = params[1:] if head is not None else (None, None)
    velocities = [np.zeros_like(p) for p in params]

    complex_weights = np.iscomplexobj(layer.A)

    def snapshot():
        lay = SnnkLayer(feature_map=layer.feature_map, A=_unstack_weights(A, complex_weights))
        hd = AffineHead(W=W.copy(), b=b.copy()) if head is not None else None
        return lay, hd

    history = []
    for epoch in range(cfg.epochs + 1):
        if epoch > 0:
            order = rng_for(cfg.seed, 310, epoch, MISC_STREAM).permutation(data.n)
            for batch, start in enumerate(range(0, data.n, cfg.batch_size)):
                idx = order[start : start + cfg.batch_size]
                batch_loss, *grads = _grads(feats[idx], A, W, b, Y[idx], cfg.loss, cfg.l2)
                if not math.isfinite(batch_loss):
                    raise DivergenceDetected(
                        f"loss {batch_loss:.3e} at epoch {epoch}, batch {batch} is non-finite"
                    )
                # v <- momentum v - lr g;  p <- p + v  (the gradients are fresh arrays)
                for p, v, g in zip(params, velocities, grads):
                    v *= cfg.momentum
                    g *= cfg.learning_rate
                    v -= g
                    p += v
        if not np.all(np.isfinite(A)):
            raise DivergenceDetected(f"A has non-finite entries at epoch {epoch}")
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
               step: float = 1e-5, max_entries: int = 64, l2: float = 0.0) -> float:
    """Max relative error, analytic vs central finite differences.

    Differentiates the training objective, ``loss + l2 (|A|^2 + |W|^2)``,
    in the real coordinates ``fit_A`` trains: the entries of A (for complex
    features, the Re A and the -Im A halves of the stacked ``[Re A | -Im A]``
    as two arrays) and of the head, up to ``max_entries`` per array,
    scanning each in a fixed order.
    """
    feats = real_design(layer.feature_map.features_many(data_batch.X))
    Y = data_batch.Y
    if loss == "mse" and Y.ndim == 1 and not data_batch.is_classification:
        Y = Y[:, None]
    if loss == "mse" and data_batch.is_classification:
        raise ValueError("mse check expects real targets")

    A = _stack_weights(layer.A, feats)
    params = [A] if head is None else [A, head.W.copy(), head.b.copy()]
    W, b = params[1:] if head is not None else (None, None)

    def objective():
        return _grads(feats, A, W, b, Y, loss, l2)[0]

    _, gA, *head_grads = _grads(feats, A, W, b, Y, loss, l2)
    M = layer.n_features
    # views, so bumping an entry of a half bumps A
    arrays = [(A[:, h : h + M], gA[:, h : h + M]) for h in range(0, A.shape[1], M)]
    arrays += list(zip(params[1:], head_grads))
    worst = 0.0
    for p, g in arrays:
        for flat_idx in range(min(p.size, max_entries)):
            idx = np.unravel_index(flat_idx, p.shape)
            orig = p[idx]
            p[idx] = orig + step
            up = objective()
            p[idx] = orig - step
            down = objective()
            p[idx] = orig
            numeric = (up - down) / (2 * step)
            scale = max(abs(g[idx]), abs(numeric), 1e-6)
            worst = max(worst, abs(g[idx] - numeric) / scale)
    return worst


# ---------------------------------------------------------------------------
# parameter accounting


def ffl_param_count(in_dim: int, out_dim: int) -> int:
    """Weight entries of the dense layer being replaced (biases excluded)."""
    return in_dim * out_dim
