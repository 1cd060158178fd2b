"""Minimal trainer for learnable feature-weight matrices.

With the input embedding frozen, a replacement layer's output Re(A Phi(x))
is linear in A, so gradients are exact outer products against the
features; training A directly is what makes the layer a compressed
stand-in for the original weights.  Training runs in real coordinates:
complex features become the real design F = Phi.view(float), the
interleaved [Re phi_1, Im phi_1, Re phi_2, ...] that is the feature buffer
itself, and a complex A trains as A_s = conj(A).view(float), whose pairs
are [Re A_ij, -Im A_ij], so Re(Phi A^T) = F A_s^T and every product is a
real GEMM; relu features and weights are real already and pass through.
Phi depends only on the inputs and the frozen draws, so ``fit_A`` builds F
once per split, with no copy, and reuses it for every SGD batch and every
epoch's full-split loss.  Plain mini-batch SGD on the mean loss; with the
features frozen that objective is convex in the product of the head and A.
The point is validated trainability, not leaderboard accuracy.  The step
runs in place: A_s, W and b are views of one flat buffer and the gradients
are written into views of a second one, so one update, theta -= lr g,
steps them all.  A step reads of its batch loss only whether it is finite,
so a cross-entropy batch tests the sum of its softmax instead of forming
the log-likelihood, an equivalent test (``_loss``); mse batches keep their
values.  Cross-entropy targets are one-hot rows built once per fit; each
epoch permutes the target rows once and slices its batches from that copy.
A full split's loss runs on a class-major copy of its outputs, which are
formed in row panels of ``PANEL_ROWS`` rows, one product per panel into one
output array: with OpenBLAS 0.3.31 on a 2-core x86_64 VM, a (3000 x 512)
design times (512 x 4) weights took 1.3-1.8 ms as one call and 0.5-0.7 ms
as 256-row panels; 128-row panels were slower there, and 512-row panels as
slow as one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._seeds import MISC_STREAM, rng_for
from .layers import SnnkLayer
from .urf import ConfigError


# the row height of a full split's output products; see the module docstring
PANEL_ROWS = 256


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
    if not (math.isfinite(separation) and separation > 0):
        raise ConfigError("separation", f"must be finite and > 0, got {separation}")


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

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate", f"must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError("epochs", f"must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError("batch_size", f"must be >= 1, got {self.batch_size}")
        if self.loss not in ("mse", "cross_entropy"):
            raise ConfigError("loss", f"expected 'mse' or 'cross_entropy', got {self.loss!r}")


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
    """The real design of a feature matrix: complex features as their float
    view ``[Re phi_1, Im phi_1, Re phi_2, ...]``, sharing their memory when
    C-contiguous; real (relu) features unchanged.  With the weights stacked
    by ``_stack_weights``, ``Re(Phi A^T) = F A_s^T`` exactly."""
    return np.ascontiguousarray(feats).view(float) if np.iscomplexobj(feats) else feats


def _stack_weights(A: np.ndarray, design: np.ndarray) -> np.ndarray:
    """A as the real weights of ``design``: a new C-contiguous float array,
    for a complex A the interleaved view of conj(A), whose entry pairs are
    ``[Re A_ij, -Im A_ij]``.  A must be complex iff the features are."""
    A_s = np.conjugate(A, order="C", dtype=np.result_type(A, float)).view(float)
    if A_s.shape[1] != design.shape[1]:
        raise ValueError("A must be complex iff the features are complex")
    return A_s


def _unstack_weights(A_s: np.ndarray, complex_weights: bool) -> np.ndarray:
    """The feature-weight matrix whose stacked form is ``A_s``."""
    return np.conjugate(A_s.view(complex) if complex_weights else A_s)


# ---------------------------------------------------------------------------
# losses


def _targets(data: Dataset, loss: str, k: int) -> np.ndarray:
    """The targets of ``data`` as rows: for cross-entropy the one-hot rows of
    its labels over k classes, for mse its target rows (a 1-d target is one
    column).  Cross-entropy targets other than 1-d integer labels, and a
    label outside [0, k), raise a ValueError."""
    if loss == "cross_entropy":
        if not data.is_classification:
            raise ValueError(f"cross-entropy expects 1-d integer labels, got {data.Y.dtype} "
                             f"{data.Y.shape}")
        outside = data.Y[(data.Y < 0) | (data.Y >= k)]
        if outside.size:
            raise ValueError(f"cross-entropy label {outside[0]} is outside the {k} classes "
                             f"[0, {k})")
        T = np.zeros((data.n, k))
        T[np.arange(data.n), data.Y] = 1.0
        return T
    if data.is_classification:
        raise ValueError("mse training expects real targets, got class labels")
    return data.Y if data.Y.ndim == 2 else data.Y[:, None]


def _loss(Z, T, loss, objective=True) -> float:
    """Mean loss of the predictions ``Z`` (k, n), one column per sample,
    against the targets ``T`` of its shape; Z is overwritten by the
    residual Z - T (mse) or the softmax (cross-entropy).

    Cross-entropy takes one-hot targets: the softmax's log-likelihood is
    ``(softmax * T)`` summed down each column and its gradient is
    ``softmax - T``, exact since every other product is an exact zero.
    The max, exp and sums run in Z's memory order: ``_grads`` passes the
    transposed view of its row-major batch outputs, so each sum runs along a
    sample's row; ``evaluate`` passes a C-contiguous class-major copy, whose
    column-wise passes are faster over few classes and give the same bits
    for k < 8.

    With ``objective`` False, a cross-entropy loss is formed only when the
    softmax has a non-finite entry, and 0.0 is returned otherwise.  A column
    whose max is finite has softmax entries in [0, 1], so every
    ``-log(p + 1e-300)`` lies in [0, 690.8]; a column whose max is NaN or
    infinite is NaN throughout.  So the loss is finite exactly when the
    softmax's sum is, and NaN when it is not.
    """
    if loss == "mse":
        Z -= T
        return float(np.sum(Z * Z) / Z.shape[1])
    Z -= Z.max(axis=0)
    np.exp(Z, out=Z)
    Z /= Z.sum(axis=0)
    if not objective and math.isfinite(Z.sum()):
        return 0.0
    return float(-np.log((Z * T).sum(axis=0) + 1e-300).sum() / Z.shape[1])


def _loss_and_grad(Z, T, loss, objective=True):
    """``_loss`` of ``Z`` and d(loss)/d(Z) written over Z."""
    value = _loss(Z, T, loss, objective)
    if loss == "mse":
        Z *= 2.0
    else:
        Z -= T
    Z /= Z.shape[1]
    return value, Z


def evaluate(layer: SnnkLayer, head, data: Dataset, loss: str, feats=None, targets=None):
    """(loss, accuracy) on the full split; accuracy is NaN for mse.

    ``feats`` is ``layer.feature_map.features_many(data.X)`` or its real
    design ``real_design(...)`` (the same array for real features), and
    ``targets`` is ``_targets(data, loss, k)``; each is computed here when
    not given.  The head is folded into the layer's weights first, so the
    pass over the design yields the k outputs directly; the cross-entropy
    runs on their class-major copy.  The outputs are written one panel of
    ``PANEL_ROWS`` design rows at a time, a product that this thin shape
    runs 2-3x faster than one call over the whole design (module
    docstring); a split of at most one panel is one product.
    """
    if feats is None:
        feats = layer.feature_map.features_many(data.X)
    feats = real_design(feats)
    A = _stack_weights(layer.A, feats)
    V = A if head is None else head.W @ A
    pred = np.empty((len(feats), len(V)))
    for start in range(0, len(feats), PANEL_ROWS):
        np.matmul(feats[start : start + PANEL_ROWS], V.T, out=pred[start : start + PANEL_ROWS])
    if head is not None:
        pred += head.b
    if targets is None:
        targets = _targets(data, loss, pred.shape[1])
    if loss == "mse":
        return _loss(pred.T, targets.T, loss), float("nan")
    value = _loss(np.ascontiguousarray(pred.T), targets.T, loss)
    return value, float(np.mean(pred.argmax(axis=1) == data.Y))


# ---------------------------------------------------------------------------
# training


def _grads(feats, A, W, b, Y, loss, out=(None, None, None), objective=True):
    """The mean ``loss`` of a batch and its gradients in A, W, b.

    ``feats`` is a real design, ``A`` its stacked weights and ``Y`` the
    target rows (``_targets``); the output is linear in A, so its gradient
    is an exact outer product with the design.  The gradients are written
    into ``out``'s C-contiguous arrays of their shapes, or fresh arrays
    where an entry is None.  With ``objective`` False a finite cross-entropy
    loss counts as 0.0 (``_loss``): the value is then finite exactly when
    the loss is, and equal to it when not, which is all an SGD step
    reads of it.
    """
    gA, gW, gb = out
    hidden = feats @ A.T  # (n, l)
    if W is None:
        value, dpred = _loss_and_grad(hidden.T, Y.T, loss, objective)
        gA = np.matmul(dpred, feats, out=gA)
    else:
        pred = hidden @ W.T
        pred += b
        value, dpred = _loss_and_grad(pred.T, Y.T, loss, objective)
        gA = np.matmul(W.T, dpred @ feats, out=gA)
        gW = np.matmul(dpred, hidden, out=gW)
        gb = dpred.sum(axis=1, out=gb)
    return value, gA, gW, gb


def fit_A(layer: SnnkLayer, head, data: Dataset, cfg: TrainConfig,
          validation: Dataset | None = None):
    """Mini-batch SGD on A (and the affine head); returns (layer, head, history).

    Training runs in real coordinates: Phi is computed once for the training
    split and once for the validation split and read through its real
    design ``real_design(Phi)``, a view, and a complex A trains as the
    interleaved ``conj(A).view(float)``.  Each SGD batch gathers its rows of
    the training design; the target rows (one-hot for cross-entropy) are
    permuted once per epoch and sliced for each batch.  Both splits' designs
    and target rows are reused for every epoch's full-split loss.  The
    stacked A, W and b are views of one flat buffer, and so are the
    gradients ``_grads`` writes, so one plain SGD update, ``theta -= lr g``,
    steps every parameter.  A batch loss is checked only for finiteness;
    for cross-entropy that test reads the softmax's sum and forms the loss
    only when it fails (``_loss``), so the error names the same value.
    History rows are (epoch, split, loss, accuracy), evaluated before
    training and after each epoch.  The epochs run with numpy's overflow and
    invalid-value warnings off, so a diverging fit reports itself only
    through its DivergenceDetected.  Raises DivergenceDetected if the training loss is non-finite, the initial one
    included, or passes 10x its starting value; a non-finite mini-batch loss
    raises at once, before that batch's step, and so does a non-finite entry
    of A at the end of an epoch.  An input of the wrong width raises the
    feature map's ShapeMismatch.
    """
    if cfg.batch_size > data.n:
        raise ValueError("batch_size exceeds dataset size")
    if cfg.loss == "cross_entropy" and head is None:
        raise ValueError("cross-entropy training expects a classification head")
    k = layer.out_dim if head is None else len(head.b)
    Y = _targets(data, cfg.loss, k)
    val_Y = _targets(validation, cfg.loss, k) if validation is not None else None

    feats = real_design(layer.feature_map.features_many(data.X))
    val_feats = (
        real_design(layer.feature_map.features_many(validation.X))
        if validation is not None else None
    )
    parts = [_stack_weights(layer.A, feats)] + ([] if head is None else [head.W, head.b])
    theta = np.concatenate([p.ravel() for p in parts])
    grad = np.empty_like(theta)
    ends = np.cumsum([p.size for p in parts])[:-1]
    pad = [None] * (3 - len(parts))  # no head: W and b are None
    A, W, b = [v.reshape(p.shape) for v, p in zip(np.split(theta, ends), parts)] + pad
    grad_parts = [v.reshape(p.shape) for v, p in zip(np.split(grad, ends), parts)] + pad
    complex_weights = np.iscomplexobj(layer.A)

    def snapshot():
        lay = SnnkLayer(feature_map=layer.feature_map, A=_unstack_weights(A, complex_weights))
        hd = AffineHead(W=W.copy(), b=b.copy()) if head is not None else None
        return lay, hd

    history = []
    # the finiteness checks below report a diverging run, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs + 1):
            if epoch > 0:
                order = rng_for(cfg.seed, 310, epoch, MISC_STREAM).permutation(data.n)
                epoch_Y = Y[order]
                for batch, start in enumerate(range(0, data.n, cfg.batch_size)):
                    rows = slice(start, start + cfg.batch_size)
                    batch_loss, *grads = _grads(feats[order[rows]], A, W, b, epoch_Y[rows],
                                                cfg.loss, grad_parts, objective=False)
                    if not math.isfinite(batch_loss):
                        raise DivergenceDetected(
                            f"loss {batch_loss:.3e} at epoch {epoch}, batch {batch} is non-finite"
                        )
                    for part, g in zip(grad_parts, grads):
                        if g is not part:  # a gradient _grads did not write in place
                            part[...] = g
                    grad *= cfg.learning_rate
                    theta -= grad
            if not np.all(np.isfinite(A)):
                raise DivergenceDetected(f"A has non-finite entries at epoch {epoch}")
            lay, hd = snapshot()
            loss_value, acc = evaluate(lay, hd, data, cfg.loss, feats=feats, targets=Y)
            history.append((epoch, "train", loss_value, acc))
            if epoch == 0:
                initial_loss = loss_value
            if validation is not None:
                vloss, vacc = evaluate(lay, hd, validation, cfg.loss, feats=val_feats,
                                       targets=val_Y)
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

    Differentiates the training objective, the mean ``loss``, in the real
    coordinates ``fit_A`` trains: the entries of A (for complex features,
    the Re A and the -Im A entries of the interleaved stacked weights, its
    even and odd columns, as two arrays) and of the head, up to
    ``max_entries`` per array, scanning each in a fixed order.
    """
    feats = real_design(layer.feature_map.features_many(data_batch.X))
    A = _stack_weights(layer.A, feats)
    params = [A] if head is None else [A, head.W.copy(), head.b.copy()]
    W, b = params[1:] if head is not None else (None, None)
    Y = _targets(data_batch, loss, len(params[-1]))

    def objective():
        return _grads(feats, A, W, b, Y, loss)[0]

    _, gA, *head_grads = _grads(feats, A, W, b, Y, loss)
    k = A.shape[1] // layer.n_features  # 2 for complex weights, 1 for real
    # views, so bumping an entry of a half bumps A
    arrays = [(A[:, h::k], gA[:, h::k]) for h in range(k)]
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
