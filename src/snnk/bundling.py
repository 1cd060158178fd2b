"""Collapsing stacks of feedforward layers into one matrix on chained features.

Each step replaces the leading layer f(W0 x + b0): the input picks up the
embedding Phi_f as a preprocessor, and W1 absorbs the parameter embedding,
W1 <- W1 Psi_f(W0, b0).  Iterating to the end leaves a single matrix W_bar
acting on the chained embedding

    x_bar = Phi_L( ... Phi_1(x) ... ),    y_bar = W_bar x_bar.

Intermediate embeddings are complex; subsequent Phi maps accept them
through the bilinear extension of the feature map, and the real part is
taken only where an estimate feeds an exact layer (or at the output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .activations import Activation, UnsupportedClosedForm
from .layers import ShapeMismatch, SnnkLayer
from .urf import UrfConfig, phi, psi_many

STAGE_KEY = 777


class UnsupportedActivation(ValueError):
    pass


class SingularSystem(np.linalg.LinAlgError):
    pass


# ---------------------------------------------------------------------------
# network containers


@dataclass(frozen=True)
class Layer:
    W: np.ndarray
    b: np.ndarray
    activation: Activation


@dataclass(frozen=True)
class LayeredNetwork:
    """A chain of layers, possibly with already-bundled input stages.

    ``phi_prefix`` holds the accumulated input embeddings; when nonempty,
    the first layer's weight matrix is complex (it has absorbed parameter
    embeddings) and forward evaluation takes the real part of the first
    pre-activation before the remaining exact layers.
    """

    input_dim: int
    layers: tuple[Layer, ...]
    phi_prefix: tuple = ()  # UrfFeatureMap chain

    def __post_init__(self):
        width = self.input_dim if not self.phi_prefix else self.phi_prefix[-1].total_features
        for i, layer in enumerate(self.layers):
            if layer.W.shape[1] != width:
                raise ShapeMismatch(
                    f"layer {i} expects input dim {layer.W.shape[1]}, chain gives {width}"
                )
            if layer.b.shape != (layer.W.shape[0],):
                raise ShapeMismatch(f"layer {i} bias shape {layer.b.shape}")
            width = layer.W.shape[0]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def out_dim(self) -> int:
        return self.layers[-1].W.shape[0]


def network(dims: Sequence[int], activations: Sequence[Activation], weights=None,
            biases=None, seed: int = 0, init_std: float = 1.0) -> LayeredNetwork:
    """Build a plain network; random Gaussian init unless weights given."""
    from ._seeds import MISC_STREAM, rng_for

    if len(activations) != len(dims) - 1:
        raise ShapeMismatch("need one activation per layer")
    layers = []
    for i in range(len(dims) - 1):
        if weights is not None:
            W = np.asarray(weights[i], dtype=float)
            b = np.asarray(biases[i], dtype=float)
        else:
            rng = rng_for(seed, 900 + i, 0, MISC_STREAM)
            W = init_std / math.sqrt(dims[i]) * rng.standard_normal((dims[i + 1], dims[i]))
            b = init_std * rng.standard_normal(dims[i + 1])
        layers.append(Layer(W=W, b=b, activation=activations[i]))
    return LayeredNetwork(input_dim=dims[0], layers=tuple(layers))


def network_forward(x: np.ndarray, net: LayeredNetwork) -> np.ndarray:
    """Exact forward pass; partial bundles take Re at the estimate boundary."""
    z = np.asarray(x)
    for fmap in net.phi_prefix:
        z = phi(z, fmap.draws).entries
    for i, layer in enumerate(net.layers):
        u = layer.W @ z + layer.b
        if np.iscomplexobj(u):
            u = u.real
        z = layer.activation(u)
    return z


@dataclass(frozen=True)
class BundledNetwork:
    input_dim: int
    stages: tuple  # UrfFeatureMap chain
    W_bar: np.ndarray  # (d_L, M_last) complex

    @property
    def n_features(self) -> int:
        return self.W_bar.shape[1]

    @property
    def out_dim(self) -> int:
        return self.W_bar.shape[0]


# ---------------------------------------------------------------------------
# bundling


def _stage_seed(base: int, stage: int) -> int:
    ss = np.random.SeedSequence(entropy=int(base) & (2**64 - 1),
                                spawn_key=(STAGE_KEY, stage))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _stage_feature_map(activation, dim, cfg, stage):
    # each stage gets its own derived seed so stage draws are independent
    from .layers import urf_feature_map

    staged = replace(cfg, seed=_stage_seed(cfg.seed, stage))
    try:
        return urf_feature_map(activation, dim, staged)
    except UnsupportedClosedForm as exc:
        raise UnsupportedActivation(str(exc)) from exc


def bundle_once(net: LayeredNetwork, cfg: UrfConfig):
    """Absorb the leading layer; returns a network with one fewer layer,
    or a BundledNetwork once the last one is absorbed."""
    if net.n_layers < 1:
        raise ValueError("nothing left to bundle")
    stage = len(net.phi_prefix)
    first = net.layers[0]
    in_width = net.input_dim if stage == 0 else net.phi_prefix[-1].total_features
    fmap = _stage_feature_map(first.activation, in_width, cfg, stage)
    psi_mat = psi_many(first.W, first.b, fmap.draws)  # (d1, M)
    prefix = net.phi_prefix + (fmap,)
    if net.n_layers == 1:
        return BundledNetwork(input_dim=net.input_dim, stages=prefix, W_bar=psi_mat)
    second = net.layers[1]
    absorbed = Layer(W=second.W @ psi_mat, b=second.b, activation=second.activation)
    return LayeredNetwork(
        input_dim=net.input_dim,
        layers=(absorbed,) + net.layers[2:],
        phi_prefix=prefix,
    )


def bundle_full(
    net: LayeredNetwork, cfgs: UrfConfig | Sequence[UrfConfig]
) -> BundledNetwork:
    """Collapse every layer: W_bar is the nested Psi/W product."""
    if net.phi_prefix:
        raise ValueError("bundle_full expects an unbundled network")
    if isinstance(cfgs, UrfConfig):
        cfg_list = None
        base_cfg = cfgs
    else:
        cfg_list = list(cfgs)
        if len(cfg_list) != net.n_layers:
            raise ShapeMismatch("need one config per layer")

    stages = []
    acc = None
    width = net.input_dim
    for i, layer in enumerate(net.layers):
        if cfg_list is None:
            fmap = _stage_feature_map(layer.activation, width, base_cfg, i)
        else:
            from .layers import urf_feature_map

            fmap = urf_feature_map(layer.activation, width, cfg_list[i])
        W_cur = layer.W if acc is None else layer.W @ acc
        acc = psi_many(W_cur, layer.b, fmap.draws)
        stages.append(fmap)
        width = fmap.total_features
    return BundledNetwork(input_dim=net.input_dim, stages=tuple(stages), W_bar=acc)


def bundled_forward(x: np.ndarray, bn: BundledNetwork) -> np.ndarray:
    """Apply the embedding chain, then one matrix multiply; Re at the end."""
    z = np.asarray(x)
    for fmap in bn.stages:
        z = phi(z, fmap.draws).entries
    return (bn.W_bar @ z).real


# ---------------------------------------------------------------------------
# accounting


def network_param_count(net: LayeredNetwork) -> int:
    return int(sum(l.W.size + l.b.size for l in net.layers))


def bundled_param_count(bn: BundledNetwork) -> int:
    return int(bn.W_bar.size)


def network_flop_count(net: LayeredNetwork) -> int:
    """Multiply-adds of one exact forward pass."""
    return int(sum(l.W.shape[0] * l.W.shape[1] for l in net.layers))


def bundled_flop_count(bn: BundledNetwork) -> int:
    """Multiply-adds of one bundled pass: the embedding chain is dominated
    by the Gaussian projections (M x dim per stage), then d_L x M."""
    total = 0
    width = bn.input_dim
    for fmap in bn.stages:
        total += fmap.total_features * width
        width = fmap.total_features
    return int(total + bn.W_bar.size)


# ---------------------------------------------------------------------------
# folding an approximated layer into the following linear map


@dataclass(frozen=True)
class FoldedAffine:
    """Precomposed map: x -> Re(features(x) @ matrix) + bias."""

    layer: SnnkLayer
    matrix: np.ndarray  # (M, d_out)
    bias: np.ndarray  # (d_out,)

    def __call__(self, x) -> np.ndarray:
        feats = self.layer.feature_map.features(x)
        return (feats @ self.matrix).real + self.bias

    def param_count(self) -> int:
        return int(self.matrix.size + self.bias.size)


def fold_following_linear(layer: SnnkLayer, W2: np.ndarray, b2: np.ndarray) -> FoldedAffine:
    """Fold y -> W2 y + b2 into the layer: the stored matrix is (W2 A)^T."""
    W2 = np.asarray(W2)
    b2 = np.asarray(b2, dtype=float)
    if W2.ndim != 2 or W2.shape[1] != layer.out_dim:
        raise ShapeMismatch(
            f"W2 {W2.shape} must have {layer.out_dim} columns (the layer's outputs)"
        )
    if b2.shape != (W2.shape[0],):
        raise ShapeMismatch("b2 must match W2's row count")
    return FoldedAffine(layer=layer, matrix=(W2 @ layer.A).T, bias=b2)


# ---------------------------------------------------------------------------
# pooler + classifier merge


@dataclass(frozen=True)
class MergedHead:
    feature_map: object
    matrix: np.ndarray  # (M, classes)
    bias: np.ndarray  # (classes,)

    def __call__(self, x) -> np.ndarray:
        feats = self.feature_map.features(x)
        return (feats @ self.matrix).real + self.bias


def bundle_pooler_classifier(
    Wp: np.ndarray,
    bp: np.ndarray,
    Wc: np.ndarray,
    bc: np.ndarray,
    cfg: UrfConfig,
    activation: Activation = Activation("tanh"),
) -> tuple[MergedHead, float]:
    """Merge tanh-pooler + classifier into one (M, classes) matrix.

    Returns the merged head and the storage ratio
    (d*d + d*classes) / (M*classes) of the replaced pair.
    """
    from .layers import urf_feature_map

    Wp = np.asarray(Wp, dtype=float)
    bp = np.asarray(bp, dtype=float)
    Wc = np.asarray(Wc, dtype=float)
    bc = np.asarray(bc, dtype=float)
    if Wc.shape[1] != Wp.shape[0]:
        raise ShapeMismatch("classifier must consume the pooler's outputs")
    d = Wp.shape[1]
    fmap = urf_feature_map(activation, d, cfg)
    psi_mat = psi_many(Wp, bp, fmap.draws)  # (d_pool, M)
    merged = psi_mat.T @ Wc.T  # (M, classes)
    classes = Wc.shape[0]
    ratio = (d * Wp.shape[0] + Wp.shape[0] * classes) / (merged.shape[0] * classes)
    return MergedHead(feature_map=fmap, matrix=merged, bias=bc), float(ratio)


def pooler_classifier_exact(Wp, bp, Wc, bc, x, activation=Activation("tanh")):
    return Wc @ activation(Wp @ np.asarray(x) + bp) + bc


# ---------------------------------------------------------------------------
# closed-form least squares for the collapsed matrix


def closed_form_regression(
    Xbar: np.ndarray, Y: np.ndarray, ridge: float = 0.0
) -> np.ndarray:
    """argmin |Xbar W - Y|_F^2 + ridge |W|_F^2 via the normal equations.

    Handles complex design matrices (conjugate-transpose normal
    equations); raises SingularSystem for ridge = 0 with a rank-deficient
    Gram matrix.
    """
    Xbar = np.asarray(Xbar)
    Y = np.asarray(Y)
    if Y.ndim == 1:
        Y = Y[:, None]
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    XH = Xbar.conj().T
    gram = XH @ Xbar + ridge * np.eye(Xbar.shape[1])
    if ridge == 0.0:
        eigs = np.linalg.eigvalsh(gram)
        if eigs[0] <= 1e-12 * max(eigs[-1], 1e-300):
            raise SingularSystem("Gram matrix is rank-deficient; use ridge > 0")
    return np.linalg.solve(gram, XH @ Y)


def regression_objective(Xbar, Y, W, ridge=0.0) -> float:
    Y = np.asarray(Y)
    if Y.ndim == 1:
        Y = Y[:, None]
    r = Xbar @ W - Y
    return float(np.sum(np.abs(r) ** 2) + ridge * np.sum(np.abs(W) ** 2))


def regression_gradient(Xbar, Y, W, ridge=0.0) -> np.ndarray:
    Y = np.asarray(Y)
    if Y.ndim == 1:
        Y = Y[:, None]
    return 2.0 * (Xbar.conj().T @ (Xbar @ W - Y) + ridge * W)


def default_ridge(Xbar: np.ndarray) -> float:
    """1e-8 * trace(X^H X) / M, a numerically safe floor."""
    Xbar = np.asarray(Xbar)
    return float(1e-8 * np.sum(np.abs(Xbar) ** 2) / Xbar.shape[1])


# ---------------------------------------------------------------------------
# error propagation across bundled depth


class PropagationBound(NamedTuple):
    printed_bound: float
    corrected_bound: float
    accumulated_eps: float


def error_propagation_bound(
    eps: float, m: int, c: float, depth: int,
    delta: Callable[[float], float],
) -> PropagationBound:
    """Failure-probability bounds for a depth-layer bundle, both variants.

    ``accumulated_eps`` is eps + delta(eps) + delta(delta(eps)) + ... with
    depth - 1 compositions.  ``printed_bound`` is depth * 2 exp(-eps^2 /
    (8 m c^2)) exactly as stated at the source; its exponent weakens as m
    grows, contradicting the surrounding reasoning, so the standard
    bounded-increment form depth * 2 exp(-m eps^2 / (8 c^2)) is returned
    alongside it.  Neither is capped at 1.
    """
    if eps <= 0 or c <= 0 or m < 1 or depth < 1:
        raise ValueError("need eps > 0, c > 0, m >= 1, depth >= 1")
    acc = eps
    cur = eps
    for _ in range(depth - 1):
        cur = delta(cur)
        acc += cur
    printed = depth * 2.0 * math.exp(-(eps**2) / (8.0 * m * c * c))
    corrected = depth * 2.0 * math.exp(-(m * eps**2) / (8.0 * c * c))
    return PropagationBound(printed, corrected, acc)
