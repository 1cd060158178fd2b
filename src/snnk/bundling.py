"""Collapsing stacks of feedforward layers into one matrix on chained features.

Each step replaces the leading layer f(W0 x + b0): the input picks up the
embedding Phi_f as a preprocessor, and W1 absorbs the parameter embedding,
W1 <- W1 Psi_f(W0, b0).  Iterating to the end leaves a single matrix W_bar
acting on the chained embedding

    x_bar = Phi_L( ... Phi_1(x) ... ),    y_bar = W_bar x_bar.

Each stage Phi_k is the ``UrfDraws`` draw set sampled for the layer it
replaced.  ``chain_features`` computes x_bar for a ``(..., d)`` stack of
inputs; ``network_forward`` and ``bundled_forward`` then apply each matrix
to the whole stack in one product.  Intermediate
embeddings are complex; subsequent Phi maps accept them through the bilinear
extension of the feature map, and the real part is taken only where an
estimate feeds an exact layer (or at the output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._seeds import MISC_STREAM, derive_seed, rng_for
from .activations import Activation, decomposition_for
from .layers import FflSpec, ShapeMismatch, SnnkLayer, ffl_forward
from .urf import UrfConfig, UrfDraws, phi, psi_many, sample_draws

STAGE_KEY = 777


class SingularSystem(np.linalg.LinAlgError):
    pass


# ---------------------------------------------------------------------------
# network containers


@dataclass(frozen=True)
class LayeredNetwork:
    """A chain of layers, possibly with already-bundled input stages.

    ``phi_prefix`` holds the draw sets of the input embeddings bundled so
    far, stage 0 first; when nonempty, the first layer's weight matrix is
    complex (it has absorbed parameter embeddings), and ``ffl_forward``
    takes the real part of its pre-activation.
    """

    input_dim: int
    layers: tuple[FflSpec, ...]
    phi_prefix: tuple[UrfDraws, ...] = ()

    def __post_init__(self):
        width = self.in_width
        for i, layer in enumerate(self.layers):
            if layer.W.shape[1] != width:
                raise ShapeMismatch(
                    f"layer {i} expects input dim {layer.W.shape[1]}, chain gives {width}"
                )
            width = layer.W.shape[0]

    @property
    def in_width(self) -> int:
        """Width of the first layer's input: the last embedding's, if any."""
        return self.phi_prefix[-1].total_features if self.phi_prefix else self.input_dim

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def out_dim(self) -> int:
        return self.layers[-1].W.shape[0]


def network(dims: Sequence[int], activations: Sequence[Activation], weights=None,
            biases=None, seed: int = 0, init_std: float = 1.0) -> LayeredNetwork:
    """Build a plain network; random Gaussian init unless weights and biases
    are given, one entry per layer each, of shapes (dims[i+1], dims[i]) and
    (dims[i+1],)."""
    n_layers = len(dims) - 1
    for i, dim in enumerate(dims):
        if dim < 1:
            raise ShapeMismatch(f"dims[{i}]: must be >= 1, got {dim}")
    if len(activations) != n_layers:
        raise ShapeMismatch("need one activation per layer")
    if (weights is None) != (biases is None):
        missing = "biases" if biases is None else "weights"
        raise ShapeMismatch(f"{missing}: missing; give weights and biases together")
    for key, given in (("weights", weights), ("biases", biases)):
        if given is not None and len(given) != n_layers:
            raise ShapeMismatch(f"{key}: need one entry per layer, got {len(given)} for {n_layers}")
    layers = []
    for i in range(n_layers):
        if weights is not None:
            W = np.asarray(weights[i], dtype=float)
            b = np.asarray(biases[i], dtype=float)
            for key, got, want in (("weights", W, (dims[i + 1], dims[i])),
                                   ("biases", b, (dims[i + 1],))):
                if got.shape != want:
                    raise ShapeMismatch(f"{key}[{i}]: expected shape {want}, got {got.shape}")
        else:
            rng = rng_for(seed, 900 + i, 0, MISC_STREAM)
            W = init_std / math.sqrt(dims[i]) * rng.standard_normal((dims[i + 1], dims[i]))
            b = init_std * rng.standard_normal(dims[i + 1])
        layers.append(FflSpec(W=W, b=b, activation=activations[i]))
    return LayeredNetwork(input_dim=dims[0], layers=tuple(layers))


def chain_features(X: np.ndarray, stages: Sequence[UrfDraws]) -> np.ndarray:
    """Phi_L( ... Phi_1(x) ... ) for each row x of ``X`` (..., d), one
    ``phi`` call per stage draw set; ``X`` itself when there are no stages."""
    Z = np.asarray(X)
    for draws in stages:
        Z = phi(Z, draws).entries
    return Z


def network_forward(X: np.ndarray, net: LayeredNetwork) -> np.ndarray:
    """Exact forward pass of each row of ``X`` (..., d); a partial bundle
    first applies its embedding chain and takes Re at the estimate boundary."""
    Z = chain_features(X, net.phi_prefix)
    for layer in net.layers:
        Z = ffl_forward(Z, layer)
    return Z


@dataclass(frozen=True)
class BundledNetwork:
    input_dim: int
    stages: tuple[UrfDraws, ...]  # one draw set per collapsed layer, stage 0 first
    W_bar: np.ndarray  # (d_L, M_last) complex

    @property
    def n_features(self) -> int:
        return self.W_bar.shape[1]

    @property
    def out_dim(self) -> int:
        return self.W_bar.shape[0]


# ---------------------------------------------------------------------------
# bundling


def _absorb(net: LayeredNetwork, draws: UrfDraws):
    """Replace the leading layer by the embedding over ``draws``: the next layer's
    W absorbs Psi(W0, b0), or Psi(W0, b0) is W_bar once no layer is left;
    a non-finite entry in that matrix raises a ValueError naming the stage."""
    first = net.layers[0]
    with np.errstate(over="ignore", invalid="ignore"):  # the count below reports it
        mat = psi_many(first.W, first.b, draws)  # (d1, M)
        if net.n_layers > 1:
            mat = net.layers[1].W @ mat
    bad = int(np.count_nonzero(~np.isfinite(mat)))
    if bad:
        what = "W_bar" if net.n_layers == 1 else "the absorbed weights"
        raise ValueError(f"bundling stage {len(net.phi_prefix)}: {bad} of {mat.size} entries "
                         f"of {what} are non-finite")
    prefix = net.phi_prefix + (draws,)
    if net.n_layers == 1:
        return BundledNetwork(input_dim=net.input_dim, stages=prefix, W_bar=mat)
    return LayeredNetwork(
        input_dim=net.input_dim,
        layers=(replace(net.layers[1], W=mat),) + net.layers[2:],
        phi_prefix=prefix,
    )


def bundle_once(net: LayeredNetwork, cfg: UrfConfig):
    """Absorb the leading layer; returns a network with one fewer layer,
    or a BundledNetwork once the last one is absorbed."""
    if net.n_layers < 1:
        raise ValueError("nothing left to bundle")
    # each stage gets its own derived seed so stage draws are independent
    staged = replace(cfg, seed=derive_seed(cfg.seed, STAGE_KEY, len(net.phi_prefix)))
    dec = decomposition_for(net.layers[0].activation)
    return _absorb(net, sample_draws(dec, net.in_width, staged))


def bundle_full(net: LayeredNetwork, cfg: UrfConfig) -> BundledNetwork:
    """Collapse every layer: W_bar is the nested Psi/W product.

    Repeated ``bundle_once``: each stage draws under ``cfg`` reseeded for
    that stage.
    """
    if net.phi_prefix:
        raise ValueError("bundle_full expects an unbundled network")
    while isinstance(net, LayeredNetwork):
        net = bundle_once(net, cfg)
    return net


def bundled_forward(X: np.ndarray, bn: BundledNetwork) -> np.ndarray:
    """The embedding chain of each row of ``X`` (..., d), then one matrix
    product ``Z @ W_bar.T`` (as in ``ffl_forward``); Re at the end."""
    Z = chain_features(X, bn.stages)
    return (Z @ bn.W_bar.T).real


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
    for draws in bn.stages:
        total += draws.total_features * width
        width = draws.total_features
    return int(total + bn.W_bar.size)


# ---------------------------------------------------------------------------
# folding an approximated layer into the following linear map


@dataclass(frozen=True)
class FoldedAffine:
    """A feature map with the following affine map folded in:
    x -> Re(features(x) @ matrix) + bias."""

    feature_map: object  # UrfFeatureMap or ReluFeatureMap
    matrix: np.ndarray  # (M, d_out)
    bias: np.ndarray  # (d_out,)

    def __call__(self, x) -> np.ndarray:
        feats = self.feature_map.features(x)
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
    return FoldedAffine(feature_map=layer.feature_map, matrix=(W2 @ layer.A).T, bias=b2)


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
