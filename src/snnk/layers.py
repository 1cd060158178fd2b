"""Feedforward layers and their random-feature replacements.

A feedforward layer x -> f(Wx + b) is replaced by a layer computing
Re(A Phi(x)) where Phi is a randomized input embedding and A collects the
parameter-side embeddings Psi(w_i, b_i) row by row (or is learned
directly).  Also hosts the relu variant built on arc-cosine kernels and
the polynomial-split construction for activations with signed Taylor
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._seeds import MISC_STREAM, rng_for
from .activations import Activation, decomposition_for
from .urf import (
    UrfConfig,
    UrfDraws,
    phi,
    phi_many,
    psi_many,
    sample_draws,
)


class ZeroVector(ValueError):
    """Angle undefined for a zero-length vector."""


class ShapeMismatch(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact feedforward layer (the oracle)


@dataclass(frozen=True)
class FflSpec:
    """Weights, biases and activation of one feedforward layer."""

    W: np.ndarray  # (l, d); complex once it has absorbed a parameter embedding
    b: np.ndarray  # (l,)
    activation: Activation

    def __post_init__(self):
        W = np.asarray(self.W, dtype=complex if np.iscomplexobj(self.W) else float)
        b = np.asarray(self.b, dtype=float)
        if W.ndim != 2 or b.shape != (W.shape[0],):
            raise ShapeMismatch(f"W {W.shape} incompatible with b {b.shape}")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]


def ffl_forward(X: np.ndarray, spec: FflSpec) -> np.ndarray:
    """f(Re(W x) + b) for each row x of ``X`` (..., d), evaluated exactly; one
    matrix-vector product per row, so a row of a stack has its bits alone."""
    X = np.asarray(X)
    if X.shape[-1:] != (spec.in_dim,):
        raise ShapeMismatch(f"expected input of dim {spec.in_dim}, got {X.shape}")
    return spec.activation(((spec.W @ X[..., None])[..., 0] + spec.b).real)


# ---------------------------------------------------------------------------
# feature maps


@dataclass(frozen=True)
class UrfFeatureMap:
    """Input embedding Phi over the draws of an activation's transform split."""

    draws: UrfDraws

    @property
    def total_features(self) -> int:
        return self.draws.total_features

    @property
    def in_dim(self) -> int:
        return self.draws.dim

    def features(self, x) -> np.ndarray:
        return phi(np.asarray(x), self.draws).entries

    def features_many(self, X) -> np.ndarray:
        return phi_many(np.asarray(X), self.draws)


@dataclass(frozen=True)
class ReluFeatureMap:
    """v -> max(0, G v / sqrt(l')) with a provided Gaussian matrix G."""

    G: np.ndarray  # (l', d)

    @property
    def total_features(self) -> int:
        return self.G.shape[0]

    @property
    def in_dim(self) -> int:
        return self.G.shape[1]

    def features(self, v) -> np.ndarray:
        return self.features_many(v)

    def features_many(self, X) -> np.ndarray:
        lp = self.G.shape[0]
        return np.maximum(0.0, np.asarray(X) @ self.G.T / math.sqrt(lp))


def urf_feature_map(activation: Activation, dim: int, cfg: UrfConfig) -> UrfFeatureMap:
    return UrfFeatureMap(draws=sample_draws(decomposition_for(activation), dim, cfg))


def relu_feature_map(dim: int, n_features: int, seed: int) -> ReluFeatureMap:
    """Sample the Gaussian projection once; the map itself is deterministic."""
    G = rng_for(seed, 0, 0, MISC_STREAM).standard_normal((n_features, dim))
    return ReluFeatureMap(G=G)


def relu_snnk_features(v: np.ndarray, G: np.ndarray) -> np.ndarray:
    """max(0, G v / sqrt(l')) for v or each row of a (..., d) stack, with G
    (l', d) or a stack (..., l', d) of such matrices; the same map serves
    inputs and weights.  G v is one matrix-vector product per row, so a row
    of a stack is bit-identical to that row alone."""
    v = np.asarray(v, dtype=float)
    G = np.asarray(G, dtype=float)
    if v.shape[-1:] != G.shape[-1:]:
        raise ShapeMismatch(f"expected input of dim {G.shape[-1]}, got {v.shape}")
    return np.maximum(0.0, (G @ v[..., None])[..., 0] / math.sqrt(G.shape[-2]))


# ---------------------------------------------------------------------------
# the replacement layer


@dataclass
class SnnkLayer:
    """A feature map plus the (l, M) feature-weight matrix A.

    ``A`` is either derived (rows are Psi(w_i, b_i)) or free; ``fit_A`` trains both.
    The forward pass is Re(A Phi(x)) and never touches the original weights.
    """

    feature_map: UrfFeatureMap | ReluFeatureMap
    A: np.ndarray  # (l, M)

    def __post_init__(self):
        self.A = np.asarray(self.A)
        if self.A.ndim != 2 or self.A.shape[1] != self.feature_map.total_features:
            raise ShapeMismatch(
                f"A {self.A.shape} incompatible with feature length "
                f"{self.feature_map.total_features}"
            )
        if not np.all(np.isfinite(self.A)):
            raise ValueError("A has non-finite entries")

    @property
    def out_dim(self) -> int:
        return self.A.shape[0]

    @property
    def in_dim(self) -> int:
        return self.feature_map.in_dim

    @property
    def n_features(self) -> int:
        return self.A.shape[1]

    def param_count(self) -> int:
        """Trainable entries of A (the compressed layer's parameter count)."""
        return self.A.shape[0] * self.A.shape[1]


def snnk_from_ffl(spec: FflSpec, cfg: UrfConfig) -> SnnkLayer:
    """Derive the replacement layer: A's rows are Psi over shared draws."""
    fmap = urf_feature_map(spec.activation, spec.in_dim, cfg)
    return SnnkLayer(feature_map=fmap, A=psi_many(spec.W, spec.b, fmap.draws))


def snnk_forward(x: np.ndarray, layer: SnnkLayer) -> np.ndarray:
    """Re(A Phi(x)); costs l*M plus one feature-map evaluation.

    One stacked matmul of the (l, 1, M) row stack with the features: numpy
    runs the same one-row product per row, so each output coordinate is
    bit-identical to the corresponding single-pair kernel estimate.  A plain
    ``A @ feats`` is faster but differs from those products in the last bits.
    """
    feats = layer.feature_map.features(x)
    return (layer.A[:, None, :] @ feats)[:, 0].real


def snnk_forward_many(X: np.ndarray, layer: SnnkLayer) -> np.ndarray:
    feats = layer.feature_map.features_many(X)
    return (feats @ layer.A.T).real


# ---------------------------------------------------------------------------
# arc-cosine kernels


def _j_factor(n: int, theta: np.ndarray):
    if n == 0:
        return math.pi - theta
    if n == 1:
        return np.sin(theta) + (math.pi - theta) * np.cos(theta)
    if n == 2:
        return 3.0 * np.sin(theta) * np.cos(theta) + (math.pi - theta) * (
            1.0 + 2.0 * np.cos(theta) ** 2
        )
    raise ValueError("only orders 0, 1, 2 are implemented")


def arc_cosine_exact(n: int, x: np.ndarray, y: np.ndarray) -> float:
    """(1/pi) |x|^n |y|^n J_n(angle(x, y)), orders 0..2.

    The cosine of the angle is clamped into [-1, 1] before acos to guard
    the aligned and anti-aligned endpoints.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ZeroVector("arc-cosine kernel needs nonzero vectors")
    c = float(np.clip(np.dot(x, y) / (nx * ny), -1.0, 1.0))
    theta = math.acos(c)
    return float((nx * ny) ** n / math.pi * _j_factor(n, theta))


def arc_cosine_mc_samples(
    n: int,
    x: np.ndarray,
    y: np.ndarray,
    num_draws: int,
    seed: int,
    antithetic: bool = False,
) -> np.ndarray:
    """Per-draw values 2 Gamma_n(x) Gamma_n(y) over omega ~ N(0, I); their
    mean estimates K_n.

    Gamma_n(v) = max(0, v.omega)^n for n >= 1 and the step function for
    n = 0.  With ``antithetic`` each omega is paired with -omega.
    """
    if n not in (0, 1, 2):
        raise ValueError("only orders 0, 1, 2 are implemented")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rng = rng_for(seed, n, 0, MISC_STREAM)
    if antithetic:
        half = num_draws // 2
        omega = rng.standard_normal((half, len(x)))
        omega = np.vstack([omega, -omega])
    else:
        omega = rng.standard_normal((num_draws, len(x)))
    tx = omega @ x
    ty = omega @ y
    if n == 0:
        gx = (tx > 0).astype(float)
        gy = (ty > 0).astype(float)
    else:
        gx = np.maximum(0.0, tx) ** n
        gy = np.maximum(0.0, ty) ** n
    return 2.0 * gx * gy


# ---------------------------------------------------------------------------
# gated residual block


def gated_residual_block(X: np.ndarray, layer: SnnkLayer, v: np.ndarray) -> np.ndarray:
    """(v * layer(x_row)) + x_row for each row; identity when v is zero."""
    X = np.asarray(X, dtype=float)
    v = np.asarray(v, dtype=float)
    if X.ndim != 2 or layer.out_dim != X.shape[1] or layer.in_dim != X.shape[1]:
        raise ShapeMismatch("gated block needs layer in/out dims equal to row width")
    if v.shape != (X.shape[1],):
        raise ShapeMismatch(f"gate must have dim {X.shape[1]}")
    if np.all(v == 0.0):
        return X.copy()
    return v[None, :] * snnk_forward_many(X, layer) + X


def gated_param_count(d: int, n_features: int) -> int:
    """Reported trainable parameters of the gated block: (d + 1) * M."""
    return (d + 1) * n_features


# ---------------------------------------------------------------------------
# polynomial-split construction (signed Taylor series)


def tanh_series_coeffs(N: int) -> list[Fraction]:
    """Exact Taylor coefficients a_0..a_N of tanh via f' = 1 - f^2."""
    if N > 25:
        raise ValueError("coefficients beyond degree 25 underflow usefulness")
    a = [Fraction(0)] * (N + 1)
    if N >= 1:
        a[1] = Fraction(1)
    for n in range(1, N):
        conv = sum(a[i] * a[n - i] for i in range(n + 1))
        a[n + 1] = (Fraction(1 if n == 0 else 0) - conv) / (n + 1)
    return a


@dataclass(frozen=True)
class TaylorSplitKernel:
    """f = f1 - f2 with nonnegative coefficient lists, shared degree cap.

    The external degree measure is geometric, p(n) proportional to
    (1/2)^(n+1), restricted to odd degrees <= the cap by rejection
    (renormalization).  Both polynomial kernels are estimated with the
    same Rademacher pool; only the degree draws differ.
    """

    coeff_pos: tuple[float, ...]  # index = degree
    coeff_neg: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeff_pos) != len(self.coeff_neg):
            raise ValueError("coefficient lists must share the degree cap")
        if any(c < 0 for c in self.coeff_pos + self.coeff_neg):
            raise ValueError("split coefficients must be nonnegative")

    @property
    def degree_cap(self) -> int:
        return len(self.coeff_pos) - 1

    def degrees_and_probs(self):
        degs = [n for n in range(1, self.degree_cap + 1, 2)]
        w = np.array([0.5 ** (n + 1) for n in degs])
        return np.array(degs), w / w.sum()

    def partial_sum(self, t: float) -> float:
        return float(
            sum((p - q) * t**n for n, (p, q) in enumerate(zip(self.coeff_pos, self.coeff_neg)))
        )

    @classmethod
    def from_tanh(cls, N: int) -> "TaylorSplitKernel":
        a = tanh_series_coeffs(N)
        pos = tuple(float(c) if c > 0 else 0.0 for c in a)
        neg = tuple(float(-c) if c < 0 else 0.0 for c in a)
        return cls(coeff_pos=pos, coeff_neg=neg)


def _kk_features(coeffs, prob_of_degree, deg_draws, cumprods):
    """sqrt(a_n / p(n)) * prod of the first n Rademacher projections."""
    a = np.array([coeffs[n] for n in deg_draws])
    p = prob_of_degree[deg_draws]
    vals = cumprods[np.arange(len(deg_draws)), deg_draws - 1]
    return np.sqrt(a / p) * vals


def kar_karnick_features(
    k: TaylorSplitKernel, x: np.ndarray, D: int, seed: int, shared: bool = True
):
    """(Phi1(x), Phi2(x)) feature blocks of length D each, unnormalized
    (estimators divide block dot products by D).

    ``shared`` reuses one Rademacher pool for both blocks, the reduced-
    variance coupling; otherwise each block gets an independent pool.
    """
    x = np.asarray(x, dtype=float)
    degrees, probs = k.degrees_and_probs()
    prob_of_degree = np.zeros(k.degree_cap + 1)
    prob_of_degree[degrees] = probs
    cap = k.degree_cap
    out = []
    for series in (0, 1):
        pool_key = 0 if shared else series
        pool = rng_for(seed, 10 + pool_key, 0, MISC_STREAM).integers(
            0, 2, size=(D, cap, len(x))
        ) * 2 - 1
        proj = pool @ x  # (D, cap)
        cumprods = np.cumprod(proj, axis=1)
        deg_rng = rng_for(seed, 20 + series, 0, MISC_STREAM)
        deg_draws = degrees[deg_rng.choice(len(degrees), size=D, p=probs)]
        coeffs = k.coeff_pos if series == 0 else k.coeff_neg
        out.append(_kk_features(coeffs, prob_of_degree, deg_draws, cumprods))
    return out[0], out[1]


def kar_karnick_estimate(
    k: TaylorSplitKernel,
    x: np.ndarray,
    y: np.ndarray,
    D: int,
    seed: int,
    shared: bool = True,
) -> float:
    """<[Phi1(x)|Phi2(x)], [Phi1(y)|-Phi2(y)]> / D."""
    f1x, f2x = kar_karnick_features(k, x, D, seed, shared=shared)
    f1y, f2y = kar_karnick_features(k, y, D, seed, shared=shared)
    return float((np.dot(f1x, f1y) - np.dot(f2x, f2y)) / D)

