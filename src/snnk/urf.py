"""Universal random features.

For an activation f with transform split into nonnegative parts p_j of
signed mass c_j, the value f(w.x + b) is an expectation over frequency /
Gaussian pairs (xi, g):

    f(w.x + b) = sum_j c_j E[ r(xi) exp(2 pi i xi b)
                              Lambda_g(rho(xi) x) Lambda_g(eta(xi) w) ]

with importance ratio r = p_j / proposal, the fixed policy rho(xi) =
2*pi*i*xi, eta(xi) = 1, and the bounded softmax-kernel feature

    Lambda_g(z) = (1-4A)^(d/4) exp(A|g|^2 + sqrt(1-4A) g.z - (z.z)/2),

where z.z is the bilinear (non-conjugated) square, so Lambda extends to
complex arguments by analytic continuation and E_g[Lambda_g(x) Lambda_g(y)]
= exp(x.y) holds exactly.  Feature vectors are the per-draw factors of the
summand, laid out component after component; their bilinear dot product is
an unbiased estimate of f(w.x + b).

A draw set is fused: its M = components x m entries share one frequency
vector, one ratio vector and one M x dim Gaussian matrix ``G``, and
``UrfDraws.terms`` caches the per-entry constants.  Lambda of either side is
one function, ``_tower``: scale * exp(A|g_i|^2 + coef_i g_i.z + quad_i z.z)
over all M entries, with one ``Tower(coef, quad, scale)`` triple per side.
Under the fixed policy the input tower (z = x) is (sqrt(1-4A) 2 pi i xi_i,
2 pi^2 xi_i^2, prefactor / sqrt(m)) and the parameter tower (z = w) is
(sqrt(1-4A), -1/2, prefactor); ``psi_many`` puts the weight, ratio and
bias phase of each entry in front.  ``_tower`` forms g.z of a real (..., d)
stack as one matrix product (``phi``/``psi`` are its calls on one row) and
exponentiates in place in one array, adding A|g_i|^2 only when A != 0.  A
complex row z (a bundled stage input, an absorbed weight row) goes through
the real G as the pair [Re z, Im z].

There is one sampling scheme: ``sample_draws(decomp, dim, cfg)`` reads each
component's frequencies and Gaussians off its own (seed, axis, XI/G) streams
into its rows of the fused arrays.  The proposal follows the component type:
atoms are drawn exactly (ratio 1), and a tabulated density piecewise-uniformly
over its tabulation cells.  A draw set has one shape: n independent
instantiations of m features per component are one set of n*m, whose feature
entries ``UrfDraws.instantiations`` regroups into one row per instantiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from ._seeds import G_STREAM, XI_STREAM, rng_for
from .activations import AXES, AXIS_PHASE, FourierComponent, FourierDecomposition

AXIS_ID = {ax: i for i, ax in enumerate(AXES)}


class ProposalMismatch(ValueError):
    """A density component whose tabulation has no mass to draw from."""


class ShapeMismatch(ValueError):
    """An array whose shape does not fit the draws, layer or network it meets."""


class ConfigError(ValueError):
    """A config value that fails a check; the message starts with its key."""

    def __init__(self, key: str, problem: str):
        super().__init__(f"{key}: {problem}")
        self.key, self.problem = key, problem


# ---------------------------------------------------------------------------
# configuration and draws


@dataclass(frozen=True)
class UrfConfig:
    """Sampling configuration for one feature map.

    ``m`` random features per active transform component, shape parameter
    ``A <= 0`` (more negative trades variance for tighter boundedness),
    ``strategy`` either "iid" or "block" (one frequency shared inside each
    block of ``block_size`` Gaussians).  A value that fails a check raises a
    ConfigError naming its field.
    """

    m: int
    A: float = -0.1
    strategy: str = "iid"
    block_size: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("m", f"must be >= 1, got {self.m}")
        if not (math.isfinite(self.A) and self.A <= 0):
            raise ConfigError("A", f"must be finite and <= 0, got {self.A}")
        if self.strategy not in ("iid", "block"):
            raise ConfigError("strategy", f"expected 'iid' or 'block', got {self.strategy!r}")
        if self.strategy == "block" and (self.block_size < 1 or self.m % self.block_size):
            raise ConfigError("block_size", f"{self.block_size} does not divide m = {self.m}")


@dataclass(frozen=True)
class AxisDraws:
    """One component's rows of a draw set: views of ``UrfDraws.xi``, ``G`` and
    ``ratio``, so reading them copies nothing."""

    axis: str
    c: complex  # signed component mass
    xi: np.ndarray  # (m,)
    g: np.ndarray  # (m, dim)
    ratio: np.ndarray  # (m,), p_j(xi)/proposal(xi), >= 0


class Tower(NamedTuple):
    """One side's constants of Lambda: scale * exp(A|g_i|^2 + coef_i g_i.z + quad_i z.z)."""

    coef: np.ndarray | float  # the coefficient of g_i.z
    quad: np.ndarray | float  # the coefficient of z.z
    scale: float  # the factor in front of the exponential


class LambdaTerms(NamedTuple):
    """Per-entry constants of Lambda for one shape A: shared by both towers,
    then one triple per tower."""

    agg: np.ndarray | float  # A |g_i|^2; 0.0 when A = 0
    freq: np.ndarray  # 2 pi i xi_i, the coefficient of the bias
    weight: np.ndarray  # c_i / sqrt(m), the signed mass of entry i's component
    input: Tower  # rho(xi) x: (sqrt(1-4A) 2 pi i xi_i, 2 pi^2 xi_i^2, (1-4A)^(d/4) / sqrt(m))
    param: Tower  # eta(xi) w: (sqrt(1-4A), -1/2, (1-4A)^(d/4))


@dataclass(frozen=True)
class UrfDraws:
    """Draws for every active component, fused along one feature axis.

    Component j (``axes[j]``) owns entries j*m to (j+1)*m - 1 of ``xi`` and
    ``ratio`` and those rows of the one Gaussian matrix ``G``, with m =
    ``config.m``; ``blocks`` views them per component.  The per-entry
    constants ``terms`` are computed once per draw set on first use, so the
    arrays must not be modified in place after a feature map has been
    evaluated: the cached terms would go stale.
    """

    dim: int
    config: UrfConfig
    axes: tuple[tuple[str, complex], ...]  # (axis, signed mass c) per component
    xi: np.ndarray  # (M,)
    G: np.ndarray  # (M, dim)
    ratio: np.ndarray  # (M,), p_j(xi)/proposal(xi), >= 0

    @property
    def total_features(self) -> int:
        return self.xi.shape[-1]

    @cached_property
    def blocks(self) -> tuple[AxisDraws, ...]:
        m = self.config.m
        views = []
        for j, (axis, c) in enumerate(self.axes):
            rows = slice(j * m, (j + 1) * m)
            views.append(AxisDraws(axis=axis, c=c, xi=self.xi[rows], g=self.G[rows],
                                   ratio=self.ratio[rows]))
        return tuple(views)

    def instantiations(self, entries: np.ndarray, n: int, m: int | None = None) -> np.ndarray:
        """Per-entry values (M,) of this set as (n, C * m) rows, one per
        instantiation of ``m`` features per component (C = len(axes)).

        Instantiation t takes the first ``m`` (all, by default) entries of each
        component's t-th run of config.m / n, components in order: the first m
        of a run of iid features are an iid m-feature set.  ``n`` must divide
        config.m, and under the block strategy the block size must divide the
        run and ``m``, so that no block of shared frequencies spans two
        instantiations.  Each tower carries 1/sqrt(config.m), so the product
        of two rows is an instantiation's estimate times m / config.m.
        """
        cfg = self.config
        block = cfg.block_size if cfg.strategy == "block" else 1
        if n < 1 or cfg.m % (n * block):
            raise ValueError(f"n must be >= 1 and divide m = {cfg.m} into runs of whole "
                             f"blocks (block size {block}), got {n}")
        run = cfg.m // n
        m = run if m is None else m
        if not 1 <= m <= run or m % block:
            raise ValueError(f"m must be in [1, {run}] and a multiple of the block size "
                             f"{block}, got {m}")
        runs = entries.reshape(len(self.axes), n, run)
        return runs[:, :, :m].swapaxes(0, 1).reshape(n, -1)

    @cached_property
    def terms(self) -> LambdaTerms:
        A, m = self.config.A, self.config.m
        root = math.sqrt(1.0 - 4.0 * A)
        prefactor = (1.0 - 4.0 * A) ** (self.dim / 4.0)
        freq = 2j * math.pi * self.xi
        if A == 0:  # the default shape: skip the pass over G
            agg = 0.0
        else:
            # |g_i|^2 one component's rows at a time: a single G-sized temporary
            # made this 1.6x slower at M x dim = 512 x 200 on a 2-core x86_64 VM
            agg = A * np.concatenate([np.sum(b.g * b.g, axis=-1) for b in self.blocks], axis=-1)
        return LambdaTerms(
            agg=agg,
            freq=freq,
            weight=np.repeat([c / math.sqrt(m) for _, c in self.axes], m),
            input=Tower(root * freq, 2.0 * math.pi**2 * self.xi**2, prefactor / math.sqrt(m)),
            param=Tower(root, -0.5, prefactor),
        )


@dataclass(frozen=True)
class FeatureVector:
    entries: np.ndarray  # complex, (total_features,) or (..., total_features)


# ---------------------------------------------------------------------------
# sampling


def _sample_xi(component: FourierComponent, n_xi: int, stream):
    """Frequencies plus importance ratios p_j(xi)/proposal(xi) for one component.

    ``stream()`` gives the generator to draw from; it is called only when
    there is something to draw, so a single atom builds none.  Atoms are
    drawn from their own categorical distribution (ratio 1).  A
    density is drawn piecewise-uniformly over its tabulation cells, which
    keeps every ratio within a few percent of one; a moment-matched Gaussian
    proposal loses to the exponential tails of the principal-value densities
    (its importance ratio is unbounded, giving a heavy-tailed estimator).

    A key u picks the cell ``cells.cdf.searchsorted(u, side="right")``, the
    cell ``Generator.choice`` picks from the same key, since the CDF is
    formed as it forms it.  ``GridCells.search`` reads that index off the
    guide table for the keys whose bucket holds no CDF breakpoint and
    searches only the others, so every index equals the full search's.
    """
    if component.is_atomic:
        locs = np.array([x for x, _ in component.atoms])
        probs = np.array([w for _, w in component.atoms]) / component.mass
        if len(locs) == 1:
            xi = np.full(n_xi, locs[0])
        else:
            xi = locs[stream().choice(len(locs), size=n_xi, p=probs)]
        return xi, np.ones(n_xi)
    grid, cells = component.grid, component.cells
    if cells.total <= 0:
        raise ProposalMismatch("grid proposal over an empty tabulation")
    rng = stream()
    # rng.choice(p=mass / total) without rebuilding the CDF per call
    idx = cells.search(rng.random(n_xi))
    u = rng.random(n_xi)
    xi = grid[idx] + u * (grid[idx + 1] - grid[idx])
    pbar = cells.mass[idx] / cells.total / (grid[idx + 1] - grid[idx])
    ratio = component.density(xi) / component.mass / pbar
    return xi, ratio


def sample_draws(decomp: FourierDecomposition, dim: int, cfg: UrfConfig) -> UrfDraws:
    """Draw (xi_i, g_i) pairs for every active component.

    Deterministic in ``cfg.seed``; each component uses its own derived
    streams, so adding or removing components does not perturb the others.
    ``G`` is allocated once and each component's Gaussian stream is copied
    into its rows.
    """
    comps = decomp.active()
    m = cfg.m
    reps = cfg.block_size if cfg.strategy == "block" else 1
    xi = np.empty(len(comps) * m)
    ratio = np.empty_like(xi)
    G = np.empty(xi.shape + (dim,))
    for j, comp in enumerate(comps):
        rows, axis_id = slice(j * m, (j + 1) * m), AXIS_ID[comp.axis]
        drawn = _sample_xi(comp, m // reps, partial(rng_for, cfg.seed, axis_id, 0, XI_STREAM))
        for dest, a in zip((xi, ratio), drawn):  # one frequency per run of reps Gaussians
            dest[rows] = np.repeat(a, reps)
        G[rows] = rng_for(cfg.seed, axis_id, 0, G_STREAM).standard_normal((m, dim))
    axes = tuple((c.axis, complex(c.mass * AXIS_PHASE[c.axis])) for c in comps)
    return UrfDraws(dim=dim, config=cfg, axes=axes, xi=xi, G=G, ratio=ratio)


# ---------------------------------------------------------------------------
# feature maps


def lambda_feature(g: np.ndarray, z: np.ndarray, A: float) -> complex:
    """Bounded softmax-kernel feature; z.z is the bilinear square."""
    g = np.asarray(g, dtype=float)
    z = np.asarray(z)
    d = g.shape[-1]
    prefactor = (1.0 - 4.0 * A) ** (d / 4.0)
    exponent = (
        A * np.sum(g * g, axis=-1)
        + math.sqrt(1.0 - 4.0 * A) * np.sum(g * z, axis=-1)
        - np.sum(z * z, axis=-1) / 2.0
    )
    return prefactor * np.exp(exponent)


def _project(G: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """g_i.z for every row g_i of G (M, d) and each row z of Z (..., d).

    A real Z is one matrix product ``Z @ G.T``.  A complex z goes through the
    real G as the (d, 2) pair [Re z, Im z], one product per row, which serves
    a single 256-wide stage probe faster than the two products Re Z @ G.T,
    Im Z @ G.T.
    """
    if np.iscomplexobj(Z):
        Z = np.ascontiguousarray(Z, dtype=complex)
        return (G @ Z.view(float).reshape(*Z.shape, 2)).view(complex)[..., 0]
    return Z @ G.T


def _tower(Z, draws, tower: Tower):
    """scale * exp(A|g_i|^2 + coef_i g_i.z + quad_i z.z) for each row z of
    Z (..., d) and every entry i of the draw set."""
    zz = (Z * Z).sum(axis=-1, keepdims=True)  # bilinear; complex-safe
    E = tower.coef * _project(draws.G, Z)  # already the full (..., M) shape and dtype
    if draws.config.A != 0:
        E += draws.terms.agg
    E += tower.quad * zz
    np.exp(E, out=E)
    E *= tower.scale
    return E


def input_rows(X, dim: int, what: str = "input") -> np.ndarray:
    """``X`` as an array of rows of length ``dim``; a ShapeMismatch otherwise."""
    X = np.asarray(X)
    if X.shape[-1:] != (dim,):
        raise ShapeMismatch(f"expected {what} of dim {dim}, got {X.shape}")
    return X


def phi(x: np.ndarray, draws: UrfDraws) -> FeatureVector:
    """Input-side feature vector: ``phi_many`` of one row, or of a (..., d)
    stack (entries (..., total_features))."""
    return FeatureVector(entries=phi_many(x, draws))


def psi(w: np.ndarray, b: float, draws: UrfDraws) -> FeatureVector:
    """Parameter-side feature vector: ``psi_many`` of one (row, bias) pair."""
    return FeatureVector(entries=psi_many(w, b, draws))


def phi_many(X: np.ndarray, draws: UrfDraws) -> np.ndarray:
    """Phi of each row of ``X`` (..., d); (..., total_features) complex.

    Any leading axes are allowed; ``phi(x)`` is the call on the one row x.
    """
    return _tower(input_rows(X, draws.dim), draws, draws.terms.input)


def psi_many(W: np.ndarray, b: np.ndarray, draws: UrfDraws) -> np.ndarray:
    """Psi of each weight row of ``W`` (..., d) with its bias in ``b`` (...);
    (..., total_features) complex.

    Any leading axes are allowed; ``psi(w, b)`` is the call on the one row w.
    """
    W = input_rows(W, draws.dim, "weights")
    t = draws.terms
    b = np.asarray(b)[..., None]
    return t.weight * (draws.ratio * np.exp(t.freq * b)) * _tower(W, draws, t.param)


def kernel_estimate(px: FeatureVector, pw: FeatureVector) -> float | np.ndarray:
    """Re of the bilinear feature dot product (the estimator proper)."""
    return kernel_estimate_complex(px, pw).real


def kernel_estimate_complex(px: FeatureVector, pw: FeatureVector) -> complex | np.ndarray:
    """Full bilinear product; the imaginary part is a sampling diagnostic.

    Feature rows with leading axes (stacked inputs, or the instantiation rows
    of ``UrfDraws.instantiations``) give one product per row, each formed as
    one (1, M) @ (M, 1) product, so a row equals that pair alone bit for bit.
    One pair gives a Python complex.
    """
    est = (pw.entries[..., None, :] @ px.entries[..., None])[..., 0, 0]
    return complex(est) if est.ndim == 0 else est


# ---------------------------------------------------------------------------
# boundedness


def phi_entry_bound(draws: UrfDraws, max_norm_x: float) -> np.ndarray:
    """Per-entry magnitude bound for inputs with |x| <= max_norm_x, A <= 0.

    sup over g of exp(A|g|^2) is 1, the g.z term is purely imaginary for
    real inputs, and -(z.z)/2 = 2 pi^2 xi^2 |x|^2, so the bound is the
    prefactor times exp(2 pi^2 xi^2 R^2) at each drawn xi.
    """
    t = draws.terms.input
    return t.scale * np.exp(t.quad * max_norm_x**2)


def psi_entry_bound(draws: UrfDraws, max_norm_w: float) -> np.ndarray:
    """Per-entry magnitude bound for weights with |w| <= max_norm_w, A < 0.

    Maximizing A t^2 + sqrt(1-4A) t R - R^2/2 over t = |g| gives the
    exponent (1-4A) R^2 / (4|A|) - R^2/2; |exp(2 pi i xi b)| = 1 for any
    real bias, and the drawn importance ratio enters linearly.
    """
    A = draws.config.A
    if A >= 0:
        raise ValueError("parameter-side bound requires A < 0")
    R = max_norm_w
    exponent = (1.0 - 4.0 * A) * R * R / (4.0 * abs(A)) - R * R / 2.0
    mass = np.repeat([abs(c) for _, c in draws.axes], draws.config.m)
    return draws.terms.input.scale * mass * draws.ratio * math.exp(exponent)
