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
summand, concatenated across active transform components; their bilinear
dot product is an unbiased estimate of f(w.x + b).

Both towers evaluate Lambda through one batch-first kernel, ``_lambda_exp``,
over the per-block constants cached in ``UrfDraws.terms``.  It forms each
g.z as one matrix-vector product per row of a (..., d) stack, so row i of
``phi_many``/``psi_many`` is bit-identical to ``phi``/``psi`` of that row,
which are the same calls without a leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._seeds import G_STREAM, XI_STREAM, rng_for
from .activations import AXES, FourierComponent, FourierDecomposition

AXIS_ID = {ax: i for i, ax in enumerate(AXES)}


class ProposalMismatch(ValueError):
    """Proposal distribution cannot cover the component's support."""


class LayoutMismatch(ValueError):
    """Feature vectors built under different layouts."""


class NotAtomic(ValueError):
    """Operation requires a purely atomic decomposition."""


# ---------------------------------------------------------------------------
# proposals


@dataclass(frozen=True)
class ExactProposal:
    """Sample atoms from their own categorical distribution (ratio 1)."""


@dataclass(frozen=True)
class GaussianProposal:
    """Centered Gaussian; sigma=None scales to the component's second moment."""

    sigma: float | None = None


@dataclass(frozen=True)
class GridProposal:
    """Piecewise-uniform proposal over the component's tabulation cells."""


def default_proposal(component: FourierComponent):
    """Exact atoms; grid-categorical for densities.

    A moment-matched Gaussian proposal is available per-axis but loses to
    the exponential tails of the principal-value densities (the importance
    ratio is unbounded, giving a heavy-tailed estimator); the cell-based
    proposal keeps every ratio within a few percent of one.
    """
    return ExactProposal() if component.is_atomic else GridProposal()


# ---------------------------------------------------------------------------
# configuration and draws


@dataclass(frozen=True)
class UrfConfig:
    """Sampling configuration for one feature map.

    ``m`` random features per active transform component, shape parameter
    ``A <= 0`` (more negative trades variance for tighter boundedness),
    ``strategy`` either "iid" or "block" (one frequency shared inside each
    block of ``block_size`` Gaussians), and per-axis proposal overrides.
    """

    m: int
    A: float = -0.1
    strategy: str = "iid"
    block_size: int = 0
    seed: int = 0
    proposals: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.A > 0:
            raise ValueError("A must be <= 0")
        if self.strategy not in ("iid", "block"):
            raise ValueError("strategy must be 'iid' or 'block'")
        if self.strategy == "block":
            if self.block_size < 1 or self.m % self.block_size != 0:
                raise ValueError("block_size must divide m")

    def proposal_for(self, component: FourierComponent):
        for axis, prop in self.proposals:
            if axis == component.axis:
                return prop
        return default_proposal(component)


@dataclass(frozen=True)
class AxisDraws:
    """Sampled (xi_i, g_i) pairs and importance ratios for one component.

    The arrays may carry a leading instantiation axis (``sample_draws_batch``).
    ``g_complex``, a complex copy of ``g``, is built lazily and cached on
    the instance, only once a complex input or weight row meets this block
    (bundled stages after the first).  The draw arrays must not be modified
    in place after a feature map has been evaluated: the cached constants
    here and in ``UrfDraws.terms`` would go stale.
    """

    axis: str
    sub: int  # atom index under per-atom concatenation, else 0
    c: complex  # signed component mass
    xi: np.ndarray  # (..., m)
    g: np.ndarray  # (..., m, dim)
    ratio: np.ndarray  # (..., m), p_j(xi)/proposal(xi), >= 0
    atom_probs: tuple[float, ...] = ()  # normalized atom probabilities, if atomic

    @cached_property
    def g_complex(self) -> np.ndarray:
        return self.g.astype(complex)

    def g_for(self, v: np.ndarray) -> np.ndarray:
        """g, or its cached complex copy when ``v`` is complex: numpy would
        otherwise cast g to complex on every product with v."""
        return self.g_complex if np.iscomplexobj(v) else self.g


class LambdaTerms(NamedTuple):
    """Per-block constants of Lambda for one shape A, shared by both towers."""

    agg: np.ndarray  # A |g_i|^2
    prefactor: float  # (1-4A)^(d/4)
    scale: float  # prefactor / sqrt(m), the input-side weight
    root: float  # sqrt(1-4A), the coefficient of g_i.w
    phase: np.ndarray  # root * 2 pi i xi_i, the coefficient of g_i.x
    quad: np.ndarray  # 2 pi^2 xi_i^2, the coefficient of x.x


@dataclass(frozen=True)
class UrfDraws:
    """Draws for every active component, plus cached per-block constants.

    ``layout`` and ``terms`` (one ``LambdaTerms`` per block, read by both
    towers) are computed once per draw set, on first use.  Block arrays may
    carry a leading instantiation axis (``BatchUrfDraws``); so do the terms.
    """

    dim: int
    config: UrfConfig
    blocks: tuple[AxisDraws, ...]

    @cached_property
    def layout(self) -> tuple[tuple[str, int, int], ...]:
        return tuple((b.axis, b.sub, b.xi.shape[-1]) for b in self.blocks)

    @cached_property
    def terms(self) -> tuple[LambdaTerms, ...]:
        A = self.config.A
        root = math.sqrt(1.0 - 4.0 * A)
        out = []
        for blk in self.blocks:
            m, d = blk.g.shape[-2:]
            prefactor = (1.0 - 4.0 * A) ** (d / 4.0)
            out.append(
                LambdaTerms(
                    agg=A * np.sum(blk.g * blk.g, axis=-1),
                    prefactor=prefactor,
                    scale=prefactor / math.sqrt(m),
                    root=root,
                    phase=root * (2j * math.pi * blk.xi),
                    quad=2.0 * math.pi**2 * blk.xi**2,
                )
            )
        return tuple(out)

    @property
    def total_features(self) -> int:
        return sum(b.xi.shape[-1] for b in self.blocks)


@dataclass(frozen=True)
class FeatureVector:
    entries: np.ndarray  # complex, (total_features,) or (..., total_features)
    layout: tuple[tuple[str, int, int], ...]


def _like_layouts(a: FeatureVector, b: FeatureVector):
    if a.layout != b.layout:
        raise LayoutMismatch(f"layouts differ: {a.layout} vs {b.layout}")


# ---------------------------------------------------------------------------
# sampling


def _sample_xi(component, proposal, n_xi, rng):
    """Frequencies plus importance ratios for one component."""
    if isinstance(proposal, ExactProposal):
        if not component.is_atomic:
            raise ProposalMismatch("exact proposal requires an atomic component")
        locs = np.array([x for x, _ in component.atoms])
        probs = np.array([w for _, w in component.atoms]) / component.mass
        if len(locs) == 1:
            xi = np.full(n_xi, locs[0])
        else:
            xi = locs[rng.choice(len(locs), size=n_xi, p=probs)]
        return xi, np.ones(n_xi)
    if component.is_atomic:
        raise ProposalMismatch("density proposal on an atomic component")
    if isinstance(proposal, GaussianProposal):
        sigma = proposal.sigma
        if sigma is None:
            sigma = math.sqrt(component.second_moment())
        xi = sigma * rng.standard_normal(n_xi)
        pbar = np.exp(-0.5 * (xi / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        ratio = component.density(xi) / component.mass / pbar
        return xi, ratio
    if isinstance(proposal, GridProposal):
        grid, vals = component.grid, component.values
        cell_mass = 0.5 * (vals[1:] + vals[:-1]) * np.diff(grid)
        total = cell_mass.sum()
        if total <= 0:
            raise ProposalMismatch("grid proposal over an empty tabulation")
        idx = rng.choice(len(cell_mass), size=n_xi, p=cell_mass / total)
        u = rng.random(n_xi)
        xi = grid[idx] + u * (grid[idx + 1] - grid[idx])
        pbar = cell_mass[idx] / total / (grid[idx + 1] - grid[idx])
        ratio = component.density(xi) / component.mass / pbar
        return xi, ratio
    raise ProposalMismatch(f"unknown proposal {proposal!r}")


def _axis_block(component, dim, cfg, sub=0, fixed_xi=None, fixed_ratio=None):
    axis_id = AXIS_ID[component.axis]
    m = cfg.m
    if fixed_xi is not None:
        xi = np.full(m, fixed_xi)
        ratio = np.full(m, fixed_ratio)
    else:
        rng_xi = rng_for(cfg.seed, axis_id, sub, XI_STREAM)
        proposal = cfg.proposal_for(component)
        if cfg.strategy == "block":
            n_xi = m // cfg.block_size
            xi, ratio = _sample_xi(component, proposal, n_xi, rng_xi)
            xi = np.repeat(xi, cfg.block_size)
            ratio = np.repeat(ratio, cfg.block_size)
        else:
            xi, ratio = _sample_xi(component, proposal, m, rng_xi)
    g = rng_for(cfg.seed, axis_id, sub, G_STREAM).standard_normal((m, dim))
    probs = ()
    if component.is_atomic:
        probs = tuple(w / component.mass for _, w in component.atoms)
    return AxisDraws(
        axis=component.axis,
        sub=sub,
        c=complex(component.mass * _axis_phase(component.axis)),
        xi=xi,
        g=g,
        ratio=ratio,
        atom_probs=probs,
    )


def _axis_phase(axis):
    return {"re+": 1.0, "re-": -1.0, "im+": 1j, "im-": -1j}[axis]


def sample_draws(decomp: FourierDecomposition, dim: int, cfg: UrfConfig) -> UrfDraws:
    """Draw (xi_i, g_i) pairs for every active component.

    Deterministic in ``cfg.seed``; each component uses its own derived
    stream, so adding or removing components does not perturb the others.
    """
    blocks = tuple(_axis_block(c, dim, cfg) for c in decomp.active())
    return UrfDraws(dim=dim, config=cfg, blocks=blocks)


def atoms_concat_draws(
    decomp: FourierDecomposition, dim: int, cfg: UrfConfig
) -> UrfDraws:
    """Per-atom deterministic-frequency blocks, concatenated.

    Each atom of each active component becomes its own block of ``m``
    features with the frequency fixed at the atom and the importance ratio
    equal to the atom's normalized probability; the frequency integral is
    then handled exactly and only the Gaussian part is sampled.  With a
    single atom per component this reproduces ``sample_draws`` bit for bit.
    """
    if not decomp.all_atomic:
        raise NotAtomic("per-atom concatenation requires an atomic decomposition")
    blocks = []
    for comp in decomp.active():
        for k, (loc, w) in enumerate(comp.atoms):
            blocks.append(
                _axis_block(
                    comp, dim, cfg, sub=k, fixed_xi=loc, fixed_ratio=w / comp.mass
                )
            )
    return UrfDraws(dim=dim, config=cfg, blocks=tuple(blocks))


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


def _lambda_exp(Z, blk, t, coef, quad):
    """exp(A|g_i|^2 + coef_i g_i.z + quad_i z.z) for each row z of Z (..., d).

    g_i.z is one matrix-vector product per row, so every row of a stack is
    bit-identical to that row evaluated alone; ``Z @ g.T`` would be one
    matrix-matrix product, whose rows differ in the last bits.
    """
    gz = (blk.g_for(Z) @ Z[..., None])[..., 0]
    zz = (Z * Z).sum(axis=-1, keepdims=True)  # bilinear; complex-safe
    return np.exp(t.agg + coef * gz + quad * zz)


def phi(x: np.ndarray, draws: UrfDraws) -> FeatureVector:
    """Input-side feature vector: ``phi_many`` of one row, or of a (..., d)
    stack (entries (..., total_features))."""
    x = np.asarray(x)
    if x.shape[-1:] != (draws.dim,):
        raise ValueError(f"expected input of dim {draws.dim}, got {x.shape}")
    return FeatureVector(entries=phi_many(x, draws), layout=draws.layout)


def psi(w: np.ndarray, b: float, draws: UrfDraws) -> FeatureVector:
    """Parameter-side feature vector: ``psi_many`` of one (row, bias) pair."""
    w = np.asarray(w)
    if w.shape != (draws.dim,):
        raise ValueError(f"expected weights of dim {draws.dim}, got {w.shape}")
    return FeatureVector(entries=psi_many(w, b, draws), layout=draws.layout)


def phi_many(X: np.ndarray, draws: UrfDraws) -> np.ndarray:
    """Phi of each row of ``X`` (..., d); (..., total_features) complex.

    Any leading axes are allowed; row i equals ``phi(X[i], draws)`` bit for bit.
    """
    X = np.asarray(X)
    return np.concatenate([t.scale * _lambda_exp(X, blk, t, t.phase, t.quad)
                           for blk, t in zip(draws.blocks, draws.terms)], axis=-1)


def psi_many(W: np.ndarray, b: np.ndarray, draws: UrfDraws) -> np.ndarray:
    """Psi of each weight row of ``W`` (..., d) with its bias in ``b`` (...);
    (..., total_features) complex.

    Any leading axes are allowed; row i equals ``psi(W[i], b[i], draws)`` bit
    for bit, so A and W_bar are the row-by-row constructions.
    """
    W = np.asarray(W)
    b = np.asarray(b)[..., None]
    return np.concatenate([
        blk.c / math.sqrt(blk.xi.shape[-1])
        * (blk.ratio * np.exp(2j * math.pi * blk.xi * b))
        * (t.prefactor * _lambda_exp(W, blk, t, t.root, -0.5))
        for blk, t in zip(draws.blocks, draws.terms)
    ], axis=-1)


def kernel_estimate(px: FeatureVector, pw: FeatureVector) -> float:
    """Re of the bilinear feature dot product (the estimator proper)."""
    return kernel_estimate_complex(px, pw).real


def kernel_estimate_complex(px: FeatureVector, pw: FeatureVector) -> complex:
    """Full bilinear product; the imaginary part is a sampling diagnostic."""
    _like_layouts(px, pw)
    return complex((pw.entries[None, :] @ px.entries)[0])


def atoms_concat_phi(x, decomp, cfg) -> FeatureVector:
    return phi(np.asarray(x), atoms_concat_draws(decomp, len(np.asarray(x)), cfg))


def atoms_concat_psi(w, b, decomp, cfg) -> FeatureVector:
    return psi(np.asarray(w), b, atoms_concat_draws(decomp, len(np.asarray(w)), cfg))


# ---------------------------------------------------------------------------
# boundedness


def phi_entry_bound(draws: UrfDraws, max_norm_x: float) -> np.ndarray:
    """Per-entry magnitude bound for inputs with |x| <= max_norm_x, A <= 0.

    sup over g of exp(A|g|^2) is 1, the g.z term is purely imaginary for
    real inputs, and -(z.z)/2 = 2 pi^2 xi^2 |x|^2, so the bound is the
    prefactor times exp(2 pi^2 xi^2 R^2) at each drawn xi.
    """
    A = draws.config.A
    if A > 0:
        raise ValueError("bound requires A <= 0")
    return np.concatenate([t.scale * np.exp(t.quad * max_norm_x**2) for t in draws.terms])


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
    return np.concatenate([
        t.scale * abs(blk.c) * blk.ratio * math.exp(exponent)
        for blk, t in zip(draws.blocks, draws.terms)
    ])


def per_term_bound(draws: UrfDraws, max_norm_x: float, max_norm_w: float) -> float:
    """Bound on one averaged estimator term |m * phi_i * psi_i| summed
    over components; usable as the bounded-increment constant in
    concentration bounds."""
    bphi = phi_entry_bound(draws, max_norm_x)
    bpsi = psi_entry_bound(draws, max_norm_w)
    ends = np.cumsum([n for _, _, n in draws.layout])[:-1]
    return float(sum(draws.config.m * np.max(p) for p in np.split(bphi * bpsi, ends)))


# ---------------------------------------------------------------------------
# batched instantiations


@dataclass(frozen=True)
class BatchUrfDraws(UrfDraws):
    """``n`` instantiations stacked on a leading axis of every block array."""

    n: int


def sample_draws_batch(
    decomp: FourierDecomposition, dim: int, cfg: UrfConfig, n: int
) -> BatchUrfDraws:
    """``n`` independent instantiations drawn in one shot.

    Equivalent in distribution to ``n`` calls of sample_draws with derived
    seeds; the batch shares one stream per component, so it is its own
    deterministic scheme rather than a reshaping of the single-draw one.
    """
    blocks = []
    for comp in decomp.active():
        axis_id = AXIS_ID[comp.axis]
        rng_xi = rng_for(cfg.seed, axis_id, 0, XI_STREAM)
        proposal = cfg.proposal_for(comp)
        reps = cfg.block_size if cfg.strategy == "block" else 1
        xi, ratio = _sample_xi(comp, proposal, n * (cfg.m // reps), rng_xi)
        xi = np.repeat(xi.reshape(n, -1), reps, axis=1)
        ratio = np.repeat(ratio.reshape(n, -1), reps, axis=1)
        g = rng_for(cfg.seed, axis_id, 0, G_STREAM).standard_normal((n, cfg.m, dim))
        c = complex(comp.mass * _axis_phase(comp.axis))
        blocks.append(AxisDraws(axis=comp.axis, sub=0, c=c, xi=xi, g=g, ratio=ratio))
    return BatchUrfDraws(dim=dim, config=cfg, blocks=tuple(blocks), n=n)


def kernel_estimate_batch(
    x: np.ndarray, w: np.ndarray, b: float, bdraws: BatchUrfDraws
) -> np.ndarray:
    """Complex estimator value per instantiation; (n,) array.

    Row i is the bilinear product of ``phi`` and ``psi`` over instantiation
    i's draws: ``kernel_estimate_complex`` up to summation order."""
    return np.sum(phi_many(x, bdraws) * psi_many(w, b, bdraws), axis=-1)
