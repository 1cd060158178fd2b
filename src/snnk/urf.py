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
vector, one ratio vector and one M x dim Gaussian matrix ``G``.  Either
tower is one real matrix product and one exp: the exponent of every entry,
its norm term and its normaliser included, is a packed real matrix against
an augmented row,

    input tower (z = x):  [c_i g_i | q_i | A|g_i|^2 + log s] . [i z, z.z, 1]
    param tower (z = w):  [g_i | 2 pi xi_i | -1/2 | arg c_j | A|g_i|^2 + log(p |c_j| / sqrt(m))]
                           . [r w, i b, w.w, i, 1]

with r = sqrt(1-4A), c_i = 2 pi r xi_i, q_i = 2 pi^2 xi_i^2, the prefactor
p = (1-4A)^(d/4), s = p / sqrt(m), and c_j the signed mass of entry i's
component.  The fixed policy puts rho(xi) = 2 pi i xi on the input side (the
i rides on the augmented row) and the bias phase exp(2 pi i xi b) and the
signed mass in the parameter exponent, so ``psi_many`` only multiplies the
exponential by each entry's importance ratio.  The product meets each
augmented row as its (K, 2) float pairs [Re a, Im a]: the packed matrix is
real, and the (M, 2) result is the row's complex exponent, exponentiated in
place.  A (..., d) stack is that product for each row, so every row equals
its single call bit for bit.  ``UrfDraws.input_matrix`` is packed once per
draw set, on first use, since serving reuses it; the parameter matrix is
packed per ``psi_many`` call and not kept.

There is one sampling scheme: ``sample_draws(decomp, dim, cfg)`` reads each
component's frequencies and Gaussians off its own (seed, axis, XI/G) streams
into its rows of the fused arrays.  The proposal follows the component type:
atoms are drawn exactly (ratio 1), and a tabulated density piecewise-uniformly
over its tabulation cells.  A draw set has one shape: n independent
instantiations of m features per component are one set of n*m, whose feature
entries ``UrfDraws.instantiations`` regroups into one row per instantiation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, partial

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

    ``m`` iid random features per active transform component and shape
    parameter ``A <= 0`` (more negative trades variance for tighter
    boundedness).  A value that fails a check raises a ConfigError naming
    its field.
    """

    m: int
    A: float = -0.1
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("m", f"must be >= 1, got {self.m}")
        if not (math.isfinite(self.A) and self.A <= 0):
            raise ConfigError("A", f"must be finite and <= 0, got {self.A}")


@dataclass(frozen=True)
class AxisDraws:
    """One component's rows of a draw set: views of ``UrfDraws.xi``, ``G`` and
    ``ratio``, so reading them copies nothing."""

    axis: str
    c: complex  # signed component mass
    xi: np.ndarray  # (m,)
    g: np.ndarray  # (m, dim)
    ratio: np.ndarray  # (m,), p_j(xi)/proposal(xi), >= 0


@dataclass(frozen=True)
class UrfDraws:
    """Draws for every active component, fused along one feature axis.

    Component j (``axes[j]``) owns entries j*m to (j+1)*m - 1 of ``xi`` and
    ``ratio`` and those rows of the one Gaussian matrix ``G``, with m =
    ``config.m``; ``blocks`` views them per component.  The packed input
    tower ``input_matrix`` is computed once per draw set on first use, so the
    arrays must not be modified in place after ``phi`` has been evaluated:
    the cached matrix would go stale.
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
        config.m.  Each tower carries 1/sqrt(config.m), so the product of two
        rows is an instantiation's estimate times m / config.m.
        """
        total = self.config.m
        if n < 1 or total % n:
            raise ValueError(f"n must be >= 1 and divide m = {total}, got {n}")
        run = total // n
        m = run if m is None else m
        if not 1 <= m <= run:
            raise ValueError(f"m must be in [1, {run}], got {m}")
        runs = entries.reshape(len(self.axes), n, run)
        return runs[:, :, :m].swapaxes(0, 1).reshape(n, -1)

    @property
    def prefactor(self) -> float:
        """Lambda's prefactor (1-4A)^(d/4)."""
        return (1.0 - 4.0 * self.config.A) ** (self.dim / 4.0)

    def _packed(self, constants: list, order: str) -> np.ndarray:
        """A tower's packed matrix in memory ``order``: the Gaussian block
        (columns :dim) and entry column (dim) left for the caller, then the
        ``constants`` columns ([[v_j] for each component j]), the last plus
        A|g_i|^2.  Columns are filled along the entries: a loop over each
        row's few coordinates costs 4x at the dim = 2 of an estimate run."""
        cols = np.empty((self.total_features, self.dim + 1 + len(constants)), order=order).T
        cols[self.dim + 1 :].reshape(len(constants), len(self.axes), self.config.m)[:] = constants
        if self.config.A != 0:  # the default shape skips this pass over G
            cols[-1] += self.config.A * np.einsum("ij,ij->i", self.G, self.G)
        return cols.T

    @cached_property
    def input_matrix(self) -> np.ndarray:
        """[c_i g_i | q_i | A|g_i|^2 + log s] against [i x, x.x, 1]: c_i =
        sqrt(1-4A) 2 pi xi_i, q_i = 2 pi^2 xi_i^2, s = prefactor / sqrt(m).
        Row-major: a single row's product reads it fastest."""
        d, root = self.dim, math.sqrt(1.0 - 4.0 * self.config.A)
        log_scale = math.log(self.prefactor / math.sqrt(self.config.m))
        P = self._packed([[[log_scale]] * len(self.axes)], "C")
        np.multiply(self.G.T, 2.0 * math.pi * root * self.xi, out=P.T[:d], order="C")
        q = np.square(self.xi, out=P[:, d])
        q *= 2.0 * math.pi**2
        return P

    def param_matrix(self) -> np.ndarray:
        """[g_i | 2 pi xi_i | -1/2 | arg c_j | A|g_i|^2 + log(p |c_j| / sqrt(m))]
        against [sqrt(1-4A) w, i b, w.w, i, 1], with c_j the signed mass of
        entry i's component.  Column-major: built per call, its columns are
        contiguous, and a tall product with few columns reads it faster."""
        norm = self.prefactor / math.sqrt(self.config.m)
        P = self._packed([[[-0.5]] * len(self.axes), [[cmath.phase(c)] for _, c in self.axes],
                          [[math.log(norm * abs(c))] for _, c in self.axes]], "F")
        P[:, : self.dim] = self.G
        np.multiply(self.xi, 2.0 * math.pi, out=P[:, self.dim])
        return P


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
        if len(component.atoms) == 1:
            xi = np.full(n_xi, component.atoms[0][0])
        else:
            locs = np.array([x for x, _ in component.atoms])
            probs = np.array([w for _, w in component.atoms]) / component.mass
            xi = locs[stream().choice(len(locs), size=n_xi, p=probs)]
        return xi, np.ones(n_xi)
    cells = component.cells
    if cells.total <= 0:
        raise ProposalMismatch("grid proposal over an empty tabulation")
    rng = stream()
    # rng.choice(p=mass / total) without rebuilding the CDF per call
    idx = cells.search(rng.random(n_xi))
    u = rng.random(n_xi)
    xi = component.grid[idx] + u * cells.width[idx]
    ratio = component.density(xi) / component.mass / cells.proposal[idx]
    return xi, ratio


def sample_draws(decomp: FourierDecomposition, dim: int, cfg: UrfConfig) -> UrfDraws:
    """Draw (xi_i, g_i) pairs for every active component.

    Deterministic in ``cfg.seed``; each component uses its own derived
    streams, so adding or removing components does not perturb the others.
    ``G`` is allocated once and each component's Gaussian stream fills its
    rows in place.
    """
    comps = decomp.active()
    m = cfg.m
    xi = np.empty(len(comps) * m)
    ratio = np.empty_like(xi)
    G = np.empty(xi.shape + (dim,))
    for j, comp in enumerate(comps):
        rows, axis_id = slice(j * m, (j + 1) * m), AXIS_ID[comp.axis]
        xi_stream = partial(rng_for, cfg.seed, axis_id, 0, XI_STREAM)
        xi[rows], ratio[rows] = _sample_xi(comp, m, xi_stream)
        rng_for(cfg.seed, axis_id, 0, G_STREAM).standard_normal(out=G[rows])
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


def _tower(packed: np.ndarray, aug: np.ndarray) -> np.ndarray:
    """exp(packed . a) for each augmented row a of ``aug`` (..., K) complex:
    the real (M, K) matrix against the (K, 2) float pairs [Re a, Im a] of
    each row, whose (M, 2) result is the complex exponent, exponentiated in
    place; (..., M) complex."""
    E = (packed @ aug.view(float).reshape(*aug.shape, 2)).view(complex)[..., 0]
    return np.exp(E, out=E)


def _square(Z: np.ndarray) -> np.ndarray:
    """The bilinear (non-conjugated) square z.z of each row z of ``Z`` (..., d)."""
    return np.add.reduce(Z * Z, axis=-1)


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
    Z, d = input_rows(X, draws.dim), draws.dim
    aug = np.empty(Z.shape[:-1] + (d + 2,), dtype=complex)
    np.multiply(Z, 1j, out=aug[..., :d])
    aug[..., d] = _square(Z)
    aug[..., d + 1] = 1.0
    return _tower(draws.input_matrix, aug)


def psi_many(W: np.ndarray, b: np.ndarray, draws: UrfDraws) -> np.ndarray:
    """Psi of each weight row of ``W`` (..., d) with its bias in ``b`` (...);
    (..., total_features) complex.

    Any leading axes are allowed; ``psi(w, b)`` is the call on the one row w.
    """
    W, d = input_rows(W, draws.dim, "weights"), draws.dim
    aug = np.zeros(W.shape[:-1] + (d + 4,), dtype=complex)
    aug[..., :d] = W * math.sqrt(1.0 - 4.0 * draws.config.A)
    aug.imag[..., d] = b
    aug[..., d + 1] = _square(W)
    aug[..., d + 2 :] = 1j, 1.0
    E = _tower(draws.param_matrix(), aug)
    E *= draws.ratio
    return E


def kernel_estimate(px: FeatureVector, pw: FeatureVector) -> float | np.ndarray:
    """Re of the bilinear feature dot product (the estimator proper), formed
    as ``snnk_forward`` forms Re(A Phi(x)): [Re phi_j, -Im phi_j] against
    [Re psi_j, Im psi_j], one real product per row, so a one-row layer's
    output is the estimate bit for bit.  One pair gives a Python float."""
    x = np.conjugate(px.entries, dtype=complex).view(float)
    w = np.ascontiguousarray(pw.entries, dtype=complex).view(float)
    est = np.matmul(x[..., None, :], w[..., None])[..., 0, 0]
    return float(est) if est.ndim == 0 else est


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
    scale = draws.prefactor / math.sqrt(draws.config.m)
    return scale * np.exp(2.0 * math.pi**2 * draws.xi**2 * max_norm_x**2)


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
    scale = draws.prefactor / math.sqrt(draws.config.m)
    return scale * mass * draws.ratio * math.exp(exponent)
