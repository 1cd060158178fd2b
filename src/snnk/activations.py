"""Activation functions, their Fourier transforms, and nonnegative four-way splits.

All transforms use the convention  FT_f(xi) = int f(z) exp(-2*pi*i*xi*z) dz,
so the inverse is  f(z) = int FT_f(xi) exp(+2*pi*i*xi*z) dxi.  Closed forms
quoted in the angular convention  F(k) = int f(z) exp(-i*k*z) dz  map onto
this one by evaluating at k = 2*pi*xi (Dirac atoms additionally pick up the
1/(2*pi) change-of-variables weight).

A transform is split into four nonnegative parts,

    FT_f = R+ - R- + i*I+ - i*I-,

each stored as a ``FourierComponent``: a list of Dirac atoms, or a tabulated
density with an optional analytic evaluator.  ``closed_form_ft`` builds its
atoms and densities directly; ``decompose(grid, values)`` splits a numeric
transform tabulated on a grid.  The split is what the random feature sampler
consumes: each part provides a sampling distribution (its atoms, or its
tabulation cells) and a signed complex mass.

Activations without a vetted closed form (gelu, swish, smoothed relu) are
tabulated by ``numeric_ft``: a windowed trapezoid sum over uniform nodes,
evaluated on a uniform, symmetric frequency grid as one chirp-z transform
(Bluestein's FFT convolution) whose phases are reduced modulo one turn
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

AXES = ("re+", "re-", "im+", "im-")
# unit phase multiplying each component's mass in the reassembled transform
AXIS_PHASE = {"re+": 1.0 + 0j, "re-": -1.0 + 0j, "im+": 1j, "im-": -1j}


class UnsupportedClosedForm(ValueError):
    """No vetted closed-form transform for this activation."""


class QuadratureNonConvergent(ArithmeticError):
    """Richardson refinement levels disagree beyond tolerance."""


# ---------------------------------------------------------------------------
# activations


@dataclass(frozen=True)
class Activation:
    """A scalar activation, evaluable on real arrays.

    ``kind`` is one of sine, cosine, tanh, sigmoid, gelu, swish (z sigmoid(z))
    and smoothed_relu (relu mollified by a standard Gaussian).
    """

    kind: str

    def __post_init__(self):
        if self.kind not in _EVALS:
            raise ValueError(f"unknown activation kind {self.kind!r}")

    def __call__(self, z):
        return _EVALS[self.kind](np.asarray(z, dtype=float))


def _norm_pdf(u):
    return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


# scipy.special is imported inside the two evaluators that use it: importing it
# takes most of the package's import time, and only four activations need it
def _sigmoid(z):
    from scipy.special import expit

    return expit(z)


def _gelu(z):
    from scipy.special import ndtr

    return z * ndtr(z)


_EVALS: dict[str, Callable] = {
    "sine": np.sin,
    "cosine": np.cos,
    "tanh": np.tanh,
    "sigmoid": _sigmoid,
    "gelu": _gelu,
    "swish": lambda z: z * _sigmoid(z),
    "smoothed_relu": lambda z: _gelu(z) + _norm_pdf(z),
}


# ---------------------------------------------------------------------------
# transform components


# buckets of the guide table; a power of two, so that u * GUIDE and b / GUIDE
# are exact for every double u in [0, 1)
GUIDE = 2**14


class GridCells(NamedTuple):
    """The tabulation cells a grid proposal draws from.

    ``guide`` is an exact guide table (Chen & Asau 1974; Devroye 1986,
    III.2.4) over ``cdf``: ``guide[b]`` is ``cdf.searchsorted(b / GUIDE,
    side="right")``.  A key u in bucket b = floor(u * GUIDE) has b / GUIDE <=
    u < (b + 1) / GUIDE, so its cell index lies in [guide[b], guide[b + 1]];
    where those are equal the table gives it without a search.
    """

    mass: np.ndarray  # trapezoid mass of each cell
    total: float
    cdf: np.ndarray  # cumulative cell probabilities; empty when total <= 0
    guide: np.ndarray  # (GUIDE + 1,) cell index of each bucket edge; empty when total <= 0
    width: np.ndarray  # grid[j + 1] - grid[j] of each cell
    proposal: np.ndarray  # mass / total / width, the proposal density; empty when total <= 0

    def search(self, key: np.ndarray) -> np.ndarray:
        """``cdf.searchsorted(key, side="right")`` for keys in [0, 1), index
        for index: the guide table answers each key whose bucket holds no
        CDF breakpoint, and only the rest (about 7% for tanh) are searched."""
        b = (key * GUIDE).astype(np.intp)
        idx = self.guide[b]
        crowded = self.guide[b + 1] > idx
        idx[crowded] = self.cdf.searchsorted(key[crowded], side="right")
        return idx


@dataclass(frozen=True)
class FourierComponent:
    """One nonnegative part of a transform.

    Exactly one of ``atoms`` / ``values`` is populated.  ``density_fn``,
    when present, is the closed-form evaluator of the tabulated values
    (vectorized, zero outside the support).  ``mass`` is the atom-weight
    sum, or the trapezoid integral of the tabulation; sampling ratios and
    signed masses both normalize by this same constant, so any tabulation
    error cancels out of the estimator.
    """

    axis: str
    atoms: tuple[tuple[float, float], ...] = ()
    grid: np.ndarray | None = None
    values: np.ndarray | None = None
    density_fn: Callable | None = None
    mass: float = 0.0

    @property
    def is_atomic(self) -> bool:
        return self.grid is None

    @property
    def is_active(self) -> bool:
        return self.mass > 0.0

    def density(self, xi):
        """Unnormalized component value at ``xi`` (0 outside support)."""
        xi = np.asarray(xi, dtype=float)
        if self.is_atomic:
            raise ValueError("atomic component has no density")
        if self.density_fn is not None:
            return self.density_fn(xi)
        return np.interp(xi, self.grid, self.values, left=0.0, right=0.0)

    @cached_property
    def cells(self) -> GridCells:
        """The tabulation cells, with the CDF formed as ``Generator.choice``
        forms it from p = mass / total, so that searching it draws the same
        cells from the same stream, its guide table (128 KiB), and each cell's
        width and proposal density, which a draw gathers once per sample."""
        width = np.diff(self.grid)
        mass = 0.5 * (self.values[1:] + self.values[:-1]) * width
        total = mass.sum()
        if total <= 0:
            empty = np.empty(0)
            return GridCells(mass, total, empty, np.empty(0, dtype=np.intp), width, empty)
        cdf = (mass / total).cumsum()
        cdf /= cdf[-1]
        guide = cdf.searchsorted(np.arange(GUIDE + 1) / GUIDE, side="right")
        return GridCells(mass, total, cdf, guide, width, mass / total / width)


def _atomic_component(axis, atoms) -> FourierComponent:
    atoms = tuple((float(x), float(w)) for x, w in atoms if w > 0.0)
    return FourierComponent(axis=axis, atoms=atoms, mass=float(sum(w for _, w in atoms)))


def _density_component(axis, grid, values, density_fn=None) -> FourierComponent:
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values < 0):
        raise ValueError("component values must be nonnegative")
    mass = float(np.trapezoid(values, grid))
    return FourierComponent(
        axis=axis, grid=grid, values=values, density_fn=density_fn, mass=mass
    )


@dataclass(frozen=True)
class FourierDecomposition:
    """The four-way split of one activation's transform."""

    components: tuple[FourierComponent, ...]  # ordered as AXES

    def __post_init__(self):
        if tuple(c.axis for c in self.components) != AXES:
            raise ValueError("components must be ordered re+, re-, im+, im-")

    def component(self, axis: str) -> FourierComponent:
        return self.components[AXES.index(axis)]

    def active(self) -> list[FourierComponent]:
        return [c for c in self.components if c.is_active]


# ---------------------------------------------------------------------------
# closed forms

# Principal-value densities have a non-integrable 1/xi singularity at the
# origin; a symmetric interval (-XI_MIN, XI_MIN) is excised.  The dropped
# odd-mass contribution to the reconstruction is O(4*z*XI_MIN), so the
# default keeps it ~2e-4 over |z| <= 5.
XI_MIN = 1e-5
GRID_MAX = 8.0
GRID_POINTS = 4096


def _csch(u):
    # stable for large |u|; u is bounded away from 0 by the excision
    with np.errstate(over="ignore"):
        return 1.0 / np.sinh(u)


def _pv_grid(xi_min, xi_max, n_half):
    """One-sided composite grid resolving the 1/xi edge: log then linear."""
    n_log = n_half // 2
    knee = 0.25
    left = np.geomspace(xi_min, knee, n_log, endpoint=False)
    right = np.linspace(knee, xi_max, n_half - n_log)
    return np.concatenate([left, right])


def _pv_odd_imag_decomposition(rate) -> FourierDecomposition:
    """Split of an odd transform  -i*pi*csch(rate*xi)  (principal value).

    Im is negative for xi > 0, so 'im-' lives on (XI_MIN, inf) and 'im+'
    mirrors it on the negative side.
    """

    def half_density(xi):
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        m = xi >= XI_MIN
        out[m] = math.pi * _csch(rate * xi[m])
        return out

    pos_grid = _pv_grid(XI_MIN, GRID_MAX, GRID_POINTS // 2)
    pos_vals = half_density(pos_grid)
    neg_grid = -pos_grid[::-1]
    neg_vals = pos_vals[::-1]

    im_minus = _density_component("im-", pos_grid, pos_vals, density_fn=half_density)
    im_plus = _density_component(
        "im+", neg_grid, neg_vals, density_fn=lambda xi: half_density(-np.asarray(xi))
    )
    return FourierDecomposition(
        components=(
            _atomic_component("re+", ()),
            _atomic_component("re-", ()),
            im_plus,
            im_minus,
        ),
    )


def closed_form_ft(a: Activation) -> FourierDecomposition:
    """Vetted closed-form decompositions (sine, cosine, tanh, sigmoid).

    sine:    FT(xi) = (i/2)[delta(xi + 1/(2 pi)) - delta(xi - 1/(2 pi))]
    cosine:  FT(xi) = (1/2)[delta(xi + 1/(2 pi)) + delta(xi - 1/(2 pi))]
    tanh:    FT(xi) = -i*pi*csch(pi^2 * xi)            (principal value)
    sigmoid: FT(xi) = (1/2)delta(xi) - i*pi*csch(2*pi^2*xi)

    The csch forms are the angular-convention results evaluated at
    k = 2*pi*xi; sigmoid's DC atom is the transform of its constant 1/2
    offset (sigmoid(z) = 1/2 + tanh(z/2)/2), absent from the csch part.
    """
    xi0 = 1.0 / TWO_PI
    if a.kind == "sine":
        return FourierDecomposition(
            components=(
                _atomic_component("re+", ()),
                _atomic_component("re-", ()),
                _atomic_component("im+", [(-xi0, 0.5)]),
                _atomic_component("im-", [(+xi0, 0.5)]),
            ),
        )
    if a.kind == "cosine":
        return FourierDecomposition(
            components=(
                _atomic_component("re+", [(-xi0, 0.5), (+xi0, 0.5)]),
                _atomic_component("re-", ()),
                _atomic_component("im+", ()),
                _atomic_component("im-", ()),
            ),
        )
    if a.kind == "tanh":
        return _pv_odd_imag_decomposition(rate=math.pi**2)
    if a.kind == "sigmoid":
        d = _pv_odd_imag_decomposition(rate=2.0 * math.pi**2)
        return FourierDecomposition(
            components=(_atomic_component("re+", [(0.0, 0.5)]),) + d.components[1:]
        )
    raise UnsupportedClosedForm(f"no closed-form transform for {a.kind}")


# ---------------------------------------------------------------------------
# numeric transform oracle


# numeric_ft's quadrature, fixed: the window is 1 on [-WINDOW_FLAT, WINDOW_FLAT]
# and rolls off to 0 over WINDOW_TAPER more, the fine level's nodes are
# NODE_STEP / 2 apart, and the two levels must agree to RICHARDSON_RTOL
WINDOW_FLAT = 10.0
WINDOW_TAPER = 30.0
NODE_STEP = 1.0 / 128.0
RICHARDSON_RTOL = 1e-6


def _window(z):
    """w(z) = 1 on [-WINDOW_FLAT, WINDOW_FLAT], smooth (C-infinity) roll-off
    to 0 at WINDOW_FLAT + WINDOW_TAPER; the smoothness keeps spectral leakage
    super-polynomially small, which matters when comparing against
    exponentially small transform tails."""
    flat, cutoff = WINDOW_FLAT, WINDOW_FLAT + WINDOW_TAPER
    z = np.abs(np.asarray(z, dtype=float))
    out = np.ones_like(z)
    roll = (z > flat) & (z < cutoff)
    t = (z[roll] - flat) / WINDOW_TAPER
    with np.errstate(over="ignore"):
        s = np.clip(1.0 / (1.0 - t) - 1.0 / t, -700.0, 700.0)
        out[roll] = 1.0 / (1.0 + np.exp(s))
    out[z >= cutoff] = 0.0
    return out


def numeric_ft(a: Callable, grid: np.ndarray) -> np.ndarray:
    """Windowed trapezoid quadrature of the transform on ``grid``.

    ``a`` is an Activation or any other callable of a real array; ``grid``
    must be uniform and symmetric about 0.  The integrand
    f(z) w(z) exp(-2 pi i xi z) is summed at steps ``NODE_STEP`` and
    ``NODE_STEP / 2`` and Richardson-extrapolated; if the two levels disagree
    by more than ``RICHARDSON_RTOL`` relative to the transform's peak
    magnitude, raises QuadratureNonConvergent.  Each level is one chirp-z sum
    (``_trapezoid_ft``) over the uniform nodes and frequencies.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if not np.allclose(grid, -grid[::-1], atol=1e-12):
        raise ValueError("grid must be symmetric about 0")
    # a linspace is uniform to a few units in the last place
    uniform = np.linspace(grid[0], grid[-1], len(grid))
    if np.max(np.abs(grid - uniform)) > 16 * np.finfo(float).eps * grid[-1]:
        raise ValueError("grid must be uniform")

    half = WINDOW_FLAT + WINDOW_TAPER
    n = int(round(2 * half / (NODE_STEP / 2))) + 1
    z = np.linspace(-half, half, n)
    fz = a(z) * _window(z)

    fine = _trapezoid_ft(z, fz, grid)
    coarse = _trapezoid_ft(z[::2], fz[::2], grid)
    scale = np.max(np.abs(fine)) + 1e-300
    disagreement = np.max(np.abs(fine - coarse)) / scale
    if disagreement > RICHARDSON_RTOL:
        raise QuadratureNonConvergent(
            f"refinement levels disagree by {disagreement:.2e} (> {RICHARDSON_RTOL:.0e})"
        )
    # Richardson: trapezoid error is O(h^2), so (4*fine - coarse) / 3
    return (4.0 * fine - coarse) / 3.0


def _turns(c, m):
    """c * m in turns, reduced modulo 1, for an array ``m`` of nonnegative
    integers below 2**52: c is split as c_hi + c_lo with c_hi holding at
    most 52 - bit_length(max m) bits, so c_hi * m and its fractional part
    are exact and only the small c_lo * m is rounded."""
    bits = int(np.max(m)).bit_length()
    quantum = math.ldexp(1.0, math.frexp(c)[1] - (52 - bits))
    c_hi = round(c / quantum) * quantum
    t = c_hi * m
    return (t - np.rint(t)) + (c - c_hi) * m


def _trapezoid_ft(z, fz, grid):
    """Trapezoid sum  S_k = sum_j w_j f(z_j) exp(-2 pi i xi_k z_j)  at each
    ``xi_k``, for uniform nodes z_j = z_0 + j h and a uniform ``grid``
    xi_k = xi_0 + k d.

    The phase is xi_k z_0 + xi_0 h j + 2 c k j with c = d h / 2, and
    2 k j = k^2 + j^2 - (k - j)^2 turns the sum over j into a convolution
    with the chirp exp(+2 pi i c m^2) (Bluestein's chirp-z transform):

        S_k = exp(-2 pi i (xi_k z_0 + c k^2))
              * sum_j [w_j f_j exp(-2 pi i (xi_0 h j + c j^2))] exp(2 pi i c (k - j)^2),

    one zero-padded FFT convolution of length a power of two >= n + K - 1.
    The chirp phases reach c (n + K)^2 turns, so each is reduced modulo 1
    exactly (``_turns``) before the exponential: rounded, they would cost
    digits of the exponentially small transform tails.
    """
    from numpy import fft

    n, K = len(z), len(grid)
    h = (z[-1] - z[0]) / (n - 1)
    c = 0.5 * h * (grid[-1] - grid[0]) / (K - 1)
    j = np.arange(n)
    g = h * fz
    g[0] *= 0.5
    g[-1] *= 0.5
    u = g * np.exp(-2j * math.pi * (_turns(grid[0] * h, j) + _turns(c, j * j)))
    m = np.arange(1 - n, K)
    chirp = np.exp(2j * math.pi * _turns(c, m * m))
    size = 1 << (n + K - 2).bit_length()
    conv = fft.ifft(fft.fft(u, size) * fft.fft(chirp, size))[n - 1 : n - 1 + K]
    # xi_k z_0 is rounded once, with an error proportional to |xi_k| and so
    # smallest where the transform is largest; dropping its whole turns is exact
    post = grid * z[0]
    k = np.arange(K)
    return np.exp(-2j * math.pi * (post - np.rint(post) + _turns(c, k * k))) * conv


# ---------------------------------------------------------------------------
# decomposition and validation


def decompose(grid: np.ndarray, values: np.ndarray) -> FourierDecomposition:
    """Split a transform tabulated as complex ``values`` on a strictly
    increasing frequency ``grid`` into its four nonnegative parts.

    The split is the pointwise sign split max(+-Re, 0), max(+-Im, 0), so
    reassembling  R+ - R- + i I+ - i I-  reproduces the input exactly.
    """
    vals = np.asarray(values, dtype=complex)
    parts = {
        "re+": np.maximum(vals.real, 0.0),
        "re-": np.maximum(-vals.real, 0.0),
        "im+": np.maximum(vals.imag, 0.0),
        "im-": np.maximum(-vals.imag, 0.0),
    }
    return FourierDecomposition(
        components=tuple(_density_component(ax, grid, parts[ax]) for ax in AXES),
    )


def _component_inverse(c: FourierComponent, zs: np.ndarray) -> np.ndarray:
    """int component(xi) exp(2 pi i xi z) dxi for each z."""
    if c.is_atomic:
        out = np.zeros(len(zs), dtype=complex)
        for x, w in c.atoms:
            out += w * np.exp(2j * math.pi * x * zs)
        return out
    if c.density_fn is not None:
        # imported here: scipy.integrate dominates the package's import time
        from scipy.integrate import quad

        lo, hi = c.grid[0], c.grid[-1]
        out = np.empty(len(zs), dtype=complex)
        for i, z in enumerate(zs):
            re = quad(lambda xi: c.density_fn(xi) * math.cos(TWO_PI * xi * z),
                      lo, hi, limit=400)[0]
            im = quad(lambda xi: c.density_fn(xi) * math.sin(TWO_PI * xi * z),
                      lo, hi, limit=400)[0]
            out[i] = re + 1j * im
        return out
    kernel = np.exp(2j * math.pi * np.outer(zs, c.grid))
    return np.trapezoid(kernel * c.values, c.grid, axis=1)


def validate_decomposition(
    d: FourierDecomposition, a: Activation, zs: Sequence[float]
) -> float:
    """Max |reconstruction - f| over ``zs``; raises on imaginary residue.

    Reconstructs f(z) = sum_j c_j int p_j(xi) exp(2 pi i xi z) dxi with
    exact atom sums and quadrature for the densities.  The reconstruction
    must be real to 1e-8; the returned error compares its real part to f.
    """
    zs = np.asarray(zs, dtype=float)
    recon = np.zeros(len(zs), dtype=complex)
    for c in d.components:
        if c.is_active:
            recon += AXIS_PHASE[c.axis] * _component_inverse(c, zs)
    imag_residue = float(np.max(np.abs(recon.imag))) if len(zs) else 0.0
    if imag_residue > 1e-8:
        raise ValueError(f"imaginary residue {imag_residue:.2e} exceeds 1e-8")
    return float(np.max(np.abs(recon.real - a(zs))))


# ---------------------------------------------------------------------------
# dispatch


@lru_cache(maxsize=32)
def decomposition_for(a: Activation) -> FourierDecomposition:
    """Closed form where vetted, tabulated numeric transform otherwise;
    computed once per activation."""
    try:
        return closed_form_ft(a)
    except UnsupportedClosedForm:
        grid = np.linspace(-GRID_MAX, GRID_MAX, GRID_POINTS)
        return decompose(grid, numeric_ft(a, grid))
