import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import snnk.urf as urf_module
from snnk._seeds import MISC_STREAM, XI_STREAM, rng_for
from snnk.activations import GUIDE, Activation, _density_component, decomposition_for
from snnk.bundling import bundle_full, bundle_once, network
from snnk.urf import (
    ConfigError,
    FeatureVector,
    ProposalMismatch,
    ShapeMismatch,
    UrfConfig,
    UrfDraws,
    _sample_xi,
    kernel_estimate,
    kernel_estimate_complex,
    lambda_feature,
    phi,
    phi_entry_bound,
    phi_many,
    psi,
    psi_entry_bound,
    psi_many,
    sample_draws,
)

XI0 = 1.0 / (2.0 * math.pi)


def instantiation(flat, n, t):
    """Instantiation t of n of a flat draw set: the single set of run t of
    each component's config.m / n features."""
    run = flat.config.m // n
    rows = slice(t * run, (t + 1) * run)
    xi, G, ratio = (np.concatenate([getattr(blk, name)[rows] for blk in flat.blocks])
                    for name in ("xi", "g", "ratio"))
    return UrfDraws(dim=flat.dim, config=dataclasses.replace(flat.config, m=run),
                    axes=flat.axes, xi=xi, G=G, ratio=ratio)


def instantiation_estimates(x, w, b, flat, n):
    """The complex estimates of the n instantiations of a flat draw set; each
    tower of the flat set carries 1/sqrt(n) of an instantiation's scale."""
    px, pw = (FeatureVector(flat.instantiations(f.entries, n))
              for f in (phi(x, flat), psi(w, b, flat)))
    return kernel_estimate_complex(px, pw) * n


def zeroed_g(draws):
    return dataclasses.replace(draws, G=np.zeros_like(draws.G))


def exponent_terms(packed, Z, *entries):
    """sum_k |P_ik a_k| for the augmented rows a = [z, entries...] of a tower,
    each entry one value per row z of ``Z``."""
    Z = np.asarray(Z)
    cols = [np.abs(Z)] + [np.abs(np.broadcast_to(e, Z.shape[:-1]))[..., None] for e in entries]
    return np.concatenate(cols, axis=-1) @ np.abs(packed).T


def square(Z):
    """The bilinear square z.z of each row."""
    return np.sum(np.asarray(Z) ** 2, axis=-1)


# sample_draws cases whose output is pinned in draw_streams.json: (name, kind, config);
# the n3 cases record their 12 features per component as 3 runs of 4
PINNED_DRAWS = [
    ("sine-iid", "sine", UrfConfig(m=4, seed=11)),
    ("cosine-iid", "cosine", UrfConfig(m=4, seed=12)),
    ("tanh-iid", "tanh", UrfConfig(m=4, seed=13)),
    ("cosine-n3", "cosine", UrfConfig(m=12, seed=16)),
    ("tanh-n3", "tanh", UrfConfig(m=12, seed=17)),
]


class TestLambdaFeature:
    def test_at_origin_with_zero_shape(self):
        g = np.random.default_rng(0).standard_normal(5)
        assert lambda_feature(g, np.zeros(5), 0.0) == pytest.approx(1.0)

    def test_quarter_shape_prefactor(self):
        # (1 - 4A)^(d/4) at A = -1/4, d = 1
        assert lambda_feature(np.zeros(1), np.zeros(1), -0.25) == pytest.approx(
            1.189207115002721, abs=1e-14
        )

    def test_softmax_identity_real_arguments(self):
        rng = rng_for(11, 0, 0, MISC_STREAM)
        x = np.array([0.4, -0.2])
        y = np.array([0.1, 0.5])
        for A in (0.0, -0.1):
            g = rng.standard_normal((200_000, 2))
            prods = lambda_feature(g, x, A) * lambda_feature(g, y, A)
            se = prods.std(ddof=1) / math.sqrt(len(prods))
            assert abs(prods.mean() - math.exp(x @ y)) < 3 * se

    def test_softmax_identity_imaginary_arguments(self):
        # E[Lambda(z) Lambda(z)] = exp(z.z) with z = 0.3i in one dimension
        rng = rng_for(12, 0, 0, MISC_STREAM)
        z = np.array([0.3j])
        g = rng.standard_normal((1_000_000, 1))
        prods = lambda_feature(g, z, -0.1) ** 2
        se = prods.real.std(ddof=1) / 1000.0
        assert abs(prods.real.mean() - math.exp(-0.09)) < 3 * se


class TestPinnedDrawStreams:
    """``sample_draws`` at fixed seeds reproduces the recorded draws, so a change
    that moves a stream fails here rather than only shifting the outputs.
    Gaussians and atom frequencies must match exactly; values computed through
    a tabulated density (its frequencies, ratios and mass) to 1e-15 relative."""

    RECORDED = json.loads((Path(__file__).parent / "draw_streams.json").read_text())

    @pytest.mark.parametrize("name, kind, cfg", PINNED_DRAWS, ids=[c[0] for c in PINNED_DRAWS])
    def test_draws_match_recording(self, name, kind, cfg):
        dec = decomposition_for(Activation(kind))
        draws = sample_draws(dec, 2, cfg)
        recorded = self.RECORDED[name]
        assert [b.axis for b in draws.blocks] == [r["axis"] for r in recorded]
        for blk, rec in zip(draws.blocks, recorded):
            xi, ratio = np.ravel(rec["xi"]), np.ravel(rec["ratio"])  # runs of the n3 cases
            assert np.array_equal(blk.g, np.reshape(rec["g"], blk.g.shape))
            if dec.component(blk.axis).is_atomic:
                assert np.array_equal(blk.xi, xi)
            else:
                np.testing.assert_allclose(blk.xi, xi, rtol=1e-15, atol=0)
            np.testing.assert_allclose(blk.ratio, ratio, rtol=1e-15, atol=0)
            assert blk.c == pytest.approx(complex(*rec["c"]), rel=1e-15, abs=0)


class TestSampleDraws:
    def test_sine_atomic_draws(self):
        dec = decomposition_for(Activation("sine"))
        draws = sample_draws(dec, 3, UrfConfig(m=4, seed=1))
        assert [b.axis for b in draws.blocks] == ["im+", "im-"]
        for blk in draws.blocks:
            assert len(blk.xi) == 4
            assert set(np.abs(blk.xi)) == {XI0}
            assert np.all(blk.ratio == 1.0)
            # ratio times |c| recovers the atom weight
            assert np.all(blk.ratio * abs(blk.c) == 0.5)

    @pytest.mark.parametrize("kind, generators", [("sine", 0), ("cosine", 1), ("sigmoid", 2)])
    def test_xi_generator_only_for_components_that_draw(self, monkeypatch, kind, generators):
        # a single atom (each sine component, sigmoid's DC) draws no frequency
        streams = []

        def counting_rng_for(*key):
            streams.append(key[-1])
            return rng_for(*key)

        monkeypatch.setattr(urf_module, "rng_for", counting_rng_for)
        draws = sample_draws(decomposition_for(Activation(kind)), 3, UrfConfig(m=8, seed=5))
        assert streams.count(XI_STREAM) == generators
        assert len(streams) == generators + len(draws.axes)

    @pytest.mark.parametrize("kind, cfg", [
        ("tanh", UrfConfig(m=8, seed=3)),  # density components, grid proposal
        ("tanh", UrfConfig(m=8, A=-0.1, seed=3)),  # and the A|g|^2 term
        ("sigmoid", UrfConfig(m=8, seed=3)),  # an atomic DC and two density components
        ("cosine", UrfConfig(m=8, seed=4)),  # two atoms, categorical draw
        ("sine", UrfConfig(m=8, seed=4)),  # one atom per component
    ])
    def test_one_instantiation_is_the_single_set(self, kind, cfg):
        # one instantiation's rows are the set's entries with a leading axis
        single = sample_draws(decomposition_for(Activation(kind)), 3, cfg)
        x = np.array([0.2, -0.1, 0.4])
        for entries in (phi(x, single).entries, psi(x, 0.3, single).entries):
            assert np.array_equal(single.instantiations(entries, 1), entries[None])

    def test_blocks_view_the_single_gaussian_matrix(self):
        dec = decomposition_for(Activation("sigmoid"))
        draws = sample_draws(dec, 3, UrfConfig(m=5, seed=6))
        assert draws.G.shape == (15, 3) and draws.xi.shape == draws.ratio.shape == (15,)
        for j, blk in enumerate(draws.blocks):
            rows = slice(5 * j, 5 * (j + 1))
            for name, fused in (("g", draws.G[rows]), ("xi", draws.xi[rows]),
                                ("ratio", draws.ratio[rows])):
                view = getattr(blk, name)
                assert np.shares_memory(view, fused) and np.array_equal(view, fused)

    @pytest.mark.parametrize("kind, cfg", [
        ("sine", UrfConfig(m=4, seed=41)),
        ("cosine", UrfConfig(m=4, seed=42)),
        ("tanh", UrfConfig(m=4, seed=43)),  # grid proposal
        ("sigmoid", UrfConfig(m=4, seed=45)),  # an atomic DC and two density components
        ("sine", UrfConfig(m=4, A=-0.1, seed=46)),
    ], ids=["sine", "cosine", "tanh", "sigmoid", "sine-A-0.1"])
    def test_split_of_a_flat_set_is_the_batched_set(self, kind, cfg):
        # a flat set of n * m features per component, split into the rows of its
        # n instantiations: row t is run t of each component's flat entries
        dec, n, m = decomposition_for(Activation(kind)), 3, cfg.m
        flat = sample_draws(dec, 2, dataclasses.replace(cfg, m=n * m))
        x = np.array([0.3, -0.2])
        fx, fw = phi(x, flat).entries, psi(x, 0.4, flat).entries
        rows_x, rows_w = flat.instantiations(fx, n), flat.instantiations(fw, n)
        assert rows_x.shape == rows_w.shape == (n, len(flat.axes) * m)
        for t in range(n):
            runs = np.concatenate([np.arange(j * n * m + t * m, j * n * m + (t + 1) * m)
                                   for j in range(len(flat.axes))])
            assert np.array_equal(rows_x[t], fx[runs]) and np.array_equal(rows_w[t], fw[runs])
            # and the feature vectors of that instantiation alone, whose towers
            # carry sqrt(n) times the flat set's scale
            single = instantiation(flat, n, t)
            assert single.config == cfg
            np.testing.assert_allclose(math.sqrt(n) * rows_x[t], phi(x, single).entries,
                                       rtol=1e-14, atol=0)
            np.testing.assert_allclose(math.sqrt(n) * rows_w[t], psi(x, 0.4, single).entries,
                                       rtol=1e-14, atol=0)

    def test_split_keeps_blocks_inside_an_instantiation(self):
        # each instantiation's features of a component are one contiguous run of
        # the flat set, or a prefix of it: no row reaches across a run boundary
        flat = sample_draws(decomposition_for(Activation("tanh")), 2, UrfConfig(m=8, seed=47))
        C = len(flat.axes)
        labels = np.arange(C * 8)
        for n, m in [(2, None), (4, None), (2, 3)]:
            run = 8 // n
            rows = flat.instantiations(labels, n, m).reshape(n, C, -1)
            for t in range(n):
                for j in range(C):
                    start = j * 8 + t * run
                    assert np.array_equal(rows[t, j], np.arange(start, start + (m or run)))
        with pytest.raises(ValueError, match="^n must be >= 1 and divide m = 8, got 3$"):
            flat.instantiations(labels, 3)

    def test_instantiation_count_must_be_positive(self):
        draws = sample_draws(decomposition_for(Activation("sine")), 3, UrfConfig(m=4))
        entries = phi(np.zeros(3), draws).entries
        with pytest.raises(ValueError, match="^n must be >= 1 and divide m = 4, got 0$"):
            draws.instantiations(entries, 0)
        for m in (0, 3):
            with pytest.raises(ValueError, match=re.escape(f"m must be in [1, 2], got {m}")):
                draws.instantiations(entries, 2, m)
        assert draws.instantiations(entries, 2, 2).shape == (2, 4)

    def test_grid_proposal_ratios_near_one(self):
        # a density component is drawn over its tabulation cells
        dec = decomposition_for(Activation("tanh"))
        draws = sample_draws(dec, 2, UrfConfig(m=256, seed=5))
        for blk in draws.blocks:
            assert np.all(blk.ratio > 0.0)
            assert np.median(np.abs(blk.ratio - 1.0)) < 0.2

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid", "gelu"])
    def test_cached_grid_cells_draw_what_generator_choice_draws(self, kind):
        densities = [c for c in decomposition_for(Activation(kind)).active() if not c.is_atomic]
        assert densities
        for comp in densities:
            cells = comp.cells
            assert comp.cells is cells
            searched, chosen = rng_for(21, 0, 0, MISC_STREAM), rng_for(21, 0, 0, MISC_STREAM)
            idx = cells.cdf.searchsorted(searched.random(5000), side="right")
            ref = chosen.choice(len(cells.mass), size=5000, p=cells.mass / cells.total)
            assert np.array_equal(idx, ref)
            assert searched.random() == chosen.random()  # both consumed the same stream

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid", "gelu"])
    def test_guide_table_picks_the_searched_cell(self, kind):
        assert GUIDE > 1 and GUIDE & (GUIDE - 1) == 0  # u * GUIDE and b / GUIDE are exact
        edges = np.arange(GUIDE) / GUIDE
        densities = [c for c in decomposition_for(Activation(kind)).active() if not c.is_atomic]
        assert densities
        for comp in densities:
            cells, grid = comp.cells, comp.grid
            breaks = cells.cdf[cells.cdf < 1.0]
            keys = np.concatenate([[0.0], edges, np.nextafter(edges + 1.0 / GUIDE, 0.0), breaks,
                                   np.nextafter(breaks, 0.0), np.nextafter(breaks, 1.0)])
            keys = keys[keys < 1.0]  # Generator.random draws from [0, 1)
            assert np.array_equal(cells.search(keys), cells.cdf.searchsorted(keys, side="right"))
            # _sample_xi on a stream, against the full search on the same stream
            sampled, searched = rng_for(23, 0, 0, MISC_STREAM), rng_for(23, 0, 0, MISC_STREAM)
            xi, _ = _sample_xi(comp, 5000, lambda: sampled)
            stream = searched.random(5000)
            idx = cells.cdf.searchsorted(stream, side="right")
            assert np.array_equal(cells.search(stream), idx)
            u = searched.random(5000)
            assert np.array_equal(xi, grid[idx] + u * (grid[idx + 1] - grid[idx]))
            assert sampled.random() == searched.random()  # both consumed the same stream

    def test_empty_tabulation_is_refused(self):
        empty = _density_component("im+", [0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        assert empty.cells.guide.size == 0
        with pytest.raises(ProposalMismatch, match="empty tabulation"):
            _sample_xi(empty, 4, lambda: rng_for(0, 0, 0, MISC_STREAM))

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="^m: must be >= 1, got 0$"):
            UrfConfig(m=0)
        for A in (0.5, math.nan, -math.inf, math.inf):
            with pytest.raises(ConfigError, match="^A: must be finite and <= 0, got "):
                UrfConfig(m=4, A=A)
        with pytest.raises(TypeError):  # one sampling scheme: there is no strategy to pick
            UrfConfig(m=4, strategy="iid")

    def test_determinism(self):
        dec = decomposition_for(Activation("sigmoid"))
        cfg = UrfConfig(m=16, seed=42)
        a = sample_draws(dec, 5, cfg)
        b = sample_draws(dec, 5, cfg)
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba.xi, bb.xi)
            assert np.array_equal(ba.g, bb.g)
            assert np.array_equal(ba.ratio, bb.ratio)


class TestFeatureMaps:
    def test_phi_at_zero_input(self):
        dec = decomposition_for(Activation("sine"))
        cfg = UrfConfig(m=8, A=-0.1, seed=2)
        draws = sample_draws(dec, 4, cfg)
        fv = phi(np.zeros(4), draws)
        expected = np.concatenate([
            (1.4 ** (4 / 4.0)) / math.sqrt(8)
            * np.exp(-0.1 * np.sum(b.g * b.g, axis=1))
            for b in draws.blocks
        ])
        assert np.allclose(fv.entries, expected, rtol=1e-14)

    def test_phi_sine_hand_value(self):
        # d=1, x=1, xi=xi0, A=0, g=0: entry is exp(1/2)/sqrt(m)
        dec = decomposition_for(Activation("sine"))
        draws = zeroed_g(sample_draws(dec, 1, UrfConfig(m=1, A=0.0, seed=7)))
        fv = phi(np.array([1.0]), draws)
        assert np.allclose(fv.entries, 1.6487212707001282, rtol=1e-14)

    def test_layout_length(self):
        for kind, n_axes in (("sine", 2), ("cosine", 1), ("tanh", 2), ("sigmoid", 3)):
            dec = decomposition_for(Activation(kind))
            draws = sample_draws(dec, 3, UrfConfig(m=8, seed=1))
            fv = phi(np.zeros(3), draws)
            assert len(draws.axes) == n_axes
            assert len(fv.entries) == n_axes * 8

    @pytest.mark.parametrize("x", [np.ones(4), np.ones((5, 4)), np.ones((2, 5, 4))])
    def test_wrong_input_dim_is_refused(self, x):
        draws = sample_draws(decomposition_for(Activation("sine")), 3, UrfConfig(m=4, seed=1))
        for call in (phi, phi_many):
            with pytest.raises(ShapeMismatch, match=re.escape(f"expected input of dim 3, got {x.shape}")):
                call(x, draws)
        for call in (psi, psi_many):
            with pytest.raises(ShapeMismatch, match=re.escape(f"expected weights of dim 3, got {x.shape}")):
                call(x, 0.0, draws)

    def test_psi_at_zero_with_zero_g(self):
        dec = decomposition_for(Activation("sine"))
        draws = zeroed_g(sample_draws(dec, 2, UrfConfig(m=4, A=0.0, seed=3)))
        fv = psi(np.zeros(2), 0.0, draws)
        expected = np.concatenate([
            b.c * b.ratio / math.sqrt(4) for b in draws.blocks
        ])
        assert np.allclose(fv.entries, expected, rtol=1e-14)

    def test_psi_b_dependence_is_pure_phase(self):
        dec = decomposition_for(Activation("cosine"))
        draws = sample_draws(dec, 2, UrfConfig(m=16, seed=9))
        w = np.array([0.3, -0.1])
        base = psi(w, 0.0, draws).entries
        shifted = psi(w, 1.3, draws).entries
        assert np.allclose(np.abs(shifted), np.abs(base), rtol=1e-13)

    def test_psi_many_matches_psi_rows(self):
        dec = decomposition_for(Activation("sigmoid"))
        draws = sample_draws(dec, 3, UrfConfig(m=8, seed=4))
        W = np.array([[0.2, -0.4, 0.1], [0.0, 0.5, -0.3]])
        b = np.array([0.1, -0.7])
        # a bundle's second stage sees W1 Psi(W0, b0), a complex weight matrix
        net = network([5, 8, 3], [Activation("sine")] * 2, seed=7, init_std=0.8)
        absorbed = bundle_once(net, UrfConfig(m=8, A=-0.1, seed=8)).layers[0]
        assert np.iscomplexobj(absorbed.W)
        stage = sample_draws(
            decomposition_for(Activation("sine")), absorbed.W.shape[1],
            UrfConfig(m=8, A=-0.1, seed=9),
        )
        for W, b, draws in ((W, b, draws), (absorbed.W, absorbed.b, stage)):
            singles = np.array([psi(w, bi, draws).entries for w, bi in zip(W, b)])
            for w, bi, single in zip(W, b, singles):
                assert np.array_equal(single, psi_many(w[None], bi[None], draws)[0])
            # each row meets the packed matrix in its own product, as alone
            assert np.array_equal(psi_many(W, b, draws), singles)

    def test_phi_many_matches_phi_rows(self):
        dec = decomposition_for(Activation("sine"))
        draws = sample_draws(dec, 3, UrfConfig(m=8, seed=4))
        X = np.array([[0.2, -0.4, 0.1], [0.0, 0.5, -0.3]])
        # real and complex (5, d) stacks against the same set: five rows each
        rng = rng_for(13, 0, 0, MISC_STREAM)
        R = rng.uniform(-0.5, 0.5, (5, 3))
        C = R + 1j * rng.uniform(-0.5, 0.5, (5, 3))
        # complex stage-1 inputs of bundled_forward
        net = network([5, 8, 3], [Activation("sine")] * 2, seed=7, init_std=0.8)
        bn = bundle_full(net, UrfConfig(m=8, A=-0.1, seed=8))
        X5 = rng_for(10, 0, 0, MISC_STREAM).uniform(-0.5, 0.5, (4, 5))
        Z = phi_many(X5, bn.stages[0])
        assert np.iscomplexobj(Z)
        for X, draws in ((X, draws), (R, draws), (C, draws), (Z, bn.stages[1])):
            singles = np.array([phi(x, draws).entries for x in X])
            for x, single in zip(X, singles):
                assert np.array_equal(single, phi_many(x[None], draws)[0])
            many = phi_many(X, draws)
            assert many.shape == (len(X), draws.total_features)
            assert np.array_equal(many, singles)


def direct_lambda(z, draws, coef, quad):
    """(prefactor, exponent) of Lambda for each block's entries, re-deriving
    every constant per call."""
    A = draws.config.A
    out = []
    for blk in draws.blocks:
        out.append(A * np.sum(blk.g * blk.g, axis=1) + coef(blk) * (blk.g @ z)
                   + quad(blk) * np.sum(z * z))
    return (1.0 - 4.0 * A) ** (draws.dim / 4.0), out


def direct_phi(x, draws):
    """Phi written out per block."""
    root = math.sqrt(1.0 - 4.0 * draws.config.A)
    prefactor, exps = direct_lambda(x, draws, lambda blk: root * (2j * math.pi * blk.xi),
                                    lambda blk: 2.0 * math.pi**2 * blk.xi**2)
    return np.concatenate([prefactor / math.sqrt(draws.config.m) * np.exp(e) for e in exps])


def direct_psi(w, b, draws):
    """Psi written out per block."""
    root = math.sqrt(1.0 - 4.0 * draws.config.A)
    prefactor, exps = direct_lambda(w, draws, lambda blk: root, lambda blk: -0.5)
    return np.concatenate([
        blk.c / math.sqrt(draws.config.m) * (blk.ratio * np.exp(2j * math.pi * blk.xi * b))
        * (prefactor * np.exp(e))
        for blk, e in zip(draws.blocks, exps)
    ])


# the packed towers fold the prefactor and normaliser into the exponent and
# round c_i g_ik before the sum, so they agree with the direct formula to a
# few ulps of the exponent, not bit for bit: |d phi| <= 16 eps (1 + |E|) |phi|
# with |E| the exponent's summed term magnitudes, the constant A|g_i|^2 + log
# scale among them
PACKED_ULPS = 16 * np.finfo(float).eps


def assert_near_direct(got, direct, exponent):
    assert np.all(np.abs(got - direct) <= PACKED_ULPS * (1.0 + exponent) * np.abs(direct))


class TestCachedConstants:
    def test_real_input_matches_direct_lambda(self):
        dec = decomposition_for(Activation("tanh"))
        draws = sample_draws(dec, 6, UrfConfig(m=16, A=-0.1, seed=5))
        x = rng_for(6, 0, 0, MISC_STREAM).uniform(-0.5, 0.5, 6)
        assert "input_matrix" not in draws.__dict__
        cold = phi(x, draws).entries
        assert "input_matrix" in draws.__dict__
        warm = phi(x, draws).entries
        assert np.array_equal(cold, warm)
        assert_near_direct(cold, direct_phi(x, draws),
                           exponent_terms(draws.input_matrix, x, square(x), 1.0))

    def test_zero_shape_skips_the_gaussian_pass(self):
        dec = decomposition_for(Activation("tanh"))
        draws = sample_draws(dec, 6, UrfConfig(m=16, A=0.0, seed=5))
        x = rng_for(6, 0, 0, MISC_STREAM).uniform(-0.5, 0.5, 6)
        w = rng_for(7, 0, 0, MISC_STREAM).uniform(-0.5, 0.5, 6)
        # with no A|g|^2 term each entry's constant is the log of its scale alone
        assert np.all(draws.input_matrix[:, -1] == math.log(1.0 / math.sqrt(16)))
        masses = np.repeat([math.log(abs(c) / math.sqrt(16)) for _, c in draws.axes], 16)
        assert np.array_equal(draws.param_matrix()[:, -1], masses)
        assert_near_direct(phi(x, draws).entries, direct_phi(x, draws),
                           exponent_terms(draws.input_matrix, x, square(x), 1.0))
        assert_near_direct(psi(w, 0.3, draws).entries, direct_psi(w, 0.3, draws),
                           exponent_terms(draws.param_matrix(), w, 0.3, square(w), 1.0, 1.0))

    def test_complex_stage_input_matches_direct_lambda(self):
        net = network([5, 8, 3], [Activation("sine")] * 2, seed=7, init_std=0.8)
        bn = bundle_full(net, UrfConfig(m=8, A=-0.1, seed=8))
        x = rng_for(9, 0, 0, MISC_STREAM).uniform(-0.5, 0.5, 5)
        z = phi(x, bn.stages[0]).entries  # the stage-1 input of bundled_forward
        assert np.iscomplexobj(z)
        draws = dataclasses.replace(bn.stages[1])  # bundle_full has filled the caches
        assert "input_matrix" not in draws.__dict__
        cold = phi(z, draws).entries
        assert "input_matrix" in draws.__dict__
        warm = phi(z, draws).entries
        assert np.array_equal(cold, warm)
        assert_near_direct(cold, direct_phi(z, draws),
                           exponent_terms(draws.input_matrix, z, square(z), 1.0))


class TestBatchOfOne:
    """The single call is the batch call of that one row, bit for bit, for
    real and complex rows, with and without the A|g|^2 term; so is every row
    of a stack, whatever its leading axes."""

    NET = network([5, 8, 3], [Activation("sine")] * 2, seed=7, init_std=0.8)

    def _rows(self, A, complex_rows):
        bn = bundle_full(self.NET, UrfConfig(m=8, A=A, seed=8))
        X = rng_for(10, 0, 0, MISC_STREAM).uniform(-0.5, 0.5, (4, 5))
        if complex_rows:  # the stage-1 inputs of bundled_forward, against stage 1
            return phi_many(X, bn.stages[0]), bn.stages[1]
        return X, bn.stages[0]

    @pytest.mark.parametrize("A", [0.0, -0.1])
    @pytest.mark.parametrize("complex_rows", [False, True], ids=["real", "complex"])
    def test_phi_many(self, A, complex_rows):
        Z, draws = self._rows(A, complex_rows)
        assert np.iscomplexobj(Z) == complex_rows
        for z in Z:
            assert np.array_equal(phi(z, draws).entries, phi_many(z[None], draws)[0])
            assert np.array_equal(phi_many(z, draws), phi_many(z[None, None], draws)[0, 0])
        stacked = phi_many(Z.reshape(2, 2, -1), draws).reshape(len(Z), -1)
        assert np.array_equal(stacked, [phi(z, draws).entries for z in Z])

    @pytest.mark.parametrize("A", [0.0, -0.1])
    @pytest.mark.parametrize("complex_rows", [False, True], ids=["real", "complex"])
    def test_psi_many(self, A, complex_rows):
        W, draws = self._rows(A, complex_rows)
        b = rng_for(11, 0, 0, MISC_STREAM).uniform(-1.0, 1.0, len(W))
        for w, bi in zip(W, b):
            single = psi(w, bi, draws).entries
            assert np.array_equal(single, psi_many(w[None], bi[None], draws)[0])
            assert np.array_equal(single, psi_many(w[None, None], bi[None, None], draws)[0, 0])
        stacked = psi_many(W.reshape(2, 2, -1), b.reshape(2, 2), draws).reshape(len(W), -1)
        assert np.array_equal(stacked, [psi(w, bi, draws).entries for w, bi in zip(W, b)])


class TestComplexProjection:
    """Complex rows (bundled stage inputs, absorbed weights) are projected
    through the real G: a stack equals its rows bit for bit, and the result
    equals the product with a complex copy of g."""

    NET = network([5, 8, 3], [Activation("sine")] * 2, seed=7, init_std=0.8)

    @pytest.mark.parametrize("m", [5, 7, 16])
    def test_stage_inputs(self, m):
        bn = bundle_full(self.NET, UrfConfig(m=m, A=-0.1, seed=8))
        X = rng_for(10, 0, 0, MISC_STREAM).uniform(-0.5, 0.5, (4, 5))
        Z = phi_many(X, bn.stages[0])
        draws = bn.stages[1]
        many = phi_many(Z, draws)
        for i, z in enumerate(Z):
            assert np.array_equal(many[i], phi(z, draws).entries)
            np.testing.assert_allclose(many[i], direct_phi(z, draws),
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [5, 7, 16])
    def test_absorbed_weights(self, m):
        absorbed = bundle_once(self.NET, UrfConfig(m=m, A=-0.1, seed=8)).layers[0]
        assert np.iscomplexobj(absorbed.W)
        draws = sample_draws(decomposition_for(Activation("sine")), absorbed.W.shape[1],
                             UrfConfig(m=m, A=-0.1, seed=9))
        mat = psi_many(absorbed.W, absorbed.b, draws)
        for i, (w, b) in enumerate(zip(absorbed.W, absorbed.b)):
            assert np.array_equal(mat[i], psi(w, b, draws).entries)
            np.testing.assert_allclose(mat[i], direct_psi(w, b, draws),
                                       rtol=1e-12, atol=0)


class TestKernelEstimate:
    def test_zero_vectors(self):
        dec = decomposition_for(Activation("sine"))
        draws = sample_draws(dec, 2, UrfConfig(m=4, seed=1))
        px = phi(np.zeros(2), draws)
        pw = dataclasses.replace(px, entries=np.zeros_like(px.entries))
        assert kernel_estimate(px, pw) == 0.0

    def test_unbiasedness_probe_at_half_pi(self):
        dec = decomposition_for(Activation("sine"))
        flat = sample_draws(dec, 4, UrfConfig(m=8 * 100_000, seed=3))
        est = instantiation_estimates(np.zeros(4), np.zeros(4), math.pi / 2, flat, 100_000)
        se = est.real.std(ddof=1) / math.sqrt(len(est))
        assert abs(est.real.mean() - 1.0) < 3 * se

    def test_sine_kernel_against_exact(self):
        rng = rng_for(21, 0, 0, MISC_STREAM)
        x = rng.uniform(-0.35, 0.35, 8)
        w = rng.uniform(-0.35, 0.35, 8)
        b = 0.4
        dec = decomposition_for(Activation("sine"))
        flat = sample_draws(dec, 8, UrfConfig(m=32 * 2000, seed=17))
        est = instantiation_estimates(x, w, b, flat, 2000)
        target = math.sin(float(w @ x) + b)
        se = est.real.std(ddof=1) / math.sqrt(len(est))
        assert abs(est.real.mean() - target) < 3 * se
        # conjugate-pair symmetry: imaginary diagnostic centered at zero
        im_se = est.imag.std(ddof=1) / math.sqrt(len(est))
        assert abs(est.imag.mean()) < 3 * im_se

    @pytest.mark.parametrize("kind", ["sine", "tanh"])
    def test_batch_rows_match_single_draw_path(self, kind):
        dec = decomposition_for(Activation(kind))
        rng = rng_for(22, 0, 0, MISC_STREAM)
        x = rng.uniform(-0.4, 0.4, 5)
        w = rng.uniform(-0.4, 0.4, 5)
        n = 20
        flat = sample_draws(dec, 5, UrfConfig(m=16 * n, A=-0.1, seed=23))
        fx, fw = (FeatureVector(flat.instantiations(f.entries, n))
                  for f in (phi(x, flat), psi(w, 0.3, flat)))
        est = kernel_estimate_complex(fx, fw)
        assert est.shape == (n,)
        for i in range(n):
            px, pw = FeatureVector(fx.entries[i]), FeatureVector(fw.entries[i])
            assert est[i] == kernel_estimate_complex(px, pw)
            # the single-pair product as one matrix-vector product
            assert est[i] == (pw.entries[None, :] @ px.entries)[0]
            # instantiation i alone, whose towers carry sqrt(n) times the flat scale
            d_i = instantiation(flat, n, i)
            single = kernel_estimate_complex(phi(x, d_i), psi(w, 0.3, d_i))
            terms = np.sum(np.abs(px.entries * pw.entries))
            assert abs(n * est[i] - single) <= 1e-13 * n * terms

    def test_single_path_matches_batched_distribution(self):
        dec = decomposition_for(Activation("cosine"))
        x = np.array([0.3, 0.2])
        w = np.array([-0.1, 0.4])
        vals = []
        for trial in range(800):
            draws = sample_draws(dec, 2, UrfConfig(m=16, seed=10_000 + trial))
            vals.append(kernel_estimate(phi(x, draws), psi(w, 0.2, draws)))
        vals = np.array(vals)
        target = math.cos(float(w @ x) + 0.2)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - target) < 3 * se


class TestInvariants:
    @pytest.mark.parametrize(
        "kind", ["sine", "cosine", "tanh", "sigmoid", "gelu", "swish", "smoothed_relu"]
    )
    def test_unbiasedness(self, kind):
        a = Activation(kind)
        dec = decomposition_for(a)
        rng = rng_for(33, 0, 0, MISC_STREAM)
        x = rng.uniform(-0.3, 0.3, 6)
        w = rng.uniform(-0.3, 0.3, 6)
        b = 0.25
        flat = sample_draws(dec, 6, UrfConfig(m=32 * 10_000, A=-0.05, seed=101))
        est = instantiation_estimates(x, w, b, flat, 10_000).real
        target = float(a(np.dot(w, x) + b))
        se = est.std(ddof=1) / math.sqrt(len(est))
        assert abs(est.mean() - target) < 3 * se

    def test_variance_scales_inversely_with_m(self):
        dec = decomposition_for(Activation("sine"))
        rng = rng_for(34, 0, 0, MISC_STREAM)
        x = rng.uniform(-0.3, 0.3, 8)
        w = rng.uniform(-0.3, 0.3, 8)
        ms = np.array([8, 16, 32, 64, 128, 256, 512])
        variances = []
        for i, m in enumerate(ms):
            flat = sample_draws(dec, 8, UrfConfig(m=int(m) * 400, seed=200 + i))
            variances.append(instantiation_estimates(x, w, 0.5, flat, 400).real.var(ddof=1))
        slope = np.polyfit(np.log(ms), np.log(variances), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)

    @pytest.mark.parametrize("kind", ["sine", "cosine", "tanh"])
    def test_boundedness(self, kind):
        dec = decomposition_for(Activation(kind))
        rng = rng_for(35, 0, 0, MISC_STREAM)
        for trial in range(50):
            cfg = UrfConfig(m=16, A=-0.1, seed=40_000 + trial)
            draws = sample_draws(dec, 4, cfg)
            x = rng.uniform(-0.5, 0.5, 4)
            w = rng.uniform(-0.5, 0.5, 4)
            b = float(rng.uniform(-1, 1))
            fx = phi(x, draws)
            fw = psi(w, b, draws)
            assert np.all(np.abs(fx.entries) <= phi_entry_bound(draws, 1.0) + 1e-12)
            assert np.all(np.abs(fw.entries) <= psi_entry_bound(draws, 1.0) + 1e-12)

    @pytest.mark.parametrize("kind", ["sine", "tanh"])
    def test_bounds_of_batched_draws_match_each_instantiation(self, kind):
        dec = decomposition_for(Activation(kind))
        flat = sample_draws(dec, 4, UrfConfig(m=16 * 3, A=-0.1, seed=41))
        bphi, bpsi = (flat.instantiations(bound(flat, 1.0), 3)
                      for bound in (phi_entry_bound, psi_entry_bound))
        assert bphi.shape == bpsi.shape == (3, flat.total_features // 3)
        for i in range(3):
            # instantiation i alone scales its entries, and so their bounds, by sqrt(3)
            d_i = instantiation(flat, 3, i)
            np.testing.assert_allclose(math.sqrt(3) * bphi[i], phi_entry_bound(d_i, 1.0),
                                       rtol=1e-15, atol=0)
            np.testing.assert_allclose(math.sqrt(3) * bpsi[i], psi_entry_bound(d_i, 1.0),
                                       rtol=1e-15, atol=0)

    def test_bound_requires_negative_shape(self):
        dec = decomposition_for(Activation("sine"))
        draws = sample_draws(dec, 2, UrfConfig(m=4, A=0.0, seed=1))
        with pytest.raises(ValueError):
            psi_entry_bound(draws, 1.0)

    def test_feature_vectors_deterministic(self):
        dec = decomposition_for(Activation("sigmoid"))
        cfg = UrfConfig(m=16, seed=77)
        x = np.array([0.1, 0.2, -0.4])
        a = phi(x, sample_draws(dec, 3, cfg)).entries
        b = phi(x, sample_draws(dec, 3, cfg)).entries
        assert np.array_equal(a, b)
