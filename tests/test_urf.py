import dataclasses
import math

import numpy as np
import pytest

from snnk._seeds import MISC_STREAM, rng_for
from snnk.activations import Activation, decomposition_for
from snnk.bundling import bundle_full, network
from snnk.urf import (
    ExactProposal,
    GaussianProposal,
    GridProposal,
    LayoutMismatch,
    NotAtomic,
    ProposalMismatch,
    UrfConfig,
    atoms_concat_draws,
    atoms_concat_phi,
    atoms_concat_psi,
    kernel_estimate,
    kernel_estimate_batch,
    kernel_estimate_complex,
    lambda_feature,
    phi,
    phi_entry_bound,
    phi_many,
    psi,
    psi_entry_bound,
    psi_many,
    sample_draws,
    sample_draws_batch,
)

XI0 = 1.0 / (2.0 * math.pi)


def zeroed_g(draws):
    blocks = tuple(dataclasses.replace(b, g=np.zeros_like(b.g)) for b in draws.blocks)
    return dataclasses.replace(draws, blocks=blocks)


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
            assert blk.atom_probs == (1.0,)

    def test_block_strategy_reuses_xi(self):
        dec = decomposition_for(Activation("tanh"))
        draws = sample_draws(dec, 2, UrfConfig(m=8, strategy="block", block_size=4, seed=3))
        for blk in draws.blocks:
            assert len(np.unique(blk.xi)) == 2
            assert np.all(blk.xi[:4] == blk.xi[0])

    def test_tanh_gaussian_proposal_ratios(self):
        dec = decomposition_for(Activation("tanh"))
        cfg = UrfConfig(m=64, seed=5, proposals=(
            ("im+", GaussianProposal(1.0)), ("im-", GaussianProposal(1.0)),
        ))
        draws = sample_draws(dec, 2, cfg)
        for blk in draws.blocks:
            assert np.all(np.isfinite(blk.ratio))
            assert np.all(blk.ratio >= 0.0)

    def test_grid_proposal_ratios_near_one(self):
        dec = decomposition_for(Activation("tanh"))
        cfg = UrfConfig(m=256, seed=5, proposals=(
            ("im+", GridProposal()), ("im-", GridProposal()),
        ))
        draws = sample_draws(dec, 2, cfg)
        for blk in draws.blocks:
            assert np.all(blk.ratio > 0.0)
            assert np.median(np.abs(blk.ratio - 1.0)) < 0.2

    def test_proposal_mismatch(self):
        sine = decomposition_for(Activation("sine"))
        with pytest.raises(ProposalMismatch):
            sample_draws(sine, 2, UrfConfig(m=4, seed=0, proposals=(
                ("im+", GaussianProposal(1.0)),)))
        tanh = decomposition_for(Activation("tanh"))
        with pytest.raises(ProposalMismatch):
            sample_draws(tanh, 2, UrfConfig(m=4, seed=0, proposals=(
                ("im+", ExactProposal()),)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UrfConfig(m=0)
        with pytest.raises(ValueError):
            UrfConfig(m=4, A=0.5)
        with pytest.raises(ValueError):
            UrfConfig(m=4, strategy="block", block_size=3)

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
            assert len(fv.entries) == n_axes * 8
            assert sum(length for _, _, length in fv.layout) == n_axes * 8

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
        mat = psi_many(W, b, draws)
        for i in range(2):
            assert np.array_equal(mat[i], psi(W[i], b[i], draws).entries)

    def test_phi_many_matches_phi_rows(self):
        dec = decomposition_for(Activation("sine"))
        draws = sample_draws(dec, 3, UrfConfig(m=8, seed=4))
        X = np.array([[0.2, -0.4, 0.1], [0.0, 0.5, -0.3]])
        many = phi_many(X, draws)
        for i in range(2):
            assert np.allclose(many[i], phi(X[i], draws).entries, rtol=1e-13)


def direct_phi(x, draws):
    """Lambda written out per block, re-deriving every constant per call."""
    A = draws.config.A
    out = []
    for blk in draws.blocks:
        m, d = blk.g.shape
        g = blk.g.astype(complex) if np.iscomplexobj(x) else blk.g
        gx = g @ x
        xx = np.sum(x * x)
        prefactor = (1.0 - 4.0 * A) ** (d / 4.0)
        exponent = (
            A * np.sum(blk.g * blk.g, axis=1)
            + math.sqrt(1.0 - 4.0 * A) * (2j * math.pi * blk.xi) * gx
            + 2.0 * math.pi**2 * blk.xi**2 * xx
        )
        out.append(prefactor / math.sqrt(m) * np.exp(exponent))
    return np.concatenate(out)


class TestCachedConstants:
    def test_real_input_matches_direct_lambda(self):
        dec = decomposition_for(Activation("tanh"))
        draws = sample_draws(dec, 6, UrfConfig(m=16, A=-0.1, seed=5))
        x = rng_for(6, 0, 0, MISC_STREAM).uniform(-0.5, 0.5, 6)
        assert "terms" not in draws.__dict__
        cold = phi(x, draws).entries
        assert "terms" in draws.__dict__
        assert all("g_complex" not in blk.__dict__ for blk in draws.blocks)
        warm = phi(x, draws).entries
        assert np.array_equal(cold, direct_phi(x, draws))
        assert np.array_equal(warm, direct_phi(x, draws))

    def test_complex_stage_input_matches_direct_lambda(self):
        net = network([5, 8, 3], [Activation("sine")] * 2, seed=7, init_std=0.8)
        bn = bundle_full(net, UrfConfig(m=8, A=-0.1, seed=8))
        x = rng_for(9, 0, 0, MISC_STREAM).uniform(-0.5, 0.5, 5)
        z = phi(x, bn.stages[0].draws).entries  # the stage-1 input of bundled_forward
        assert np.iscomplexobj(z)
        built = bn.stages[1].draws  # bundle_full has already filled its caches
        draws = dataclasses.replace(
            built, blocks=tuple(dataclasses.replace(b) for b in built.blocks)
        )
        assert all("g_complex" not in blk.__dict__ for blk in draws.blocks)
        cold = phi(z, draws).entries
        assert all("g_complex" in blk.__dict__ for blk in draws.blocks)
        warm = phi(z, draws).entries
        assert np.array_equal(cold, direct_phi(z, draws))
        assert np.array_equal(warm, direct_phi(z, draws))


class TestKernelEstimate:
    def test_zero_vectors(self):
        dec = decomposition_for(Activation("sine"))
        draws = sample_draws(dec, 2, UrfConfig(m=4, seed=1))
        px = phi(np.zeros(2), draws)
        pw = dataclasses.replace(px, entries=np.zeros_like(px.entries))
        assert kernel_estimate(px, pw) == 0.0

    def test_layout_mismatch(self):
        sine = decomposition_for(Activation("sine"))
        cosine = decomposition_for(Activation("cosine"))
        cfg = UrfConfig(m=4, seed=1)
        px = phi(np.zeros(2), sample_draws(sine, 2, cfg))
        pw = phi(np.zeros(2), sample_draws(cosine, 2, cfg))
        with pytest.raises(LayoutMismatch):
            kernel_estimate(px, pw)

    def test_unbiasedness_probe_at_half_pi(self):
        dec = decomposition_for(Activation("sine"))
        bd = sample_draws_batch(dec, 4, UrfConfig(m=8, seed=3), 100_000)
        est = kernel_estimate_batch(np.zeros(4), np.zeros(4), math.pi / 2, bd)
        se = est.real.std(ddof=1) / math.sqrt(bd.n)
        assert abs(est.real.mean() - 1.0) < 3 * se

    def test_sine_kernel_against_exact(self):
        rng = rng_for(21, 0, 0, MISC_STREAM)
        x = rng.uniform(-0.35, 0.35, 8)
        w = rng.uniform(-0.35, 0.35, 8)
        b = 0.4
        dec = decomposition_for(Activation("sine"))
        bd = sample_draws_batch(dec, 8, UrfConfig(m=32, seed=17), 2000)
        est = kernel_estimate_batch(x, w, b, bd)
        target = math.sin(float(w @ x) + b)
        se = est.real.std(ddof=1) / math.sqrt(bd.n)
        assert abs(est.real.mean() - target) < 3 * se
        # conjugate-pair symmetry: imaginary diagnostic centered at zero
        im_se = est.imag.std(ddof=1) / math.sqrt(bd.n)
        assert abs(est.imag.mean()) < 3 * im_se

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


class TestAtomsConcat:
    def test_sine_block_shapes(self):
        dec = decomposition_for(Activation("sine"))
        cfg = UrfConfig(m=16, seed=5)
        fx = atoms_concat_phi(np.zeros(3), dec, cfg)
        assert len(fx.entries) == 32
        fw = atoms_concat_psi(np.zeros(3), 0.0, dec, cfg)
        assert fw.layout == fx.layout

    def test_cosine_estimate_at_origin(self):
        dec = decomposition_for(Activation("cosine"))
        vals = []
        for trial in range(500):
            cfg = UrfConfig(m=16, seed=20_000 + trial)
            fx = atoms_concat_phi(np.zeros(3), dec, cfg)
            fw = atoms_concat_psi(np.zeros(3), 0.0, dec, cfg)
            vals.append(kernel_estimate(fx, fw))
        vals = np.array(vals)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) < 3 * se

    def test_single_atom_axes_reduce_to_plain_draws(self):
        # sine components have one atom each, so per-atom concatenation
        # must reproduce the sampled path bit for bit
        dec = decomposition_for(Activation("sine"))
        cfg = UrfConfig(m=8, seed=31)
        x = np.array([0.2, -0.6])
        w = np.array([0.5, 0.1])
        plain = sample_draws(dec, 2, cfg)
        concat = atoms_concat_draws(dec, 2, cfg)
        assert np.array_equal(phi(x, plain).entries, phi(x, concat).entries)
        assert np.array_equal(psi(w, 0.3, plain).entries, psi(w, 0.3, concat).entries)

    def test_not_atomic(self):
        dec = decomposition_for(Activation("tanh"))
        with pytest.raises(NotAtomic):
            atoms_concat_draws(dec, 2, UrfConfig(m=4, seed=0))

    def test_cosine_ratios_encode_atom_probabilities(self):
        dec = decomposition_for(Activation("cosine"))
        concat = atoms_concat_draws(dec, 2, UrfConfig(m=4, seed=0))
        assert len(concat.blocks) == 2
        for blk in concat.blocks:
            assert np.all(blk.ratio == 0.5)


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
        bd = sample_draws_batch(dec, 6, UrfConfig(m=32, A=-0.05, seed=101), 10_000)
        est = kernel_estimate_batch(x, w, b, bd).real
        target = float(a(np.dot(w, x) + b))
        se = est.std(ddof=1) / math.sqrt(bd.n)
        assert abs(est.mean() - target) < 3 * se

    def test_variance_scales_inversely_with_m(self):
        dec = decomposition_for(Activation("sine"))
        rng = rng_for(34, 0, 0, MISC_STREAM)
        x = rng.uniform(-0.3, 0.3, 8)
        w = rng.uniform(-0.3, 0.3, 8)
        ms = np.array([8, 16, 32, 64, 128, 256, 512])
        variances = []
        for i, m in enumerate(ms):
            bd = sample_draws_batch(dec, 8, UrfConfig(m=int(m), seed=200 + i), 400)
            variances.append(kernel_estimate_batch(x, w, 0.5, bd).real.var(ddof=1))
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
