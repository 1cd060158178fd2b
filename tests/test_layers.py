import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from snnk._seeds import MISC_STREAM, rng_for
from snnk.activations import Activation, decomposition_for
from snnk.bundling import closed_form_regression, regression_objective
from snnk.layers import (
    FflSpec,
    ShapeMismatch,
    SnnkLayer,
    TaylorSplitKernel,
    ZeroVector,
    arc_cosine_exact,
    arc_cosine_mc_samples,
    ffl_forward,
    gated_param_count,
    gated_residual_block,
    kar_karnick_estimate,
    kar_karnick_features,
    relu_feature_map,
    relu_snnk_features,
    snnk_forward,
    snnk_forward_many,
    snnk_from_ffl,
    tanh_series_coeffs,
    urf_feature_map,
)
from snnk.train import make_learnable_layer
from snnk.urf import UrfConfig, kernel_estimate, phi, psi, sample_draws


class TestFflForward:
    def test_zero_weights_sine(self):
        spec = FflSpec(W=np.zeros((1, 3)), b=np.array([math.pi / 2]),
                       activation=Activation("sine"))
        assert ffl_forward(np.ones(3), spec) == pytest.approx([1.0])

    def test_identity_tanh_at_origin(self):
        spec = FflSpec(W=np.eye(2), b=np.zeros(2), activation=Activation("tanh"))
        assert np.array_equal(ffl_forward(np.zeros(2), spec), np.zeros(2))

    def test_random_spec_against_manual(self):
        rng = rng_for(1, 0, 0, MISC_STREAM)
        W = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        x = rng.standard_normal(3)
        spec = FflSpec(W=W, b=b, activation=Activation("sigmoid"))
        manual = 1.0 / (1.0 + np.exp(-(W @ x + b)))
        assert np.allclose(ffl_forward(x, spec), manual, rtol=1e-15)

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            FflSpec(W=np.zeros((2, 3)), b=np.zeros(3), activation=Activation("sine"))
        with pytest.raises(ShapeMismatch):
            ffl_forward(np.zeros((4, 2)), FflSpec(W=np.zeros((2, 3)), b=np.zeros(2),
                                                   activation=Activation("sine")))

    def test_stack_rows_match_single_rows(self):
        rng = rng_for(4, 0, 0, MISC_STREAM)
        spec = FflSpec(W=rng.standard_normal((256, 64)) / 8, b=rng.standard_normal(256),
                       activation=Activation("tanh"))
        X = rng.uniform(-1.0, 1.0, (20, 64))
        rows = np.array([ffl_forward(x, spec) for x in X])
        assert np.array_equal(ffl_forward(X, spec), rows)
        assert np.array_equal(ffl_forward(X.reshape(2, 10, 64), spec), rows.reshape(2, 10, 256))

    def test_complex_weights_take_real_part(self):
        rng = rng_for(5, 0, 0, MISC_STREAM)
        W = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        spec = FflSpec(W=W, b=b, activation=Activation("sine"))
        assert spec.W.dtype == complex
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.array_equal(ffl_forward(z, spec), np.sin((W @ z).real + b))

    def test_non_finite_weights_rejected(self):
        for bad in (np.nan, np.inf, complex(0.0, np.inf), complex(np.nan, 0.0)):
            W = np.zeros((2, 3), dtype=type(bad))
            W[1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                FflSpec(W=W, b=np.zeros(2), activation=Activation("sine"))


class TestSnnkLayer:
    def test_single_row_reduces_to_kernel_estimate(self):
        rng = rng_for(2, 0, 0, MISC_STREAM)
        w = rng.uniform(-0.5, 0.5, 3)
        x = rng.uniform(-0.5, 0.5, 3)
        b = 0.3
        cfg = UrfConfig(m=16, seed=5)
        spec = FflSpec(W=w[None, :], b=np.array([b]), activation=Activation("sine"))
        layer = snnk_from_ffl(spec, cfg)
        out = snnk_forward(x, layer)

        draws = sample_draws(decomposition_for(Activation("sine")), 3, cfg)
        expected = kernel_estimate(phi(x, draws), psi(w, b, draws))
        assert out[0] == expected

    def test_convergence_to_ffl(self):
        rng = rng_for(3, 0, 0, MISC_STREAM)
        spec = FflSpec(
            W=rng.uniform(-0.5, 0.5, (3, 2)),
            b=rng.uniform(-0.5, 0.5, 3),
            activation=Activation("sine"),
        )
        x = rng.uniform(-0.5, 0.5, 2)
        exact = ffl_forward(x, spec)
        outs = np.array([
            snnk_forward(x, snnk_from_ffl(spec, UrfConfig(m=64, seed=s)))
            for s in range(400)
        ])
        se = outs.std(axis=0, ddof=1) / math.sqrt(len(outs))
        assert np.all(np.abs(outs.mean(axis=0) - exact) < 3 * se)

    def test_feature_weight_matrix_shape(self):
        spec = FflSpec(W=np.zeros((5, 4)), b=np.zeros(5), activation=Activation("sine"))
        layer = snnk_from_ffl(spec, UrfConfig(m=8, seed=0))
        assert layer.A.shape == (5, 16)  # two active components

    def test_zero_feature_weights(self):
        fmap = urf_feature_map(Activation("sine"), 3, UrfConfig(m=4, seed=1))
        layer = SnnkLayer(feature_map=fmap, A=np.zeros((2, 8), dtype=complex))
        assert np.array_equal(snnk_forward(np.ones(3), layer), np.zeros(2))

    def test_non_finite_feature_weights_rejected(self):
        fmap = urf_feature_map(Activation("sine"), 3, UrfConfig(m=4, seed=1))
        one_inf = np.zeros((2, 8), dtype=complex)
        one_inf[1, 5] = math.inf
        for A in (one_inf, np.full((2, 8), math.nan)):
            with pytest.raises(ValueError, match="non-finite"):
                SnnkLayer(feature_map=fmap, A=A)

    def test_derived_rows_equal_kernel_estimates(self):
        rng = rng_for(4, 0, 0, MISC_STREAM)
        spec = FflSpec(
            W=rng.uniform(-0.5, 0.5, (3, 2)),
            b=rng.uniform(-0.5, 0.5, 3),
            activation=Activation("cosine"),
        )
        cfg = UrfConfig(m=8, seed=6)
        layer = snnk_from_ffl(spec, cfg)
        x = np.array([0.2, -0.3])
        out = snnk_forward(x, layer)
        draws = sample_draws(decomposition_for(Activation("cosine")), 2, cfg)
        for i in range(3):
            ki = kernel_estimate(phi(x, draws), psi(spec.W[i], spec.b[i], draws))
            assert out[i] == ki

    def test_serving_size_rows_equal_kernel_estimates(self):
        rng = rng_for(8, 0, 0, MISC_STREAM)
        spec = FflSpec(
            W=0.8 / 8.0 * rng.standard_normal((256, 64)),
            b=0.8 * rng.standard_normal(256),
            activation=Activation("sine"),
        )
        cfg = UrfConfig(m=256, A=0.0, seed=9)
        layer = snnk_from_ffl(spec, cfg)
        assert layer.n_features == 512
        x = rng.uniform(-1.0, 1.0, 64) / 8.0
        out = snnk_forward(x, layer)
        draws = layer.feature_map.draws
        px = phi(x, draws)
        for i in range(256):
            assert out[i] == kernel_estimate(px, psi(spec.W[i], spec.b[i], draws))

    def test_learnable_pinv_fit_matches_normal_equations(self):
        fmap = urf_feature_map(Activation("sine"), 4, UrfConfig(m=8, seed=7))
        rng = rng_for(5, 0, 0, MISC_STREAM)
        X = rng.uniform(-0.5, 0.5, (40, 4))
        Y = rng.standard_normal((40, 2))
        feats = fmap.features_many(X)
        # real design [Re, -Im] carries the complex A fit
        design = np.concatenate([feats.real, -feats.imag], axis=1)
        Wstar = closed_form_regression(design, Y, ridge=1e-10)
        M = fmap.total_features
        A = (Wstar[:M] + 1j * Wstar[M:]).T
        layer = SnnkLayer(feature_map=fmap, A=A)
        preds = snnk_forward_many(X, layer)
        resid = float(np.sum((preds - Y) ** 2))
        assert resid == pytest.approx(regression_objective(design, Y, Wstar), rel=1e-6)


class TestReluFeatures:
    def test_zero_input(self):
        G = rng_for(6, 0, 0, MISC_STREAM).standard_normal((5, 3))
        assert np.array_equal(relu_snnk_features(np.zeros(3), G), np.zeros(5))

    def test_identity_projection(self):
        out = relu_snnk_features(np.array([1.0, -2.0]), np.eye(2))
        assert np.allclose(out, [1.0 / math.sqrt(2), 0.0], rtol=1e-15)

    def test_stack_rows_match_single_rows(self):
        G = rng_for(8, 0, 0, MISC_STREAM).standard_normal((32, 5))
        V = rng_for(9, 0, 0, MISC_STREAM).standard_normal((2, 7, 5))
        out = relu_snnk_features(V, G)
        assert out.shape == (2, 7, 32)
        for i in range(2):
            for j in range(7):
                assert np.array_equal(out[i, j], relu_snnk_features(V[i, j], G))
        assert relu_feature_map(5, 32, seed=4).features(V).shape == (2, 7, 32)
        with pytest.raises(ShapeMismatch):
            relu_snnk_features(np.zeros((3, 4)), G)

    def test_kernel_expectation_matches_first_order_arc_cosine(self):
        rng = rng_for(7, 0, 0, MISC_STREAM)
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        dots = []
        for s in range(400):
            fmap = relu_feature_map(4, 64, seed=1000 + s)
            dots.append(2.0 * float(fmap.features(x) @ fmap.features(y)))
        dots = np.array(dots)
        se = dots.std(ddof=1) / math.sqrt(len(dots))
        assert abs(dots.mean() - arc_cosine_exact(1, x, y)) < 3 * se


class TestArcCosine:
    def test_first_order_closed_forms(self):
        x = np.array([0.6, 0.8, 0.0])
        assert arc_cosine_exact(1, x, x) == pytest.approx(1.0, abs=1e-12)
        y = np.array([-0.8, 0.6, 0.0])
        assert arc_cosine_exact(1, x, y) == pytest.approx(1.0 / math.pi, abs=1e-12)
        assert arc_cosine_exact(1, x, -x) == pytest.approx(0.0, abs=1e-12)

    def test_zeroth_and_second_order(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 2.0])
        assert arc_cosine_exact(0, x, x) == pytest.approx(1.0, abs=1e-12)
        assert arc_cosine_exact(0, x, y) == pytest.approx(0.5, abs=1e-12)
        assert arc_cosine_exact(2, x, x) == pytest.approx(3.0, abs=1e-12)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            arc_cosine_exact(1, np.zeros(2), np.ones(2))

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            arc_cosine_exact(3, np.ones(2), np.ones(2))

    def test_mc_matches_exact_aligned(self):
        x = np.array([0.3, -0.7, 0.2])
        samples = arc_cosine_mc_samples(1, x, x, 1_000_000, seed=8)
        se = samples.std(ddof=1) / 1000.0
        assert abs(samples.mean() - float(x @ x)) < 3 * se

    def test_mc_step_kernel_aligned(self):
        x = np.array([0.5, 0.5])
        samples = arc_cosine_mc_samples(0, x, x, 200_000, seed=9)
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - 1.0) < 3 * se

    def test_antithetic_reduces_variance(self):
        x = np.array([0.4, 0.3, -0.2])
        plain, anti = [], []
        for s in range(200):
            plain.append(arc_cosine_mc_samples(1, x, x, 2000, seed=3000 + s).mean())
            anti.append(
                arc_cosine_mc_samples(1, x, x, 2000, seed=3000 + s, antithetic=True).mean()
            )
        assert np.var(anti, ddof=1) < np.var(plain, ddof=1)


class TestGatedResidualBlock:
    def _layer(self, d, m, seed):
        return make_learnable_layer(relu_feature_map(d, m, seed), d, seed + 1)

    def test_zero_gate_is_identity(self):
        layer = self._layer(4, 8, seed=10)
        X = rng_for(11, 0, 0, MISC_STREAM).standard_normal((6, 4))
        out = gated_residual_block(X, layer, np.zeros(4))
        assert np.array_equal(out, X)

    def test_zero_feature_weights_passthrough(self):
        layer = self._layer(4, 8, seed=12)
        layer.A[:] = 0.0
        X = rng_for(13, 0, 0, MISC_STREAM).standard_normal((6, 4))
        out = gated_residual_block(X, layer, np.ones(4))
        assert np.allclose(out, X, rtol=0, atol=0)

    def test_reported_parameter_count(self):
        assert gated_param_count(64, 16) == 1040

    def test_shape_mismatch(self):
        layer = self._layer(4, 8, seed=14)
        with pytest.raises(ShapeMismatch):
            gated_residual_block(np.zeros((3, 5)), layer, np.zeros(5))


class TestTanhSeries:
    def test_low_order_values(self):
        a = tanh_series_coeffs(9)
        assert a[1] == Fraction(1)
        assert a[2] == 0
        assert a[3] == Fraction(-1, 3)
        assert a[5] == Fraction(2, 15)
        assert a[7] == Fraction(-17, 315)

    def test_sign_pattern(self):
        a = tanh_series_coeffs(21)
        for n, coeff in enumerate(a):
            if n % 2 == 0:
                assert coeff == 0
            elif n % 4 == 1:
                assert coeff > 0
            else:
                assert coeff < 0

    def test_against_mpmath_taylor(self):
        mp.mp.dps = 30
        ours = [float(c) for c in tanh_series_coeffs(15)]
        theirs = [float(c) for c in mp.taylor(mp.tanh, 0, 15)]
        assert ours == pytest.approx(theirs, rel=1e-12)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            tanh_series_coeffs(26)


class TestKarKarnick:
    def test_linear_kernel(self):
        k = TaylorSplitKernel(coeff_pos=(0.0, 1.0), coeff_neg=(0.0, 0.0))
        rng = rng_for(15, 0, 0, MISC_STREAM)
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        y = y - (x @ y - 0.5) / (x @ x) * x  # force x.y = 0.5
        ests = np.array([
            kar_karnick_estimate(k, x, y, D=64, seed=5000 + s) for s in range(400)
        ])
        se = ests.std(ddof=1) / math.sqrt(len(ests))
        assert abs(ests.mean() - 0.5) < 3 * se

    def test_tanh_partial_sum_target(self):
        k = TaylorSplitKernel.from_tanh(9)
        # frozen degree-9 partial sum of tanh at 0.3:
        # 0.3 - 0.3^3/3 + 2*0.3^5/15 - 17*0.3^7/315 + 62*0.3^9/2835
        target = 0.2913126276
        assert k.partial_sum(0.3) == pytest.approx(target, abs=1e-10)
        rng = rng_for(16, 0, 0, MISC_STREAM)
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        y = y - (x @ y - 0.3) / (x @ x) * x
        ests = np.array([
            kar_karnick_estimate(k, x, y, D=128, seed=6000 + s) for s in range(400)
        ])
        se = ests.std(ddof=1) / math.sqrt(len(ests))
        assert abs(ests.mean() - target) < 3 * se

    def test_split_equals_difference_bitwise(self):
        k = TaylorSplitKernel.from_tanh(9)
        rng = rng_for(17, 0, 0, MISC_STREAM)
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        f1x, f2x = kar_karnick_features(k, x, D=32, seed=7)
        f1y, f2y = kar_karnick_features(k, y, D=32, seed=7)
        concat_x = np.concatenate([f1x, f2x])
        concat_y = np.concatenate([f1y, -f2y])
        est = kar_karnick_estimate(k, x, y, D=32, seed=7)
        assert est == (np.dot(f1x, f1y) - np.dot(f2x, f2y)) / 32
        assert np.dot(concat_x, concat_y) / 32 == pytest.approx(est, rel=1e-12)

    def test_shared_pool_reduces_variance(self):
        # unit-norm inputs keep low degrees dominant, where the common
        # prefix products correlate the two series estimates
        k = TaylorSplitKernel.from_tanh(9)
        rng = rng_for(18, 0, 0, MISC_STREAM)
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        u = rng.standard_normal(5)
        u -= (x @ u) * x
        u /= np.linalg.norm(u)
        y = 0.5 * x + math.sqrt(0.75) * u
        shared, indep = [], []
        for s in range(3000):
            shared.append(kar_karnick_estimate(k, x, y, D=16, seed=8000 + s, shared=True))
            indep.append(kar_karnick_estimate(k, x, y, D=16, seed=8000 + s, shared=False))
        assert np.var(shared, ddof=1) <= np.var(indep, ddof=1)

    def test_sparsity_is_high(self):
        k = TaylorSplitKernel.from_tanh(9)
        x = rng_for(19, 0, 0, MISC_STREAM).standard_normal(5)
        f1, f2 = kar_karnick_features(k, x, D=512, seed=20)
        assert np.mean(np.concatenate([f1, f2]) == 0.0) >= 0.4

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            TaylorSplitKernel(coeff_pos=(0.0, -1.0), coeff_neg=(0.0, 0.0))

