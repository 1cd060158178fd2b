import math
import re
from dataclasses import replace

import numpy as np
import pytest

from snnk._seeds import MISC_STREAM, derive_seed, rng_for
from snnk.activations import Activation, decomposition_for
from snnk.bundling import (
    STAGE_KEY,
    BundledNetwork,
    LayeredNetwork,
    SingularSystem,
    bundle_full,
    bundle_once,
    bundled_flop_count,
    bundled_forward,
    bundled_param_count,
    chain_features,
    closed_form_regression,
    default_ridge,
    fold_following_linear,
    network,
    network_flop_count,
    network_forward,
    network_param_count,
    regression_gradient,
    regression_objective,
)
from snnk.layers import (
    ShapeMismatch,
    FflSpec,
    SnnkLayer,
    ffl_forward,
    relu_feature_map,
    snnk_forward,
    snnk_forward_many,
    snnk_from_ffl,
)
from snnk.urf import UrfConfig, UrfDraws, sample_draws


def two_layer_sine(seed=11, scale=0.8):
    return network(
        [3, 4, 2], [Activation("sine"), Activation("sine")], seed=seed, init_std=scale
    )


class TestBundleOnce:
    def test_reduces_layer_count(self):
        net = two_layer_sine()
        once = bundle_once(net, UrfConfig(m=32, A=0.0, seed=1))
        assert isinstance(once, LayeredNetwork)
        assert once.n_layers == 1
        assert len(once.phi_prefix) == 1
        # absorbed weight is d2 x M
        assert once.layers[0].W.shape == (2, once.phi_prefix[0].total_features)

    def test_partial_forward_approximates_exact(self):
        net = two_layer_sine()
        x = np.array([0.3, -0.2, 0.5])
        exact = network_forward(x, net)
        outs = np.array([
            network_forward(x, bundle_once(net, UrfConfig(m=128, A=0.0, seed=s)))
            for s in range(300)
        ])
        se = outs.std(axis=0, ddof=1) / math.sqrt(len(outs))
        assert np.all(np.abs(outs.mean(axis=0) - exact) < 3 * se)

    def test_second_application_yields_bundle(self):
        net = two_layer_sine()
        cfg = UrfConfig(m=16, A=0.0, seed=2)
        bundled = bundle_once(bundle_once(net, cfg), cfg)
        assert isinstance(bundled, BundledNetwork)


class TestBundleFull:
    def test_matches_iterated_single_steps(self):
        net = two_layer_sine()
        cfg = UrfConfig(m=64, A=0.0, seed=3)
        via_full = bundle_full(net, cfg)
        via_steps = bundle_once(bundle_once(net, cfg), cfg)
        assert np.max(np.abs(via_full.W_bar - via_steps.W_bar)) <= 1e-12

    def test_single_layer_reduces_to_derived_layer(self):
        rng = rng_for(30, 0, 0, MISC_STREAM)
        W = rng.uniform(-0.5, 0.5, (3, 4))
        b = rng.uniform(-0.5, 0.5, 3)
        net = network([4, 3], [Activation("sine")], weights=[W], biases=[b])
        cfg = UrfConfig(m=16, seed=8)
        bn = bundle_full(net, cfg)
        # the one stage draws under the config reseeded for stage 0
        staged = replace(cfg, seed=derive_seed(cfg.seed, STAGE_KEY, 0))
        layer = snnk_from_ffl(FflSpec(W=W, b=b, activation=Activation("sine")), staged)
        assert np.array_equal(bn.W_bar, layer.A)

    def test_stages_are_the_draw_sets_of_each_stage_seed(self):
        acts = [Activation("sine"), Activation("tanh"), Activation("cosine")]
        net = network([3, 4, 5, 2], acts, seed=3, init_std=0.5)
        cfg = UrfConfig(m=6, A=-0.1, seed=12)
        bn = bundle_full(net, cfg)
        width = net.input_dim
        for k, (stage, act) in enumerate(zip(bn.stages, acts, strict=True)):
            staged = replace(cfg, seed=derive_seed(cfg.seed, STAGE_KEY, k))
            want = sample_draws(decomposition_for(act), width, staged)
            for name in ("xi", "G", "ratio"):
                assert np.array_equal(getattr(stage, name), getattr(want, name)), (k, name)
            width = stage.total_features

    def test_determinism(self):
        net = two_layer_sine()
        cfg = UrfConfig(m=32, A=0.0, seed=4)
        assert np.array_equal(bundle_full(net, cfg).W_bar, bundle_full(net, cfg).W_bar)

    def test_mean_output_unbiased(self):
        net = two_layer_sine()
        x = np.array([0.3, -0.2, 0.5])
        exact = network_forward(x, net)
        outs = np.array([
            bundled_forward(x, bundle_full(net, UrfConfig(m=256, A=0.0, seed=s)))
            for s in range(500)
        ])
        se = outs.std(axis=0, ddof=1) / math.sqrt(len(outs))
        assert np.all(np.abs(outs.mean(axis=0) - exact) < 3 * se)

    def test_error_nonincreasing_in_m(self):
        net = two_layer_sine()
        probes = rng_for(31, 0, 0, MISC_STREAM).uniform(-0.7, 0.7, (12, 3))
        maes = []
        for m in (64, 256, 1024):
            per_seed = []
            for s in range(12):
                bn = bundle_full(net, UrfConfig(m=m, A=0.0, seed=100 + s))
                errs = [
                    np.abs(bundled_forward(p, bn) - network_forward(p, net)).mean()
                    for p in probes
                ]
                per_seed.append(np.mean(errs))
            maes.append((np.mean(per_seed), np.std(per_seed, ddof=1) / math.sqrt(12)))
        for (hi, hi_se), (lo, lo_se) in zip(maes, maes[1:]):
            assert lo <= hi + math.hypot(hi_se, lo_se)


def layer_serve_net(kind, seed):
    """The 64-256-256-10 net (init std 0.8) of the layer-serve benchmark."""
    return network([64, 256, 256, 10], [Activation(kind)] * 3, seed=seed, init_std=0.8)


# a row of a batch against the same row alone: each matrix product sums the
# same terms in a different order, so its gap is bounded relative to the
# summed term magnitudes; ``row_gap_terms`` carries them through a chain
ROW_TOL = 1e-13


def row_gap_terms(X, steps):
    """Per output entry, the summed term magnitudes S that bound the gap
    between a row of a batch of ``X`` and that row alone by ROW_TOL * S,
    through ``steps``: stage draw sets, sine layers and a final W_bar.

    A product's rounding is bounded by its terms |W| |z|, and an input gap
    ROW_TOL * S_in adds |W| S_in.  Sine is 1-Lipschitz.  A stage's exponent,
    its packed matrix P against [i z, z.z, 1], has the same two parts, and
    exp turns an exponent gap into a gap relative to the entry's magnitude.
    """
    Z = np.asarray(X)
    S = np.zeros(Z.shape)
    for step in steps:
        reach = np.abs(Z) + S
        if isinstance(step, UrfDraws):
            P, d = np.abs(step.input_matrix), step.dim
            expo = (reach @ P[:, :d].T
                    + P[:, d] * np.sum(np.abs(Z) * (reach + S), axis=-1, keepdims=True)
                    + P[:, d + 1])
            Z = chain_features(Z, (step,))
            S = np.abs(Z) * expo
        elif isinstance(step, FflSpec):
            assert step.activation.kind == "sine"
            S = reach @ np.abs(step.W).T + np.abs(step.b)
            Z = ffl_forward(Z, step)
        else:  # W_bar
            S = reach @ np.abs(step).T
            Z = (Z @ step.T).real
    return S


class TestBatchFirstForwards:
    """A single probe is the batch of one row, bit for bit; a row of a larger
    stack agrees with it to ROW_TOL of its propagated term magnitudes."""

    def _probes(self, seed):
        return rng_for(seed, 1, 0, MISC_STREAM).uniform(-1.0, 1.0, (20, 64)) / 8.0

    def _check(self, fn, P, steps):
        rows = np.array([fn(p) for p in P])
        for p, row in zip(P, rows):
            assert np.array_equal(row, fn(p[None])[0])
        bound = ROW_TOL * row_gap_terms(P, steps)
        assert np.all(np.abs(fn(P) - rows) <= bound)
        stacked = fn(P.reshape(2, 10, -1)).reshape(rows.shape)
        assert np.all(np.abs(stacked - rows) <= bound)

    @pytest.mark.parametrize("seed", [1, 5])
    def test_rows_match_single_probes(self, seed):
        net = layer_serve_net("sine", seed)
        cfg = UrfConfig(m=128, A=0.0, seed=seed)
        P = self._probes(seed)
        once = bundle_once(net, cfg)  # complex prefix, absorbed complex weights
        assert once.layers[0].W.dtype == complex
        bn = bundle_full(net, cfg)
        self._check(lambda X: network_forward(X, net), P, net.layers)
        self._check(lambda X: network_forward(X, once), P, once.phi_prefix + once.layers)
        self._check(lambda X: chain_features(X, bn.stages), P, bn.stages)
        self._check(lambda X: bundled_forward(X, bn), P, bn.stages + (bn.W_bar,))

    def test_non_finite_w_bar_raises(self):
        net = layer_serve_net("tanh", 1)
        with pytest.raises(ValueError, match=r"bundling stage 2: \d+ of 2560 entries of W_bar"):
            bundle_full(net, UrfConfig(m=128, A=0.0, seed=1))


class TestNetworkWeights:
    def _net(self, weights, biases):
        return network([2, 2, 1], [Activation("sine")] * 2, weights=weights, biases=biases)

    def test_given_weights_are_used(self):
        W = [np.eye(2), np.ones((1, 2))]
        b = [np.zeros(2), np.zeros(1)]
        net = self._net(W, b)
        assert all(np.array_equal(l.W, w) for l, w in zip(net.layers, W))
        assert isinstance(net.layers[0], FflSpec)

    @pytest.mark.parametrize("weights, biases, key", [
        ([np.eye(2), np.ones((1, 2))], None, "biases"),
        (None, [np.zeros(2), np.zeros(1)], "weights"),
        ([np.eye(2)], [np.zeros(2), np.zeros(1)], "weights"),
        ([np.eye(2), np.ones((1, 2))], [np.zeros(2)] * 3, "biases"),
        ([np.ones((1, 2)), np.ones((1, 2))], [np.zeros(2), np.zeros(1)], "weights[0]"),
        ([np.eye(2), np.ones((1, 3))], [np.zeros(2), np.zeros(1)], "weights[1]"),
        ([np.eye(2), np.ones((1, 2))], [np.zeros(3), np.zeros(1)], "biases[0]"),
        ([np.eye(2), np.ones((1, 2))], [np.zeros(2), np.zeros((1, 1))], "biases[1]"),
    ])
    def test_mismatched_weights_name_the_key(self, weights, biases, key):
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(key)}: "):
            self._net(weights, biases)

    @pytest.mark.parametrize("dims, message", [
        ([0, 2], "dims[0]: must be >= 1, got 0"),
        ([3, 0, 2], "dims[1]: must be >= 1, got 0"),
    ])
    def test_empty_dimension_is_refused(self, dims, message):
        with pytest.raises(ShapeMismatch) as err:
            network(dims, [Activation("sine")] * (len(dims) - 1))
        assert str(err.value) == message


class TestBundledForward:
    def test_zero_matrix(self):
        net = two_layer_sine()
        bn = bundle_full(net, UrfConfig(m=8, A=0.0, seed=5))
        zeroed = BundledNetwork(
            input_dim=bn.input_dim, stages=bn.stages, W_bar=np.zeros_like(bn.W_bar)
        )
        assert np.array_equal(bundled_forward(np.ones(3), zeroed), np.zeros(2))

    def test_flop_count_decreases_for_small_m(self):
        net = network(
            [128, 128, 128], [Activation("sine"), Activation("sine")], seed=6
        )
        bn = bundle_full(net, UrfConfig(m=8, A=0.0, seed=6))
        assert bundled_flop_count(bn) < network_flop_count(net)
        assert network_param_count(net) > bundled_param_count(bn)


class TestFoldFollowingLinear:
    def _layer(self, seed=7):
        rng = rng_for(seed, 0, 0, MISC_STREAM)
        spec = FflSpec(
            W=rng.uniform(-0.5, 0.5, (4, 3)),
            b=rng.uniform(-0.5, 0.5, 4),
            activation=Activation("sine"),
        )
        return snnk_from_ffl(spec, UrfConfig(m=4, seed=seed))

    def test_identity_gives_transposed_feature_weights(self):
        layer = self._layer()
        folded = fold_following_linear(layer, np.eye(4))
        assert folded.feature_map is layer.feature_map
        assert np.array_equal(folded.A, layer.A)

    def test_two_paths_agree(self):
        layer = self._layer(seed=8)
        rng = rng_for(9, 0, 0, MISC_STREAM)
        W2 = rng.standard_normal((16, 4))
        b2 = rng.standard_normal(16)
        folded = fold_following_linear(layer, W2)
        for _ in range(100):
            x = rng.uniform(-1, 1, 3)
            direct = W2 @ snnk_forward(x, layer) + b2
            assert np.max(np.abs(snnk_forward(x, folded) + b2 - direct)) <= 1e-12

    @pytest.mark.parametrize("kind", ["urf", "relu"])
    def test_batch_fold_matches_batch_forward(self, kind):
        # a urf layer has a complex A, a relu layer a real one
        rng = rng_for(12, 0, 0, MISC_STREAM)
        if kind == "urf":
            layer = self._layer(seed=12)
        else:
            layer = SnnkLayer(feature_map=relu_feature_map(3, 8, seed=12),
                              A=rng.standard_normal((4, 8)))
        W2 = rng.standard_normal((16, 4))
        b2 = rng.standard_normal(16)
        X = rng.uniform(-1, 1, (50, 3))
        folded = snnk_forward_many(X, fold_following_linear(layer, W2)) + b2
        direct = snnk_forward_many(X, layer) @ W2.T + b2
        assert np.max(np.abs(folded - direct)) <= 1e-12

    def test_parameter_count(self):
        layer = self._layer(seed=10)
        b2 = np.zeros(16)
        folded = fold_following_linear(layer, np.ones((16, 4)))
        assert folded.param_count() + b2.size == layer.A.shape[1] * 16 + 16

    def test_shape_mismatch(self):
        layer = self._layer(seed=11)
        with pytest.raises(ShapeMismatch, match="^W2 "):
            fold_following_linear(layer, np.ones((16, 5)))


def pooler_classifier_exact(Wp, bp, Wc, bc, x):
    """The tanh pooler followed by the linear classifier, evaluated exactly."""
    return Wc @ np.tanh(Wp @ x + bp) + bc


def merged_pooler_classifier(Wp, bp, Wc, cfg):
    """The pooler's snnk layer with the classifier's matrix folded in: one
    (classes, M) A; the classifier's bias is added to its outputs."""
    return fold_following_linear(snnk_from_ffl(FflSpec(Wp, bp, Activation("tanh")), cfg), Wc)


class TestPoolerClassifierBundle:
    def test_single_class_reduces_to_kernel_estimate(self):
        from snnk.urf import kernel_estimate, phi, psi, sample_draws
        from snnk.activations import decomposition_for

        rng = rng_for(14, 0, 0, MISC_STREAM)
        d = 3
        Wp = rng.uniform(-0.5, 0.5, (d, d))
        bp = rng.uniform(-0.5, 0.5, d)
        Wc = np.array([[1.0, 0.0, 0.0]])
        bc = np.array([0.25])
        cfg = UrfConfig(m=8, seed=15)
        head = merged_pooler_classifier(Wp, bp, Wc, cfg)
        x = rng.uniform(-0.5, 0.5, d)
        draws = sample_draws(decomposition_for(Activation("tanh")), d, cfg)
        expected = kernel_estimate(phi(x, draws), psi(Wp[0], bp[0], draws)) + 0.25
        assert (snnk_forward(x, head) + bc)[0] == pytest.approx(expected, rel=1e-12)

    def test_merged_path_tracks_exact(self):
        rng = rng_for(16, 0, 0, MISC_STREAM)
        d, c = 6, 3
        Wp = rng.uniform(-0.4, 0.4, (d, d))
        bp = rng.uniform(-0.4, 0.4, d)
        Wc = rng.uniform(-0.7, 0.7, (c, d))
        bc = rng.uniform(-0.3, 0.3, c)
        x = rng.uniform(-0.5, 0.5, d)
        exact = pooler_classifier_exact(Wp, bp, Wc, bc, x)
        outs = np.array([
            snnk_forward(x, merged_pooler_classifier(Wp, bp, Wc, UrfConfig(m=64, seed=s))) + bc
            for s in range(300)
        ])
        se = outs.std(axis=0, ddof=1) / math.sqrt(len(outs))
        assert np.all(np.abs(outs.mean(axis=0) - exact) < 3 * se)


class TestClosedFormRegression:
    def test_identity_design(self):
        W = closed_form_regression(np.eye(2), np.array([[1.0], [2.0]]), ridge=0.0)
        assert np.allclose(W, [[1.0], [2.0]], rtol=1e-12)

    def test_residual_orthogonal_to_columns(self):
        rng = rng_for(17, 0, 0, MISC_STREAM)
        X = rng.standard_normal((50, 8))
        Y = rng.standard_normal((50, 2))
        W = closed_form_regression(X, Y, ridge=0.0)
        assert np.max(np.abs(X.T @ (X @ W - Y))) < 1e-8

    def test_strong_ridge_shrinks_to_zero(self):
        rng = rng_for(18, 0, 0, MISC_STREAM)
        X = rng.standard_normal((20, 4))
        Y = rng.standard_normal((20, 1))
        W = closed_form_regression(X, Y, ridge=1e12)
        assert np.max(np.abs(W)) < 1e-9

    def test_singular_system_raises(self):
        X = np.ones((5, 3))  # rank one
        with pytest.raises(SingularSystem):
            closed_form_regression(X, np.ones(5), ridge=0.0)

    def test_gradient_norm_small(self):
        rng = rng_for(19, 0, 0, MISC_STREAM)
        X = rng.standard_normal((40, 6))
        Y = rng.standard_normal((40, 3))
        ridge = default_ridge(X)
        W = closed_form_regression(X, Y, ridge=ridge)
        gnorm = np.linalg.norm(regression_gradient(X, Y, W, ridge))
        assert gnorm <= 1e-8 * (1.0 + np.linalg.norm(Y))

    def test_perturbations_never_improve(self):
        rng = rng_for(20, 0, 0, MISC_STREAM)
        X = rng.standard_normal((30, 5)) + 1j * rng.standard_normal((30, 5))
        Y = rng.standard_normal((30, 2))
        ridge = 1e-6
        W = closed_form_regression(X, Y, ridge=ridge)
        base = regression_objective(X, Y, W, ridge)
        for k in range(20):
            prng = rng_for(21, k, 0, MISC_STREAM)
            direction = prng.standard_normal(W.shape) + 1j * prng.standard_normal(W.shape)
            direction /= np.linalg.norm(direction)
            assert regression_objective(X, Y, W + 1e-3 * direction, ridge) >= base

