import math

import numpy as np
import pytest

from snnk._seeds import MISC_STREAM, rng_for
from snnk.activations import Activation
from snnk.bundling import closed_form_regression, regression_objective
import snnk.train as train_module
from snnk.layers import ReluFeatureMap, relu_feature_map, urf_feature_map
from snnk.train import (
    Dataset,
    DivergenceDetected,
    TrainConfig,
    evaluate,
    ffl_param_count,
    fit_A,
    generate_blobs,
    grad_check,
    make_head,
    make_learnable_layer,
    split_dataset,
)
from snnk.urf import UrfConfig


def lstsq_onehot_accuracy(X, labels, k):
    """Least-squares one-hot classifier; the separability oracle."""
    design = np.concatenate([X, np.ones((len(X), 1))], axis=1)
    onehot = np.eye(k)[labels]
    W = closed_form_regression(design, onehot, ridge=1e-9)
    return float(np.mean((design @ W).argmax(axis=1) == labels))


class TestGenerateBlobs:
    def test_shapes_and_labels(self):
        data = generate_blobs(n=100, d=3, k=4, separation=5.0, seed=1)
        assert data.X.shape == (100, 3)
        assert data.Y.shape == (100,)
        assert set(np.unique(data.Y)) == {0, 1, 2, 3}

    def test_separated_blobs_are_linearly_separable(self):
        data = generate_blobs(n=200, d=2, k=2, separation=10.0, seed=2)
        assert lstsq_onehot_accuracy(data.X, data.Y, 2) >= 0.99

    def test_deterministic(self):
        a = generate_blobs(n=50, d=4, k=3, separation=4.0, seed=3)
        b = generate_blobs(n=50, d=4, k=3, separation=4.0, seed=3)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)

    def test_mean_separation_enforced(self):
        data = generate_blobs(n=3000, d=3, k=3, separation=9.0, seed=4)
        means = np.array([data.X[data.Y == c].mean(axis=0) for c in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(means[i] - means[j]) > 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_blobs(n=10, d=2, k=1, separation=1.0, seed=0)


class TestFitA:
    def test_full_batch_mse_reaches_normal_equations(self):
        rng = rng_for(40, 0, 0, MISC_STREAM)
        fmap = urf_feature_map(Activation("sine"), 5, UrfConfig(m=4, seed=41))
        data = Dataset(X=rng.uniform(-1, 1, (80, 5)), Y=rng.standard_normal((80, 2)))
        feats = fmap.features_many(data.X)
        # complex A acts through the stacked real design [Re, -Im]
        design = np.concatenate([feats.real, -feats.imag], axis=1)
        Wstar = closed_form_regression(design, data.Y, ridge=0.0)
        target = regression_objective(design, data.Y, Wstar) / data.n
        eigs = np.linalg.eigvalsh(2.0 * design.T @ design / data.n)
        kappa = eigs[-1] / eigs[0]
        beta = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
        layer = make_learnable_layer(fmap, 2, seed=42)
        cfg = TrainConfig(
            learning_rate=1.0 / eigs[-1], epochs=100, batch_size=80, loss="mse",
            seed=0, momentum=beta,
        )
        _, _, history = fit_A(layer, None, data, cfg)
        assert history[-1][2] <= target + 1e-3

    def test_zero_epochs_leaves_layer_unchanged(self):
        fmap = relu_feature_map(4, 8, seed=43)
        layer = make_learnable_layer(fmap, 2, seed=44)
        data = Dataset(X=np.zeros((4, 4)), Y=np.zeros((4, 2)))
        cfg = TrainConfig(learning_rate=0.1, epochs=0, batch_size=4, loss="mse", seed=0)
        trained, _, history = fit_A(layer, None, data, cfg)
        assert np.array_equal(trained.A, layer.A)
        assert len(history) == 1

    def test_full_batch_loss_monotone(self):
        rng = rng_for(45, 0, 0, MISC_STREAM)
        fmap = urf_feature_map(Activation("sine"), 4, UrfConfig(m=8, seed=46))
        data = Dataset(X=rng.uniform(-1, 1, (40, 4)), Y=rng.standard_normal((40, 3)))
        layer = make_learnable_layer(fmap, 3, seed=47)
        cfg = TrainConfig(learning_rate=1e-3, epochs=60, batch_size=40, loss="mse", seed=0)
        _, _, history = fit_A(layer, None, data, cfg)
        losses = [row[2] for row in history if row[1] == "train"]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_divergence_detected(self):
        rng = rng_for(48, 0, 0, MISC_STREAM)
        fmap = relu_feature_map(4, 8, seed=49)
        data = Dataset(X=rng.standard_normal((30, 4)), Y=rng.standard_normal((30, 2)))
        layer = make_learnable_layer(fmap, 2, seed=50)
        cfg = TrainConfig(learning_rate=50.0, epochs=50, batch_size=30, loss="mse", seed=0)
        with pytest.raises(DivergenceDetected):
            fit_A(layer, None, data, cfg)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_is_divergence(self):
        # a NaN loss never compares greater than 10x the initial one
        rng = rng_for(48, 0, 0, MISC_STREAM)
        fmap = relu_feature_map(4, 8, seed=49)
        data = Dataset(X=rng.standard_normal((30, 4)), Y=rng.standard_normal((30, 2)))
        layer = make_learnable_layer(fmap, 2, seed=50)
        cfg = TrainConfig(learning_rate=1e200, epochs=3, batch_size=5, loss="mse", seed=0)
        with pytest.raises(DivergenceDetected, match="non-finite"):
            fit_A(layer, None, data, cfg)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_no_step_after_first_non_finite_batch_loss(self, monkeypatch):
        rng = rng_for(48, 0, 0, MISC_STREAM)
        fmap = relu_feature_map(4, 8, seed=49)
        data = Dataset(X=rng.standard_normal((30, 4)), Y=rng.standard_normal((30, 2)))
        layer = make_learnable_layer(fmap, 2, seed=50)
        cfg = TrainConfig(learning_rate=1e200, epochs=3, batch_size=5, loss="mse", seed=0)
        losses = []
        real_grads = train_module._grads

        def counting_grads(*args, **kwargs):
            out = real_grads(*args, **kwargs)
            losses.append(out[0])
            return out

        monkeypatch.setattr(train_module, "_grads", counting_grads)
        with pytest.raises(DivergenceDetected, match=r"epoch 1, batch \d+ is non-finite"):
            fit_A(layer, None, data, cfg)
        # the epoch has 6 batches; fitting stops at the first non-finite one
        assert 1 < len(losses) < 6
        assert all(math.isfinite(v) for v in losses[:-1])
        assert not math.isfinite(losses[-1])

    def test_non_finite_A_after_last_batch_is_divergence(self, monkeypatch):
        # one batch per epoch: the step that breaks A is followed by the
        # epoch's snapshot, not by another batch loss
        rng = rng_for(48, 0, 0, MISC_STREAM)
        fmap = relu_feature_map(4, 8, seed=49)
        data = Dataset(X=rng.standard_normal((30, 4)), Y=rng.standard_normal((30, 2)))
        layer = make_learnable_layer(fmap, 2, seed=50)
        cfg = TrainConfig(learning_rate=0.1, epochs=3, batch_size=30, loss="mse", seed=0)
        real_grads = train_module._grads

        def nan_gradient(*args, **kwargs):
            loss, gA, gW, gb = real_grads(*args, **kwargs)
            return loss, np.full_like(gA, math.nan), gW, gb

        monkeypatch.setattr(train_module, "_grads", nan_gradient)
        with pytest.raises(DivergenceDetected, match="A has non-finite entries at epoch 1"):
            fit_A(layer, None, data, cfg)

    def test_non_finite_initial_loss_is_divergence(self):
        fmap = relu_feature_map(4, 8, seed=49)
        layer = make_learnable_layer(fmap, 2, seed=50)
        layer.A[0, 0] = math.nan
        data = Dataset(X=np.ones((4, 4)), Y=np.zeros((4, 2)))
        cfg = TrainConfig(learning_rate=0.1, epochs=2, batch_size=4, loss="mse", seed=0)
        with pytest.raises(DivergenceDetected, match="epoch 0"):
            fit_A(layer, None, data, cfg)

    def test_blob_classification_with_relu_layer(self):
        full = generate_blobs(n=600, d=6, k=3, separation=10.0, seed=51)
        train_set, val_set = split_dataset(full, 0.25, seed=52)
        fmap = relu_feature_map(6, 32, seed=53)
        layer = make_learnable_layer(fmap, 16, seed=54)
        head = make_head(3, 16, seed=55)
        cfg = TrainConfig(
            learning_rate=0.05, epochs=25, batch_size=32, loss="cross_entropy", seed=56
        )
        _, trained_head, history = fit_A(layer, head, train_set, cfg, validation=val_set)
        val_rows = [row for row in history if row[1] == "validation"]
        assert val_rows[-1][3] >= 0.95

    def test_seeded_determinism(self):
        full = generate_blobs(n=120, d=4, k=2, separation=6.0, seed=57)
        fmap = relu_feature_map(4, 16, seed=58)
        cfg = TrainConfig(
            learning_rate=0.05, epochs=5, batch_size=16, loss="cross_entropy", seed=59
        )

        def run():
            layer = make_learnable_layer(fmap, 8, seed=60)
            head = make_head(2, 8, seed=61)
            return fit_A(layer, head, full, cfg)[2]

        assert run() == run()


class TestGradCheck:
    def _fixtures(self, loss):
        rng = rng_for(62, 0, 0, MISC_STREAM)
        fmap = urf_feature_map(Activation("cosine"), 4, UrfConfig(m=6, seed=63))
        layer = make_learnable_layer(fmap, 3, seed=64)
        head = make_head(2, 3, seed=65)
        if loss == "mse":
            data = Dataset(X=rng.uniform(-0.6, 0.6, (9, 4)), Y=rng.standard_normal((9, 2)))
        else:
            data = Dataset(
                X=rng.uniform(-0.6, 0.6, (9, 4)),
                Y=rng.integers(0, 2, 9).astype(np.int64),
            )
        return layer, head, data

    def test_mse(self):
        layer, head, data = self._fixtures("mse")
        assert grad_check(layer, head, data, "mse") <= 1e-5

    def test_cross_entropy(self):
        layer, head, data = self._fixtures("cross_entropy")
        assert grad_check(layer, head, data, "cross_entropy") <= 1e-4

    def test_zero_feature_weights_not_singular(self):
        layer, head, data = self._fixtures("mse")
        layer.A[:] = 0.0
        assert grad_check(layer, head, data, "mse") <= 1e-5


class TestParameterAccounting:
    def test_compression_counts(self):
        fmap = relu_feature_map(512, 32, seed=66)
        layer = make_learnable_layer(fmap, 512, seed=67)
        assert layer.param_count() == 16384
        assert ffl_param_count(512, 512) == 262144
        assert ffl_param_count(512, 512) // layer.param_count() == 16

    def test_evaluate_regression_has_no_accuracy(self):
        fmap = relu_feature_map(3, 4, seed=68)
        layer = make_learnable_layer(fmap, 1, seed=69)
        data = Dataset(X=np.zeros((5, 3)), Y=np.zeros((5, 1)))
        loss, acc = evaluate(layer, None, data, "mse")
        assert math.isnan(acc)


class TestFeatureReuse:
    """fit_A computes Phi once per split and reuses it for every loss."""

    def _fixtures(self):
        full = generate_blobs(n=200, d=5, k=3, separation=8.0, seed=70)
        train_set, val_set = split_dataset(full, 0.25, seed=71)
        fmap = relu_feature_map(5, 16, seed=72)
        layer = make_learnable_layer(fmap, 8, seed=73)
        head = make_head(3, 8, seed=74)
        cfg = TrainConfig(
            learning_rate=0.05, epochs=4, batch_size=16, loss="cross_entropy", seed=75
        )
        return train_set, val_set, layer, head, cfg

    @pytest.mark.parametrize("with_validation, expected_calls", [(True, 2), (False, 1)])
    def test_features_computed_once_per_split(self, monkeypatch, with_validation,
                                              expected_calls):
        train_set, val_set, layer, head, cfg = self._fixtures()
        calls = []
        original = ReluFeatureMap.features_many

        def counting(fmap, X):
            calls.append(len(X))
            return original(fmap, X)

        monkeypatch.setattr(ReluFeatureMap, "features_many", counting)
        fit_A(layer, head, train_set, cfg, validation=val_set if with_validation else None)
        assert len(calls) == expected_calls

    def test_history_matches_fresh_evaluation(self):
        train_set, val_set, layer, head, cfg = self._fixtures()
        trained, trained_head, history = fit_A(layer, head, train_set, cfg, validation=val_set)
        last_train, last_val = history[-2:]
        assert last_train == (cfg.epochs, "train",
                              *evaluate(trained, trained_head, train_set, cfg.loss))
        assert last_val == (cfg.epochs, "validation",
                            *evaluate(trained, trained_head, val_set, cfg.loss))

    @pytest.mark.parametrize("loss", ["cross_entropy", "mse"])
    def test_evaluate_with_given_features_is_identical(self, loss):
        train_set, _, layer, head, _ = self._fixtures()
        if loss == "mse":
            train_set = Dataset(X=train_set.X, Y=np.eye(3)[train_set.Y])
        feats = layer.feature_map.features_many(train_set.X)
        given = evaluate(layer, head, train_set, loss, feats=feats)
        fresh = evaluate(layer, head, train_set, loss)
        assert np.array_equal(given, fresh, equal_nan=True)
