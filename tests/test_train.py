import math
import re
import tracemalloc

import numpy as np
import pytest

from snnk._seeds import MISC_STREAM, rng_for
from snnk.activations import Activation
from snnk.bundling import closed_form_regression, regression_objective
import snnk.train as train_module
from snnk.layers import (
    FflSpec,
    ReluFeatureMap,
    ShapeMismatch,
    SnnkLayer,
    ffl_forward,
    relu_feature_map,
    snnk_from_ffl,
    urf_feature_map,
)
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
    real_design,
    split_dataset,
)
from snnk.urf import ConfigError, UrfConfig


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

    @pytest.mark.parametrize("n, d, key", [(6, 0, "d"), (0, 2, "n"), (-1, 2, "n")])
    def test_empty_shape_is_refused_before_drawing(self, monkeypatch, n, d, key):
        def no_draw(*args):
            raise AssertionError("drew before the shape was checked")

        monkeypatch.setattr(train_module, "rng_for", no_draw)
        with pytest.raises(ConfigError) as err:
            generate_blobs(n=n, d=d, k=3, separation=1.0, seed=0)
        assert err.value.key == key
        assert err.value.problem == f"must be >= 1, got {n if key == 'n' else d}"


class TestTrainConfig:
    @pytest.mark.parametrize("key, value, problem", [
        ("learning_rate", math.inf, "must be finite and > 0, got inf"),
        ("learning_rate", math.nan, "must be finite and > 0, got nan"),
        ("learning_rate", 0.0, "must be finite and > 0, got 0.0"),
    ])
    def test_bad_step_setting_is_refused(self, key, value, problem):
        settings = dict(learning_rate=0.1, epochs=1, batch_size=4)
        with pytest.raises(ConfigError) as err:
            TrainConfig(**{**settings, key: value})
        assert (err.value.key, err.value.problem) == (key, problem)

    @pytest.mark.parametrize("key, value", [
        ("momentum", -0.5),
        ("momentum", 1.0),
        ("momentum", math.inf),
        ("momentum", math.nan),
        ("l2", 0.9),
    ])
    def test_removed_option_is_a_type_error(self, key, value):
        # fit_A is plain SGD on the mean loss: no heavy-ball step, no penalty,
        # so the option is refused whatever its value
        with pytest.raises(TypeError, match=key):
            TrainConfig(learning_rate=0.1, epochs=1, batch_size=4, **{key: value})


class TestFitA:
    def test_full_batch_mse_reaches_normal_equations(self):
        rng = rng_for(40, 0, 0, MISC_STREAM)
        fmap = urf_feature_map(Activation("sine"), 5, UrfConfig(m=4, seed=41))
        data = Dataset(X=rng.uniform(-1, 1, (80, 5)), Y=rng.standard_normal((80, 2)))
        # complex A acts through the stacked real design [Re Phi | Im Phi]
        design = real_design(fmap.features_many(data.X))
        Wstar = closed_form_regression(design, data.Y, ridge=0.0)
        target = regression_objective(design, data.Y, Wstar) / data.n
        eigs = np.linalg.eigvalsh(2.0 * design.T @ design / data.n)
        layer = make_learnable_layer(fmap, 2, seed=42)
        cfg = TrainConfig(learning_rate=1.0 / eigs[-1], epochs=100, batch_size=80, loss="mse",
                          seed=0)
        _, _, history = fit_A(layer, None, data, cfg)
        assert history[-1][2] <= target + 1e-3

    def test_fine_tunes_a_layer_derived_from_weights(self):
        # a layer from snnk_from_ffl starts at its Psi rows and trains like a free one
        rng = rng_for(94, 0, 0, MISC_STREAM)
        spec = FflSpec(W=rng.uniform(-0.5, 0.5, (2, 4)), b=rng.uniform(-0.5, 0.5, 2),
                       activation=Activation("sine"))
        layer = snnk_from_ffl(spec, UrfConfig(m=4, A=0.0, seed=95))
        X = rng.uniform(-1, 1, (40, 4))
        data = Dataset(X=X, Y=ffl_forward(X, spec))
        design = real_design(layer.feature_map.features_many(X))
        lr = 1.0 / np.linalg.eigvalsh(2.0 * design.T @ design / data.n)[-1]
        cfg = TrainConfig(learning_rate=lr, epochs=20, batch_size=40, loss="mse", seed=0)
        trained, head, history = fit_A(layer, None, data, cfg)
        assert head is None and trained.feature_map is layer.feature_map
        losses = [row[2] for row in history]
        assert losses[0] == evaluate(layer, None, data, "mse")[0]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 0.5 * losses[0]

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_loss_is_divergence(self):
        # a NaN loss never compares greater than 10x the initial one
        rng = rng_for(48, 0, 0, MISC_STREAM)
        fmap = relu_feature_map(4, 8, seed=49)
        data = Dataset(X=rng.standard_normal((30, 4)), Y=rng.standard_normal((30, 2)))
        layer = make_learnable_layer(fmap, 2, seed=50)
        cfg = TrainConfig(learning_rate=1e200, epochs=3, batch_size=5, loss="mse", seed=0)
        with pytest.raises(DivergenceDetected, match="non-finite"):
            fit_A(layer, None, data, cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_step_after_first_non_finite_cross_entropy_batch(self, monkeypatch):
        # the step forms no cross-entropy loss while the softmax is finite;
        # it must still stop at the batch whose loss the oracle finds non-finite
        full = generate_blobs(n=250, d=5, k=3, separation=6.0, seed=96)
        train_set, val_set = split_dataset(full, 0.2, seed=97)
        layer = make_learnable_layer(relu_feature_map(5, 24, seed=98), 8, seed=99)
        head = make_head(3, 8, seed=100)
        cfg = TrainConfig(learning_rate=1e200, epochs=3, batch_size=16, loss="cross_entropy",
                          seed=101)
        expected = []
        with np.errstate(over="ignore", invalid="ignore"):  # the oracle's own overflow
            A, *_ = per_array_fit(layer, head, train_set, cfg, val_set, batch_losses=expected)
        first = len(expected) - 1
        assert 0 < first < 13 and not math.isfinite(expected[first])  # within epoch 1
        calls = []
        real_grads = train_module._grads

        def counting_grads(*args, **kwargs):
            calls.append(args[1].copy())  # the stacked A this batch reads
            return real_grads(*args, **kwargs)

        monkeypatch.setattr(train_module, "_grads", counting_grads)
        with pytest.raises(DivergenceDetected,
                           match=rf"^loss nan at epoch 1, batch {first} is non-finite$"):
            fit_A(layer, head, train_set, cfg, validation=val_set)
        assert len(calls) == first + 1
        # the steps before that batch match the oracle's per-array updates
        assert np.array_equal(calls[-1], A, equal_nan=True)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_label_outside_the_classes_is_refused(self, bad):
        rng = rng_for(48, 0, 0, MISC_STREAM)
        labels = np.arange(30) % 3
        labels[7] = bad
        data = Dataset(X=rng.standard_normal((30, 4)), Y=labels)
        layer = make_learnable_layer(relu_feature_map(4, 8, seed=49), 6, seed=50)
        cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=10, loss="cross_entropy")
        with pytest.raises(ValueError,
                           match=rf"cross-entropy label {bad} is outside the 3 classes \[0, 3\)"):
            fit_A(layer, make_head(3, 6, seed=51), data, cfg)

    @pytest.mark.parametrize("labels", [
        np.arange(30) % 3 * 1.0,
        np.eye(3)[np.arange(30) % 3],
        np.arange(30) % 3 == 1,
    ], ids=["float", "one-hot", "bool"])
    def test_labels_that_are_not_integers_are_refused(self, labels):
        rng = rng_for(48, 0, 0, MISC_STREAM)
        data = Dataset(X=rng.standard_normal((30, 4)), Y=labels)
        layer = make_learnable_layer(relu_feature_map(4, 8, seed=49), 6, seed=50)
        cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=10, loss="cross_entropy")
        message = f"cross-entropy expects 1-d integer labels, got {labels.dtype} {labels.shape}"
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            fit_A(layer, make_head(3, 6, seed=51), data, cfg)

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

    @pytest.mark.parametrize("kind", ["urf", "relu"])
    def test_wrong_input_width_is_refused(self, kind):
        fmap = (urf_feature_map(Activation("sine"), 3, UrfConfig(m=4, seed=90)) if kind == "urf"
                else relu_feature_map(3, 8, seed=91))
        layer = make_learnable_layer(fmap, 2, seed=92)
        data = Dataset(X=np.zeros((5, 4)), Y=np.zeros((5, 2)))
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=5)
        with pytest.raises(ShapeMismatch, match=r"expected input of dim 3, got \(5, 4\)"):
            fit_A(layer, None, data, cfg)

    def test_mse_on_class_labels_is_refused(self):
        # the (n, 1) label column would broadcast against the (n, k) head outputs
        data = generate_blobs(n=40, d=3, k=3, separation=4.0, seed=51)
        layer = make_learnable_layer(relu_feature_map(3, 8, seed=53), 4, seed=54)
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=8, loss="mse", seed=0)
        with pytest.raises(ValueError, match="mse training expects real targets"):
            fit_A(layer, make_head(3, 4, seed=55), data, cfg)

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

    def test_relu_layer(self):
        rng = rng_for(62, 1, 0, MISC_STREAM)
        layer = make_learnable_layer(relu_feature_map(4, 6, seed=63), 3, seed=64)
        head = make_head(2, 3, seed=65)
        data = Dataset(X=rng.standard_normal((9, 4)), Y=rng.standard_normal((9, 2)))
        assert grad_check(layer, head, data, "mse") <= 1e-5
        assert grad_check(layer, None, Dataset(X=data.X, Y=data.Y[:, :1] @ np.ones((1, 3))),
                          "mse") <= 1e-5


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


class TestPanelOutputs:
    """evaluate forms a split taller than one panel panel by panel."""

    @pytest.mark.parametrize("case", ["urf-ce-head", "relu-mse-headless"])
    def test_matches_one_product(self, case):
        n = 1000  # three full panels and a partial one
        assert n > 2 * train_module.PANEL_ROWS and n % train_module.PANEL_ROWS
        data = generate_blobs(n=n, d=6, k=4, separation=4.0, seed=110)
        if case == "urf-ce-head":
            data = Dataset(X=data.X / np.max(np.linalg.norm(data.X, axis=1)), Y=data.Y)
            fmap = urf_feature_map(Activation("sine"), 6, UrfConfig(m=32, seed=111))
            layer, head = make_learnable_layer(fmap, 8, seed=112), make_head(4, 8, seed=113)
            loss = "cross_entropy"
        else:
            data = Dataset(X=data.X, Y=np.eye(4)[data.Y] + 0.1 * np.arange(4))
            layer, head = make_learnable_layer(relu_feature_map(6, 96, seed=111), 4, seed=112), None
            loss = "mse"
        # a few epochs, so that the outputs are not one class for every row
        layer, head, _ = fit_A(layer, head, data, TrainConfig(learning_rate=0.05, epochs=2,
                                                              batch_size=50, loss=loss, seed=114))
        # the oracle: one product over the whole design, a row-wise loss
        F = real_design(layer.feature_map.features_many(data.X))
        A = np.ascontiguousarray(np.conjugate(layer.A)).view(float)
        pred = F @ A.T if head is None else F @ (head.W @ A).T + head.b
        if loss == "mse":
            want_loss, want_acc = float(np.sum((pred - data.Y) ** 2) / n), math.nan
        else:
            z = pred - pred.max(axis=1, keepdims=True)
            log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            want_loss = float(-np.mean(log_probs[np.arange(n), data.Y]))
            want_acc = float(np.mean(pred.argmax(axis=1) == data.Y))
        got_loss, got_acc = evaluate(layer, head, data, loss)
        assert got_loss == pytest.approx(want_loss, rel=1e-13, abs=0)
        assert np.array_equal(got_acc, want_acc, equal_nan=True)
        if head is not None:
            assert 0.25 < got_acc < 1.0


def reference_fit(layer, head, data, cfg, validation):
    """Complex-arithmetic SGD on A as the trainer once ran it: Re(Phi A^T),
    gradients against conj(Phi), a complex step for a complex A."""
    feats = layer.feature_map.features_many(data.X)
    val_feats = layer.feature_map.features_many(validation.X)
    A, W, b = layer.A.copy(), head.W.copy(), head.b.copy()

    def forward(f, Y):
        hidden = (f @ A.T).real
        pred = hidden @ W.T + b
        z = pred - pred.max(axis=1, keepdims=True)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        loss = float(np.mean(-np.log(probs[np.arange(len(f)), Y] + 1e-300)))
        return hidden, pred, probs, loss

    history = []
    for epoch in range(cfg.epochs + 1):
        if epoch > 0:
            order = rng_for(cfg.seed, 310, epoch, MISC_STREAM).permutation(data.n)
            for start in range(0, data.n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                hidden, _, probs, _ = forward(feats[idx], data.Y[idx])
                dpred = probs.copy()
                dpred[np.arange(len(idx)), data.Y[idx]] -= 1.0
                dpred /= len(idx)
                gW = dpred.T @ hidden
                gb = dpred.sum(axis=0)
                gA = (dpred @ W).T @ feats[idx].conj()
                if not np.iscomplexobj(A):
                    gA = gA.real
                lr = cfg.learning_rate
                A, W, b = A - lr * gA, W - lr * gW, b - lr * gb
        for split, f, ds in (("train", feats, data), ("validation", val_feats, validation)):
            _, pred, _, loss = forward(f, ds.Y)
            history.append((epoch, split, loss, float(np.mean(pred.argmax(axis=1) == ds.Y))))
    return A, W, b, history


def per_array_fit(layer, head, data, cfg, validation, batch_losses=None):
    """fit_A's SGD with one array per parameter: fresh gradient arrays, two
    update ufuncs for each of A, W and b, a row-major softmax and the label
    entries picked by fancy indexing; losses on the full splits likewise.
    Every batch's objective is appended to ``batch_losses`` when given, and
    fitting stops at the first non-finite one, before its step."""
    feats = real_design(layer.feature_map.features_many(data.X))
    val_feats = real_design(layer.feature_map.features_many(validation.X))
    A = np.ascontiguousarray(np.conjugate(layer.A)).view(float)
    params = [A] if head is None else [A, head.W.copy(), head.b.copy()]
    W, b = params[1:] if head is not None else (None, None)

    def targets(ds):
        return ds.Y if cfg.loss == "cross_entropy" or ds.Y.ndim == 2 else ds.Y[:, None]

    def loss_and_grad(pred, Y):
        n = len(pred)
        if cfg.loss == "mse":
            diff = pred - Y
            return float(np.sum(diff * diff) / n), diff * 2.0 / n
        probs = pred - pred.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
        rows = np.arange(n)
        ll = -np.log(probs[rows, Y] + 1e-300)
        probs[rows, Y] -= 1.0
        probs /= n
        return float(ll.sum() / n), probs

    def evaluate_split(f, ds):
        pred = f @ A.T if W is None else f @ (W @ A).T + b
        value = loss_and_grad(pred, targets(ds))[0]
        if cfg.loss == "mse":
            return value, math.nan
        return value, float(np.mean(pred.argmax(axis=1) == ds.Y))

    Y = targets(data)
    history = []
    for epoch in range(cfg.epochs + 1):
        if epoch > 0:
            order = rng_for(cfg.seed, 310, epoch, MISC_STREAM).permutation(data.n)
            for start in range(0, data.n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                f = feats[idx]
                hidden = f @ A.T
                if W is None:
                    value, dpred = loss_and_grad(hidden, Y[idx])
                    grads = [dpred.T @ f]
                else:
                    value, dpred = loss_and_grad(hidden @ W.T + b, Y[idx])
                    grads = [W.T @ (dpred.T @ f), dpred.T @ hidden, dpred.sum(axis=0)]
                if batch_losses is not None:
                    batch_losses.append(value)
                    if not math.isfinite(value):
                        return A, W, b, history
                for p, g in zip(params, grads):
                    g *= cfg.learning_rate
                    p -= g
        for split, f, ds in (("train", feats, data), ("validation", val_feats, validation)):
            history.append((epoch, split, *evaluate_split(f, ds)))
    return A, W, b, history


class TestFlatBufferStep:
    """fit_A's in-place step on one flat buffer reproduces per-array SGD bit for bit."""

    @pytest.mark.parametrize("case", ["relu-ce-k4", "urf-ce-plain", "relu-mse-headless",
                                      "relu-ce-k10"])
    def test_matches_per_array_sgd(self, case):
        k = 10 if case == "relu-ce-k10" else 3 if case.startswith("urf") else 4
        full = generate_blobs(n=250, d=5, k=k, separation=6.0, seed=96)
        train_set, val_set = split_dataset(full, 0.2, seed=97)  # 200 rows: batches 16 * 12 + 8
        if case.startswith("urf"):
            scale = float(np.max(np.linalg.norm(train_set.X, axis=1)))
            train_set = Dataset(X=train_set.X / scale, Y=train_set.Y)
            val_set = Dataset(X=val_set.X / scale, Y=val_set.Y)
            fmap = urf_feature_map(Activation("sine"), 5, UrfConfig(m=12, seed=98))
        else:
            fmap = relu_feature_map(5, 24, seed=98)
        loss = "mse" if case == "relu-mse-headless" else "cross_entropy"
        if loss == "mse":
            train_set, val_set = (Dataset(X=ds.X, Y=np.eye(k)[ds.Y] + 0.1 * np.arange(k))
                                  for ds in (train_set, val_set))
            layer, head = make_learnable_layer(fmap, k, seed=99), None
        else:
            layer, head = make_learnable_layer(fmap, 8, seed=99), make_head(k, 8, seed=100)
        assert np.iscomplexobj(layer.A) == case.startswith("urf")
        cfg = TrainConfig(learning_rate=0.05, epochs=6, batch_size=16, loss=loss, seed=101)
        trained, trained_head, history = fit_A(layer, head, train_set, cfg, validation=val_set)
        A, W, b, expected = per_array_fit(layer, head, train_set, cfg, val_set)
        assert np.array_equal(real_design(trained.A.conj()), A)
        if head is not None:
            assert np.array_equal(trained_head.W, W) and np.array_equal(trained_head.b, b)
        assert [row[:2] for row in history] == [row[:2] for row in expected]
        for got, want in zip(history, expected):
            assert np.array_equal(got[3], want[3], equal_nan=True)
            if k < 8:
                assert got[2] == want[2]
            else:
                # the class-major full-split loss sums the k >= 8 exponentials
                # in another order than numpy's row-wise sum: last bits only
                assert got[2] == pytest.approx(want[2], rel=1e-15, abs=0)


class TestRealCoordinates:
    """fit_A in real coordinates reproduces complex-arithmetic SGD."""

    @pytest.mark.parametrize("kind", ["urf", "relu"])
    def test_matches_complex_reference(self, kind):
        full = generate_blobs(n=240, d=5, k=3, separation=6.0, seed=80)
        train_set, val_set = split_dataset(full, 0.25, seed=81)
        if kind == "urf":
            scale = float(np.max(np.linalg.norm(train_set.X, axis=1)))
            train_set = Dataset(X=train_set.X / scale, Y=train_set.Y)
            val_set = Dataset(X=val_set.X / scale, Y=val_set.Y)
            fmap = urf_feature_map(Activation("sine"), 5, UrfConfig(m=12, seed=82))
        else:
            fmap = relu_feature_map(5, 24, seed=82)
        layer = make_learnable_layer(fmap, 8, seed=83)
        head = make_head(3, 8, seed=84)
        assert np.iscomplexobj(layer.A) == (kind == "urf")
        cfg = TrainConfig(learning_rate=0.02, epochs=8, batch_size=16,
                          loss="cross_entropy", seed=85)
        trained, trained_head, history = fit_A(layer, head, train_set, cfg,
                                               validation=val_set)
        A, W, b, expected = reference_fit(layer, head, train_set, cfg, val_set)
        assert [row[:2] for row in history] == [row[:2] for row in expected]
        for got, want in zip(history, expected):
            assert got[2] == pytest.approx(want[2], rel=1e-12, abs=0)
            assert got[3] == want[3]
        assert trained.A.dtype == A.dtype
        np.testing.assert_allclose(trained.A, A, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(trained_head.W, W, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(trained_head.b, b, rtol=1e-10, atol=1e-12)

    def test_real_design_reproduces_real_part(self):
        fmap = urf_feature_map(Activation("sine"), 4, UrfConfig(m=6, seed=86))
        layer = make_learnable_layer(fmap, 3, seed=87)
        X = rng_for(88, 0, 0, MISC_STREAM).uniform(-0.5, 0.5, (7, 4))
        feats = fmap.features_many(X)
        design = real_design(feats)
        assert design.shape == (7, 2 * feats.shape[1]) and design.dtype == float
        # interleaved: entry pairs (Re A_ij, -Im A_ij) against (Re phi_j, Im phi_j)
        stacked = np.stack([layer.A.real, -layer.A.imag], axis=-1).reshape(3, -1)
        np.testing.assert_allclose(design @ stacked.T, (feats @ layer.A.T).real,
                                   rtol=1e-12, atol=1e-14)
        relu = relu_feature_map(4, 8, seed=89).features_many(X)
        assert real_design(relu) is relu

    def test_real_design_is_the_feature_buffer(self):
        fmap = urf_feature_map(Activation("sine"), 4, UrfConfig(m=6, seed=86))
        feats = fmap.features_many(rng_for(88, 0, 0, MISC_STREAM).uniform(-0.5, 0.5, (7, 4)))
        design = real_design(feats)
        assert np.shares_memory(design, feats)
        assert np.array_equal(design, np.stack([feats.real, feats.imag], axis=-1).reshape(7, -1))

    def test_design_build_makes_no_extra_copy(self):
        # the tower's projection temporary (half the feature bytes) is the
        # only allocation beside the features; a copied design would add a
        # whole feature matrix
        fmap = urf_feature_map(Activation("gelu"), 16, UrfConfig(m=64, A=0.0, seed=86))
        X = rng_for(88, 0, 0, MISC_STREAM).uniform(-0.25, 0.25, (3000, 16))
        fmap.features_many(X[:2])  # the cached per-entry constants
        tracemalloc.start()
        try:
            design = real_design(fmap.features_many(X))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * design.nbytes

    def test_evaluate_takes_features_or_their_design(self):
        fmap = urf_feature_map(Activation("sine"), 4, UrfConfig(m=6, seed=86))
        layer = make_learnable_layer(fmap, 3, seed=87)
        head = make_head(2, 3, seed=88)
        rng = rng_for(89, 0, 0, MISC_STREAM)
        data = Dataset(X=rng.uniform(-0.5, 0.5, (7, 4)), Y=rng.integers(0, 2, 7).astype(np.int64))
        feats = fmap.features_many(data.X)
        pred = (feats @ layer.A.T).real @ head.W.T + head.b
        want = evaluate(layer, head, data, "cross_entropy")
        assert want[1] == float(np.mean(pred.argmax(axis=1) == data.Y))
        kept = feats.copy()
        for given in (feats, real_design(feats)):
            got = evaluate(layer, head, data, "cross_entropy", feats=given)
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0) and got[1] == want[1]
        assert np.array_equal(feats, kept)  # the caller's features are left as they were

    def test_integer_weights_train_as_float(self):
        # the stacked weights are a float copy, never a reinterpretation of A's bytes
        fmap = relu_feature_map(3, 4, seed=91)
        A = np.rint(4.0 * make_learnable_layer(fmap, 2, seed=92).A).astype(np.int64)
        rng = rng_for(93, 0, 0, MISC_STREAM)
        data = Dataset(X=rng.standard_normal((5, 3)), Y=rng.standard_normal((5, 2)))
        floats = SnnkLayer(feature_map=fmap, A=A.astype(float))
        assert evaluate(SnnkLayer(feature_map=fmap, A=A), None, data, "mse")[0] == \
            evaluate(floats, None, data, "mse")[0]

    def test_weights_must_match_the_features(self):
        X = np.zeros((5, 3))
        urf = urf_feature_map(Activation("sine"), 3, UrfConfig(m=4, seed=90))
        relu = relu_feature_map(3, 4, seed=91)
        real_over_complex = make_learnable_layer(urf, 2, seed=92)
        real_over_complex.A = real_over_complex.A.real.copy()
        complex_over_real = make_learnable_layer(relu, 2, seed=93)
        complex_over_real.A = complex_over_real.A.astype(complex)
        data = Dataset(X=X, Y=np.zeros((5, 2)))
        for layer in (real_over_complex, complex_over_real):
            with pytest.raises(ValueError, match="complex iff"):
                evaluate(layer, None, data, "mse")
            with pytest.raises(ValueError, match="complex iff"):
                fit_A(layer, None, data, TrainConfig(learning_rate=0.1, epochs=1, batch_size=5))
