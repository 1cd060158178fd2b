"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from snnk._seeds import MISC_STREAM, derive_seed, rng_for
from snnk.activations import Activation, closed_form_ft, decomposition_for, numeric_ft, validate_decomposition
from snnk.bundling import (
    bundle_full,
    bundle_once,
    bundled_forward,
    closed_form_regression,
    default_ridge,
    fold_following_linear,
    network,
    network_forward,
    regression_gradient,
    regression_objective,
)
from snnk.cli import EstimateConfig, main, run_pointwise
from snnk.layers import (
    FflSpec,
    TaylorSplitKernel,
    arc_cosine_exact,
    arc_cosine_mc_samples,
    kar_karnick_estimate,
    relu_feature_map,
    snnk_from_ffl,
    urf_feature_map,
)
from snnk import train
from snnk.train import Dataset, TrainConfig, ffl_param_count, grad_check, make_head, make_learnable_layer
from snnk.urf import (
    FeatureVector,
    UrfConfig,
    kernel_estimate,
    phi,
    phi_entry_bound,
    psi,
    psi_entry_bound,
    sample_draws,
)


def report(number, name, detail=""):
    print(f"ACCEPTANCE {number:2d} ({name}): PASS {detail}")


def unit_ball_point(rng, d):
    v = rng.standard_normal(d)
    return v * rng.random() ** (1.0 / d) / np.linalg.norm(v)


def test_criterion_01_unbiasedness_suite():
    t0 = time.time()
    d, m, n_inst = 8, 32, 10_000
    rng = rng_for(2024, 0, 0, MISC_STREAM)
    passes = {}
    for kind in ("sine", "cosine", "tanh", "sigmoid"):
        act = Activation(kind)
        dec = decomposition_for(act)
        ok = 0
        for t in range(20):
            x = unit_ball_point(rng, d)
            w = unit_ball_point(rng, d)
            b = float(rng.uniform(-1, 1))
            target = float(act(np.dot(w, x) + b))
            flat = sample_draws(dec, d, UrfConfig(m=m * n_inst, A=-0.1, seed=9000 + t))
            px, pw = (FeatureVector(flat.instantiations(f.entries, n_inst))
                      for f in (phi(x, flat), psi(w, b, flat)))
            est = kernel_estimate(px, pw) * n_inst
            se = est.std(ddof=1) / math.sqrt(n_inst)
            ok += abs(est.mean() - target) <= 3.0 * se
        passes[kind] = ok
        assert ok >= 19, f"{kind}: only {ok}/20 triples within 3 SE"
    elapsed = time.time() - t0
    assert elapsed <= 120.0, f"suite took {elapsed:.0f}s"
    report(1, "unbiasedness", f"{passes} in {elapsed:.0f}s")


def test_criterion_02_variance_decay_slope():
    t0 = time.time()
    result = run_pointwise(
        EstimateConfig(
            activation="sine",
            d=200,
            feature_counts=(8, 16, 32, 64, 128, 256, 512),
            instantiations=100,
            A=0.0,
            seed=1,
        )
    )
    ps = np.array([p for p, _, _ in result.aggregates], dtype=float)
    means = np.array([mean for _, mean, _ in result.aggregates])
    slope = np.polyfit(np.log(ps), np.log(means), 1)[0]
    elapsed = time.time() - t0
    assert elapsed <= 60.0, f"benchmark took {elapsed:.0f}s"
    assert abs(slope + 0.5) <= 0.15, f"slope {slope:.3f}"
    report(2, "variance decay", f"slope={slope:.3f} in {elapsed:.1f}s")


def test_criterion_03_arc_cosine_oracle():
    rng = rng_for(304, 0, 0, MISC_STREAM)
    worst = 0.0
    for pair in range(50):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        for n in (0, 1, 2):
            samples = arc_cosine_mc_samples(n, x, y, 1_000_000,
                                            seed=derive_seed(304, pair, n))
            se = samples.std(ddof=1) / 1000.0
            gap = abs(samples.mean() - arc_cosine_exact(n, x, y))
            assert gap <= 3.0 * se, f"pair {pair} order {n}: {gap} > 3*{se}"
            worst = max(worst, gap / se if se > 0 else 0.0)
    # closed forms at aligned, orthogonal and anti-aligned configurations
    x = np.array([0.7, 0.0, 0.7])
    y_orth = np.array([0.0, 1.3, 0.0])
    nx2 = float(x @ x)
    ny = math.sqrt(float(y_orth @ y_orth))
    cases = {
        (0, "aligned"): (x, x, 1.0),
        (0, "orthogonal"): (x, y_orth, 0.5),
        (0, "opposite"): (x, -x, 0.0),
        (1, "aligned"): (x, x, nx2),
        (1, "orthogonal"): (x, y_orth, math.sqrt(nx2) * ny / math.pi),
        (1, "opposite"): (x, -x, 0.0),
        (2, "aligned"): (x, x, 3.0 * nx2**2),
        (2, "orthogonal"): (x, y_orth, nx2 * ny**2 / 2.0),
        (2, "opposite"): (x, -x, 0.0),
    }
    for (n, _label), (a, b, expected) in cases.items():
        assert arc_cosine_exact(n, a, b) == pytest.approx(expected, abs=1e-12)
    report(3, "arc-cosine oracle", f"worst z={worst:.2f} over 150 checks")


def test_criterion_04_boundedness():
    rng = rng_for(404, 0, 0, MISC_STREAM)
    checked = 0
    violations = 0
    kinds = ("sine", "cosine", "tanh", "sigmoid")
    decs = {k: decomposition_for(Activation(k)) for k in kinds}
    t = 0
    while checked < 1_000_000:
        kind = kinds[t % 4]
        cfg = UrfConfig(m=250, A=-0.1, seed=50_000 + t)
        draws = sample_draws(decs[kind], 6, cfg)
        x = unit_ball_point(rng, 6)
        w = unit_ball_point(rng, 6)
        b = float(rng.uniform(-1, 1))
        fx = phi(x, draws).entries
        fw = psi(w, b, draws).entries
        bx = phi_entry_bound(draws, 1.0)
        bw = psi_entry_bound(draws, 1.0)
        violations += int(np.sum(np.abs(fx) > bx)) + int(np.sum(np.abs(fw) > bw))
        checked += len(fx) + len(fw)
        t += 1
    assert violations == 0
    report(4, "boundedness", f"{checked} entries, zero violations")


def test_criterion_05_bundling_consistency():
    net = network([3, 4, 2], [Activation("sine"), Activation("sine")],
                  seed=11, init_std=0.8)
    probes = rng_for(505, 0, 0, MISC_STREAM).uniform(-0.7, 0.7, (16, 3))
    maes = []
    for m in (64, 256, 1024):
        per_seed = []
        for s in range(12):
            bundled = bundle_full(net, UrfConfig(m=m, A=0.0, seed=600 + s))
            errors = [
                np.abs(bundled_forward(p, bundled) - network_forward(p, net)).mean()
                for p in probes
            ]
            per_seed.append(float(np.mean(errors)))
        maes.append(float(np.mean(per_seed)))
    assert maes[0] >= maes[1] >= maes[2], maes

    cfg = UrfConfig(m=128, A=0.0, seed=5)
    via_steps = bundle_once(bundle_once(net, cfg), cfg)
    via_full = bundle_full(net, cfg)
    gap = float(np.max(np.abs(via_steps.W_bar - via_full.W_bar)))
    assert gap <= 1e-12
    report(5, "bundling consistency",
           f"mae={['%.3f' % v for v in maes]} step-vs-full gap={gap:.1e}")


def test_criterion_06_closed_form_regression():
    rng = rng_for(606, 0, 0, MISC_STREAM)
    X = rng.standard_normal((80, 10))
    Y = rng.standard_normal((80, 3))
    ridge = default_ridge(X)
    W = closed_form_regression(X, Y, ridge=ridge)
    gnorm = float(np.linalg.norm(regression_gradient(X, Y, W, ridge)))
    bound = 1e-8 * (1.0 + float(np.linalg.norm(Y)))
    assert gnorm <= bound
    base = regression_objective(X, Y, W, ridge)
    for k in range(20):
        direction = rng_for(607, k, 0, MISC_STREAM).standard_normal(W.shape)
        direction /= np.linalg.norm(direction)
        assert regression_objective(X, Y, W + 1e-3 * direction, ridge) >= base
    report(6, "closed-form regression", f"grad={gnorm:.2e} <= {bound:.2e}")


def test_criterion_07_gradient_checks(monkeypatch):
    rng = rng_for(707, 0, 0, MISC_STREAM)
    fmap = urf_feature_map(Activation("sine"), 4, UrfConfig(m=6, seed=70))
    layer = make_learnable_layer(fmap, 3, seed=71)
    head = make_head(2, 3, seed=72)
    mse_batch = Dataset(X=rng.uniform(-0.6, 0.6, (9, 4)), Y=rng.standard_normal((9, 2)))
    ce_batch = Dataset(
        X=rng.uniform(-0.6, 0.6, (9, 4)), Y=rng.integers(0, 2, 9).astype(np.int64)
    )
    mse_err = grad_check(layer, head, mse_batch, "mse")
    ce_err = grad_check(layer, head, ce_batch, "cross_entropy")
    assert mse_err <= 1e-4 and ce_err <= 1e-4
    # every real coordinate of the complex A is differentiated: the Re A and
    # -Im A entries of the interleaved stacked 3 x 24 weights, 72 entries
    assert layer.A.shape == (3, 12) and np.iscomplexobj(layer.A)
    stacked = np.conjugate(layer.A).view(float)
    bumped = np.zeros(stacked.shape, dtype=bool)
    objective = train._grads

    def recording(feats, A, *args):
        bumped[A != stacked] = True
        return objective(feats, A, *args)

    monkeypatch.setattr(train, "_grads", recording)
    grad_check(layer, head, mse_batch, "mse", max_entries=0)
    assert not bumped.any()  # the analytic gradient alone reads the weights as they are
    grad_check(layer, head, mse_batch, "mse")
    assert bumped.all()
    report(7, "gradient checks", f"mse={mse_err:.1e} ce={ce_err:.1e}")


def test_criterion_08_fold_exactness():
    rng = rng_for(808, 0, 0, MISC_STREAM)
    spec = FflSpec(
        W=rng.uniform(-0.5, 0.5, (4, 3)),
        b=rng.uniform(-0.5, 0.5, 4),
        activation=Activation("sine"),
    )
    layer = snnk_from_ffl(spec, UrfConfig(m=4, seed=80))  # M = 8
    W2 = rng.standard_normal((16, 4))
    b2 = rng.standard_normal(16)
    folded = fold_following_linear(layer, W2, b2)
    from snnk.layers import snnk_forward

    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1, 1, 3)
        direct = W2 @ snnk_forward(x, layer) + b2
        worst = max(worst, float(np.max(np.abs(folded(x) - direct))))
    assert worst <= 1e-12
    assert folded.param_count() == 8 * 16 + 16
    report(8, "fold exactness", f"max gap={worst:.1e}, params={folded.param_count()}")


def test_criterion_09_ft_validation():
    zs = np.linspace(-5, 5, 41)
    errors = {}
    for kind, tol in (("sine", 1e-12), ("cosine", 1e-12),
                      ("tanh", 1e-3), ("sigmoid", 1e-3)):
        act = Activation(kind)
        err = validate_decomposition(closed_form_ft(act), act, zs)
        assert err <= tol, f"{kind}: {err}"
        errors[kind] = err
    grid = np.linspace(-4, 4, 257)
    calib = float(np.max(np.abs(
        numeric_ft(lambda z: np.exp(-math.pi * z * z), grid) - np.exp(-math.pi * grid**2)
    )))
    assert calib <= 1e-8
    report(9, "transform validation",
           f"recon={{{', '.join(f'{k}:{v:.0e}' for k, v in errors.items())}}} calib={calib:.0e}")


def _unit_pair_with_dot(rng, d, dot):
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    u = rng.standard_normal(d)
    u -= (x @ u) * x
    u /= np.linalg.norm(u)
    return x, dot * x + math.sqrt(1.0 - dot * dot) * u


def test_criterion_10_kar_karnick_tanh_split():
    k = TaylorSplitKernel.from_tanh(9)
    rng = rng_for(1010, 0, 0, MISC_STREAM)
    for target_dot in (0.1, 0.3, 0.5):
        x, y = _unit_pair_with_dot(rng, 5, target_dot)
        target = k.partial_sum(target_dot)
        ests = np.array([
            kar_karnick_estimate(k, x, y, D=128, seed=70_000 + s) for s in range(500)
        ])
        se = ests.std(ddof=1) / math.sqrt(len(ests))
        assert abs(ests.mean() - target) <= 3.0 * se, target_dot

    x, y = _unit_pair_with_dot(rng, 5, 0.5)
    shared, indep = [], []
    for s in range(4000):
        shared.append(kar_karnick_estimate(k, x, y, D=16, seed=80_000 + s, shared=True))
        indep.append(kar_karnick_estimate(k, x, y, D=16, seed=80_000 + s, shared=False))
    v_shared = float(np.var(shared, ddof=1))
    v_indep = float(np.var(indep, ddof=1))
    assert v_shared <= v_indep
    report(10, "polynomial split", f"var shared={v_shared:.4f} <= indep={v_indep:.4f}")


def test_criterion_11_cli_thread_determinism(tmp_path):
    est_cfg = tmp_path / "est.json"
    est_cfg.write_text(json.dumps({
        "activation": "sine", "d": 24, "feature_counts": [8, 16],
        "instantiations": 8, "seed": 5,
    }))
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "axis": "A", "values": [0.0, -0.1],
        "base": {"activation": "sine", "d": 16, "feature_counts": [8],
                 "instantiations": 6, "seed": 5},
    }))
    bundle_cfg = tmp_path / "bundle.json"
    bundle_cfg.write_text(json.dumps({
        "input_dim": 3,
        "layers": [{"out_dim": 4, "activation": "sine"},
                   {"out_dim": 2, "activation": "sine"}],
        "seed": 11, "urf": {"m": 32, "A": 0.0}, "probes": 4,
    }))
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "seed": 3,
        "data": {"n": 120, "d": 5, "k": 2, "separation": 8.0},
        "layer": {"kind": "relu", "features": 16, "out_dim": 8},
        "train": {"learning_rate": 0.05, "epochs": 3, "batch_size": 16,
                  "loss": "cross_entropy"},
    }))
    commands = {
        "estimate": ["estimate", "--config", str(est_cfg)],
        "sweep": ["sweep", "--config", str(sweep_cfg)],
        "ft-table": ["ft-table"],
        "bundle": ["bundle", "--config", str(bundle_cfg)],
        "train": ["train", "--config", str(train_cfg)],
    }
    for name, argv in commands.items():
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        assert main(argv + ["--seed", "7", "--out", str(a), "--threads", "1"]) == 0
        assert main(argv + ["--seed", "7", "--out", str(b), "--threads", "4"]) == 0
        assert a.read_bytes() == b.read_bytes(), name
    report(11, "cli determinism", f"{len(commands)} subcommands byte-identical")


def test_criterion_12_compression_accounting():
    layer = make_learnable_layer(relu_feature_map(512, 32, seed=1), 512, seed=2)
    ours = layer.param_count()
    dense = ffl_param_count(512, 512)
    assert ours == 16384
    assert dense == 262144
    assert dense // ours == 16
    report(12, "compression accounting", f"{ours} vs {dense} (16x)")
