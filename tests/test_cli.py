import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

import snnk
from snnk import cli
from snnk._seeds import MISC_STREAM, derive_seed, rng_for
from snnk.activations import Activation, decomposition_for
from snnk.cli import (
    ESTIMATE_HEADER,
    EstimateConfig,
    main,
    run_pointwise,
    run_sweep,
)
from snnk.layers import relu_snnk_features
from snnk.urf import (
    FeatureVector,
    UrfConfig,
    kernel_estimate,
    phi,
    psi,
    sample_draws,
)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_twice_and_compare(argv_base, tmp_path, name):
    out1 = tmp_path / f"{name}_t1.csv"
    out4 = tmp_path / f"{name}_t4.csv"
    assert main(argv_base + ["--out", str(out1), "--threads", "1"]) == 0
    assert main(argv_base + ["--out", str(out4), "--threads", "4"]) == 0
    assert out1.read_bytes() == out4.read_bytes()
    return out1


def loaded_by_cli_import(module):
    src = os.path.dirname(os.path.dirname(snnk.__file__))
    code = f"import sys, snnk.cli; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    return done.stdout.strip() == "True"


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate costs most of the import; only the quadrature
    # reconstruction of a closed-form density needs it
    assert not loaded_by_cli_import("scipy.integrate")


def test_import_leaves_scipy_special_unloaded():
    # only the sigmoid, gelu, swish and smoothed_relu evaluators need it
    assert not loaded_by_cli_import("scipy.special")


def test_import_leaves_numpy_fft_unloaded():
    # only the numeric transforms of gelu, swish and smoothed_relu need it
    assert not loaded_by_cli_import("numpy.fft")


ESTIMATE_CFG = {
    "activation": "sine",
    "d": 24,
    "feature_counts": [8, 16, 32],
    "instantiations": 12,
    "seed": 5,
}


class TestEstimateCommand:
    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = write_json(tmp_path / "est.json", ESTIMATE_CFG)
        out = run_twice_and_compare(["estimate", "--config", cfg], tmp_path, "est")
        rows = read_rows(out)
        assert rows[0] == ESTIMATE_HEADER
        trials = [r for r in rows[1:] if r[0] == "trial"]
        aggregates = [r for r in rows[1:] if r[0] == "aggregate"]
        assert len(trials) == 3 * 12
        assert len(aggregates) == 3

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_json(tmp_path / "est.json", ESTIMATE_CFG)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["estimate", "--config", cfg, "--seed", "9", "--out", str(a)]) == 0
        assert main(["estimate", "--config", cfg, "--seed", "10", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_arccos_variant(self, tmp_path):
        cfg = write_json(
            tmp_path / "arc.json",
            dict(ESTIMATE_CFG, activation="arccos", feature_counts=[16, 64]),
        )
        out = tmp_path / "arc.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)
        aggs = [r for r in rows[1:] if r[0] == "aggregate"]
        assert float(aggs[1][9]) < float(aggs[0][9]) * 1.2  # error does not blow up

    def test_malformed_feature_counts_fail_cleanly(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "est.json", dict(ESTIMATE_CFG, feature_counts=5))
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err == "error: feature_counts: expected a list of integers, got 5\n"

    def test_unknown_key_fails_cleanly(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "est.json", dict(ESTIMATE_CFG, instantiation=3))
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: instantiation: unknown key\n"
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        # iid is the one sampling scheme: strategy and block_size accept only its values
        ({"strategy": "bogus"}, "strategy: must be 'iid', got 'bogus'"),
        ({"block_size": 4}, "block_size: must be 0, got 4"),
        ({"strategy": "block"}, "strategy: must be 'iid', got 'block'"),
        ({"strategy": "block", "block_size": 4}, "strategy: must be 'iid', got 'block'"),
        ({"A": 0.5}, "A: must be finite and <= 0, got 0.5"),
        ({"activation": "arccos", "strategy": "bogus"}, "strategy: must be 'iid', got 'bogus'"),
        ({"activation": "arccos", "block_size": 4}, "block_size: must be 0, got 4"),
        ({"feature_counts": []}, "feature_counts: must be a nonempty list of counts >= 1, got []"),
        ({"activation": "arccos", "feature_counts": []},
         "feature_counts: must be a nonempty list of counts >= 1, got []"),
        ({"feature_counts": [8, 0]},
         "feature_counts: must be a nonempty list of counts >= 1, got [8, 0]"),
        ({"instantiations": 1}, "instantiations: must be >= 2, got 1"),
        ({"l": 2}, "l: pointwise estimation is defined for l = 1, got 2"),
        ({"d": 0}, "d: must be >= 1, got 0"),
        ({"d": -1}, "d: must be >= 1, got -1"),
        # every count reads a prefix of the same features, so two counts of one
        # per-component count would repeat rows; over two components 8 and 9 both give 4
        ({"feature_counts": [8, 9]},
         "feature_counts: 8 and 9 both give 4 features per component (2 components), so "
         "they would read the same features; give distinct counts"),
        ({"activation": "tanh", "feature_counts": [64, 8, 64]},
         "feature_counts: 64 and 64 both give 32 features per component (2 components), so "
         "they would read the same features; give distinct counts"),
        ({"activation": "arccos", "feature_counts": [8, 16, 8]},
         "feature_counts: 8 and 8 both give 8 features, so they would read the same "
         "features; give distinct counts"),
    ], ids=["strategy", "block_size", "no-block-size", "block", "A", "arccos-strategy",
            "arccos-block_size", "no-counts", "arccos-no-counts", "zero-count", "instantiations",
            "l", "zero-d", "negative-d", "repeated-sine", "repeated-tanh", "repeated-arccos"])
    def test_sampling_keys_checked_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                    change, message):
        def no_trial(*args):
            raise AssertionError("a trial ran before the config was checked")

        monkeypatch.setattr(cli, "_urf_run", no_trial)
        monkeypatch.setattr(cli, "_arccos_run", no_trial)
        cfg = write_json(tmp_path / "est.json", dict(ESTIMATE_CFG, **change))
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_arccos_ignores_A(self):
        cli.EstimateConfig(activation="arccos", A=0.5)

    def test_unknown_activation_names_its_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "est.json", dict(ESTIMATE_CFG, activation="sinee"))
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: activation: expected an activation kind or 'arccos', got 'sinee'\n"
        )
        assert not out.exists()

    def test_non_finite_shape_parameter_fails_cleanly(self, tmp_path, capsys):
        # json reads the bare NaN token as a float
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps(dict(ESTIMATE_CFG, A=math.nan)))
        assert "NaN" in cfg.read_text()
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: A: must be finite and <= 0, got nan\n"
        assert not out.exists()

    def test_non_finite_bias_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps(dict(ESTIMATE_CFG, d=8, bias=math.nan)))
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: bias: must be finite, got nan\n"
        assert not out.exists()

    def test_infinite_integer_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps(dict(ESTIMATE_CFG, d=math.inf)))
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == "error: d: expected an integer, got inf\n"

    @pytest.mark.parametrize("key, value", [("d", 8.5), ("seed", 11.7), ("instantiations", "12")])
    def test_non_integer_value_of_integer_key_fails_cleanly(self, tmp_path, capsys, key, value):
        # the value is rejected, not truncated or parsed
        cfg = write_json(tmp_path / "est.json", dict(ESTIMATE_CFG, **{key: value}))
        out = tmp_path / "o.csv"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {key}: expected an integer, got {value!r}\n"
        assert not out.exists()

    def test_empty_config_reads_as_the_defaults(self):
        assert cli._estimate_config_from({}, None) == EstimateConfig()

    def test_error_decays_across_octaves(self):
        report = run_pointwise(
            EstimateConfig(
                activation="sine",
                d=64,
                feature_counts=(16, 64, 256),
                instantiations=60,
                seed=2,
            )
        )
        means = [mean for _, mean, _ in report.aggregates]
        ses = [std / math.sqrt(60) for _, _, std in report.aggregates]
        for (hi, hi_se), (lo, lo_se) in zip(zip(means, ses), zip(means[1:], ses[1:])):
            assert lo <= hi + math.hypot(hi_se, lo_se)

    @pytest.mark.parametrize("activation", ["tanh", "arccos"])
    @pytest.mark.parametrize("n", [2, 5, 8, 9, 100, 129])  # pairwise-summation block edges
    def test_aggregates_are_each_counts_own_mean_and_std(self, activation, n):
        report = run_pointwise(EstimateConfig(activation=activation, d=16,
                                              feature_counts=(8, 32), instantiations=n, seed=7))
        assert [p for p, _, _ in report.aggregates] == [8, 32]
        for p, mean, std in report.aggregates:
            errs = np.array([row[6] for row in report.rows if row[2] == p])
            assert len(errs) == n
            assert mean == float(errs.mean()) and std == float(errs.std(ddof=1))

    def test_achieved_feature_count_reported(self):
        report = run_pointwise(
            EstimateConfig(
                activation="sine", d=8, feature_counts=(9,), instantiations=4, seed=3
            )
        )
        # two active components: nearest achievable length is 8
        assert report.aggregates[0][0] == 8


# Each law-equivalence case compares KS_N trial estimates of run_pointwise, whose
# Gaussians live in span{x, w}, with KS_N estimates of the estimator that draws
# all d coordinates, by a two-sample KS test at level KS_ALPHA.  For a random
# seed a correct sampler fails one case with odds 1e-3, and any of the nine
# cases with odds under 1%; the seeds here are fixed.
KS_N = 2000
KS_ALPHA = 1e-3


def span_estimates(cfg):
    return np.array([row[4] for row in run_pointwise(cfg).rows])


def direct_estimates(cfg, x, w, seed):
    """KS_N estimates whose Gaussians have all d coordinates, the instantiations
    of one flat draw set."""
    if cfg.activation == "arccos":
        p = cfg.feature_counts[0]
        G = rng_for(seed, 0, 0, MISC_STREAM).standard_normal((KS_N, p, cfg.d))
        return (np.maximum(0.0, G @ x) * np.maximum(0.0, G @ w)).sum(axis=-1) / p
    dec = decomposition_for(Activation(cfg.activation))
    m = cli._per_component(cfg.feature_counts[0], len(dec.active()))
    draws = sample_draws(dec, cfg.d, UrfConfig(m=KS_N * m, A=cfg.A, seed=seed))
    px, pw = (FeatureVector(draws.instantiations(f.entries, KS_N))
              for f in (phi(x, draws), psi(w, cfg.bias, draws)))
    return kernel_estimate(px, pw) * KS_N


def ks_config(activation, d, A=0.0):
    return EstimateConfig(activation=activation, d=d, feature_counts=(8,),
                          instantiations=KS_N, A=A, seed=31)


class TestSpanSampling:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_span_coordinates_keep_norms_and_inner_product(self, d):
        x, w = rng_for(40 + d, 0, 0, MISC_STREAM).standard_normal((2, d))
        xk, wk = cli._span_coords(x, w)
        assert xk.shape == wk.shape == (min(d, 2),)
        assert np.all(xk[1:] == 0.0)
        for got, want in ((xk @ xk, x @ x), (wk @ wk, w @ w), (xk @ wk, x @ w)):
            assert got == pytest.approx(want, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("activation, A", [
        ("sine", 0.0), ("sine", -0.5), ("tanh", 0.0), ("tanh", -0.5),
    ])
    def test_estimates_have_the_law_of_the_d_dimensional_estimator(self, activation, A):
        cfg = ks_config(activation, 16, A)
        x, w = cli._draw_inputs(cfg)
        assert ks_2samp(span_estimates(cfg), direct_estimates(cfg, x, w, 32)).pvalue > KS_ALPHA

    @pytest.mark.parametrize("d", [1, 2])  # k = d: no chi^2 factor
    def test_no_dimension_off_the_span(self, d):
        cfg = ks_config("sine", d, -0.5)
        x, w = cli._draw_inputs(cfg)
        assert ks_2samp(span_estimates(cfg), direct_estimates(cfg, x, w, 33)).pvalue > KS_ALPHA

    def test_weights_parallel_to_the_input(self):
        cfg = ks_config("sine", 16, -0.5)
        x, _ = cli._draw_inputs(cfg)
        w = -1.5 * x
        xk, wk = cli._span_coords(x, w)
        assert abs(wk[1]) <= 1e-15 * abs(wk[0])
        span, = cli._urf_run(cfg, decomposition_for(Activation("sine")), xk, wk, [4])
        assert span.shape == (KS_N,)
        assert ks_2samp(span, direct_estimates(cfg, x, w, 34)).pvalue > KS_ALPHA

    def test_smaller_count_of_a_ladder(self):
        # the 8-feature trials read a prefix of the 32-feature ones
        cfg = replace(ks_config("tanh", 16, -0.5), feature_counts=(8, 32))
        x, w = cli._draw_inputs(cfg)
        smaller = span_estimates(cfg)[:KS_N]
        assert ks_2samp(smaller, direct_estimates(cfg, x, w, 36)).pvalue > KS_ALPHA

    def test_arccos_trial(self):
        cfg = ks_config("arccos", 16)
        x, w = cli._draw_inputs(cfg)
        assert ks_2samp(span_estimates(cfg), direct_estimates(cfg, x, w, 35)).pvalue > KS_ALPHA


def prefix_indices(n, C, M, m):
    """Entries of a flat set of T = n * M features per component that a count
    of m features per component reads, as an (n, C * m) array: instantiation t
    takes the first m of entries t*M to (t+1)*M - 1 of each component's run."""
    T = n * M
    return np.array([[j * T + t * M + i for j in range(C) for i in range(m)]
                     for t in range(n)])


class TestPerCountDraws:
    """Each instantiation owns a run of max(m_c) features per component of
    the one flat draw set of an estimate run, and every feature count reads
    the prefix of m_c of each run."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        """The draw sets that ``cli.sample_draws`` returns, in call order."""
        sets = []

        def recording(*args, **kwargs):
            sets.append(sample_draws(*args, **kwargs))
            return sets[-1]

        monkeypatch.setattr(cli, "sample_draws", recording)
        return sets

    @pytest.mark.parametrize("activation, d, A", [
        ("sine", 16, 0.0),
        ("sine", 16, -0.1),  # the chi^2 factor
        ("sigmoid", 2, -0.1),  # k = d: no chi^2 factor
    ])
    def test_trials_are_rows_of_one_batched_computation(self, drawn, activation, d, A):
        n = 5
        cfg = EstimateConfig(activation=activation, d=d, feature_counts=(24, 12, 36),
                             instantiations=n, A=A, seed=9)
        x, w = cli._draw_inputs(cfg)
        xk, wk = cli._span_coords(x, w)
        dec = decomposition_for(Activation(activation))
        C = len(dec.active())
        ms = [cli._per_component(p, C) for p in cfg.feature_counts]
        M = max(ms)
        T = n * M
        seed = derive_seed(cfg.seed, 401)
        draws = sample_draws(dec, len(xk), UrfConfig(m=T, A=A, seed=seed))
        px = phi(xk, draws).entries
        if A != 0 and d > len(xk):
            chi2 = rng_for(seed, 0, 0, MISC_STREAM).chisquare(d - len(xk), C * T)
            px = px * np.exp(0.5 * (d - len(xk)) * math.log1p(-4.0 * A) + 2.0 * A * chi2)
        pw = psi(wk, cfg.bias, draws).entries
        rows = run_pointwise(cfg).rows
        # the run draws one set of n * max(m_c) features per component, this one
        assert len(drawn) == 1 and drawn[0].config == draws.config
        assert np.array_equal(drawn[0].G, draws.G)
        full = prefix_indices(n, C, M, M)
        # the instantiations' runs tile the set: no entry is owned twice or left out
        assert sorted(full.ravel()) == list(range(C * T))
        for c, m in enumerate(ms):
            idx = prefix_indices(n, C, M, m)
            # the regrouping of the set into instantiation rows reads these entries
            assert np.array_equal(draws.instantiations(np.arange(C * T), n, m), idx)
            want = kernel_estimate(FeatureVector(px[idx]), FeatureVector(pw[idx])) * (T / m)
            got = rows[c * n:(c + 1) * n]
            assert [row[2] for row in got] == [m * C] * n
            assert [row[3] for row in got] == list(range(n))
            assert [row[4] for row in got] == want.tolist()
            assert all(type(row[4]) is float and type(row[6]) is float for row in got)

    def test_arccos_trials_are_rows_of_one_gaussian_stack(self):
        n, ps = 5, (32, 8, 24)
        cfg = EstimateConfig(activation="arccos", d=16, feature_counts=ps,
                             instantiations=n, seed=9)
        x, w = cli._draw_inputs(cfg)
        xk, wk = cli._span_coords(x, w)
        rows = run_pointwise(cfg).rows
        # one (n, max p, k) stack; count p reads the first p Gaussians of each trial
        G = rng_for(derive_seed(cfg.seed, 402), 0, 0, MISC_STREAM).standard_normal(
            (n, max(ps), 2))
        for c, p in enumerate(ps):
            Gc = G[:, :p]
            batched = np.sum(relu_snnk_features(xk, Gc) * relu_snnk_features(wk, Gc), axis=-1)
            per_trial = [float(np.sum(np.maximum(0.0, Gc[t] @ xk) * np.maximum(0.0, Gc[t] @ wk))
                               / p) for t in range(n)]
            got = [row[4] for row in rows[c * n:(c + 1) * n]]
            assert got == batched.tolist()
            np.testing.assert_allclose(got, per_trial, rtol=1e-14, atol=0)
            assert all(type(e) is float for e in got)

    @pytest.mark.parametrize("activation", ["sine", "sigmoid"])
    def test_one_draw_per_run_and_no_shared_gaussian_rows(self, drawn, activation):
        cfg = EstimateConfig(activation=activation, d=16, feature_counts=(6, 24, 96, 48),
                             instantiations=7, seed=3)
        run_pointwise(cfg)
        assert len(drawn) == 1
        draws, = drawn
        C = len(draws.axes)
        ms = [cli._per_component(p, C) for p in cfg.feature_counts]
        assert draws.config.m == cfg.instantiations * max(ms)
        # no two Gaussian rows are equal, so no two instantiations share one
        rows = draws.G.reshape(-1, draws.dim)
        assert len(np.unique(rows, axis=0)) == len(rows) == C * draws.config.m

    def test_one_draw_per_sweep_point(self, drawn):
        base = EstimateConfig(activation="sine", d=16, feature_counts=(8, 32), instantiations=4,
                              seed=3)
        run_sweep("A", [0.0, -0.1, -0.5], base)
        assert [draws.config.A for draws in drawn] == [0.0, -0.1, -0.5]


class TestSweepCommand:
    def test_single_value_sweep_matches_pointwise(self, tmp_path):
        base = dict(ESTIMATE_CFG, feature_counts=[16])
        sweep_cfg = write_json(
            tmp_path / "sweep.json", {"axis": "A", "values": [0.0], "base": base}
        )
        est_cfg = write_json(tmp_path / "est.json", dict(base, A=0.0))
        sweep_out = tmp_path / "sweep.csv"
        est_out = tmp_path / "est.csv"
        assert main(["sweep", "--config", sweep_cfg, "--out", str(sweep_out)]) == 0
        assert main(["estimate", "--config", est_cfg, "--out", str(est_out)]) == 0
        sweep_rows = read_rows(sweep_out)
        est_rows = read_rows(est_out)
        stripped = [r[:1] + [""] + r[2:] for r in sweep_rows[1:]]
        assert stripped == est_rows[1:]

    def test_shape_parameter_sweep_unbiased_with_varying_spread(self, tmp_path):
        cfg = EstimateConfig(
            activation="sine", d=16, feature_counts=(32,), instantiations=300, seed=8
        )
        results = run_sweep("A", [0.0, -0.5], cfg)
        exact = None
        spreads = []
        for _, rep in results:
            ests = np.array([row[4] for row in rep.rows])
            exact = rep.rows[0][5]
            se = ests.std(ddof=1) / math.sqrt(len(ests))
            assert abs(ests.mean() - exact) < 3 * se
            spreads.append(ests.std(ddof=1))
        assert spreads[1] > 2.0 * spreads[0]  # negative A pays in variance

    def test_bad_axis_rejected(self, tmp_path):
        cfg = write_json(
            tmp_path / "sweep.json",
            {"axis": "bogus", "values": [1], "base": ESTIMATE_CFG},
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1

    def test_unknown_base_key_names_its_section(self, tmp_path, capsys):
        payload = {"axis": "A", "values": [0.0], "base": dict(ESTIMATE_CFG, seeds=2)}
        cfg = write_json(tmp_path / "sweep.json", payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == "error: base.seeds: unknown key\n"

    @pytest.mark.parametrize("values, message", [
        (5, "values: expected a list, got 5"),
        ("iid", "values: expected a list, got 'iid'"),
    ])
    def test_values_must_be_a_list(self, tmp_path, capsys, values, message):
        cfg = write_json(tmp_path / "sweep.json",
                         {"axis": "A", "values": values, "base": ESTIMATE_CFG})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("axis, value", [("A", "x")])
    def test_malformed_value_names_its_key(self, tmp_path, capsys, axis, value):
        cfg = write_json(tmp_path / "sweep.json",
                         {"axis": axis, "values": [value], "base": ESTIMATE_CFG})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: values: {value!r} is not a valid {axis} value\n"
        )

    def test_missing_axis_names_its_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sweep.json", {"values": [1], "base": ESTIMATE_CFG})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == "error: axis: missing required key\n"

    @pytest.mark.parametrize("payload, message", [
        ({"axis": "A", "values": [0.0], "base": dict(ESTIMATE_CFG, strategy="block")},
         "base.strategy: must be 'iid', got 'block'"),
        ({"axis": "A", "values": [0.0], "base": dict(ESTIMATE_CFG, block_size=3)},
         "base.block_size: must be 0, got 3"),
        ({"axis": "A", "values": [0.0, 0.5], "base": ESTIMATE_CFG},
         "values: 0.5 is not a valid A value: A: must be finite and <= 0, got 0.5"),
        ({"axis": "bogus", "values": [1], "base": ESTIMATE_CFG},
         "axis: expected one of ('A', 'activation'), got 'bogus'"),
        ({"axis": "strategy", "values": ["iid", "block:4"], "base": ESTIMATE_CFG},
         "axis: expected one of ('A', 'activation'), got 'strategy'"),
        ({"axis": "A", "values": [], "base": ESTIMATE_CFG},
         "values: expected at least one value, got []"),
        ({"axis": "A", "values": [0.0], "base": dict(ESTIMATE_CFG, feature_counts=[])},
         "base.feature_counts: must be a nonempty list of counts >= 1, got []"),
        ({"axis": "A", "values": [0.0], "base": dict(ESTIMATE_CFG, d=0)},
         "base.d: must be >= 1, got 0"),
    ], ids=["base-strategy", "base-block_size", "values-A", "axis", "axis-strategy", "no-values",
            "base-feature_counts", "base-d"])
    def test_sampling_keys_checked_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                  payload, message):
        def no_run(cfg):
            raise AssertionError("a sweep point ran before every value was checked")

        monkeypatch.setattr(cli, "run_pointwise", no_run)
        cfg = write_json(tmp_path / "sweep.json", payload)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", [
        ({"axis": "activation", "values": ["sine", "sinee"], "base": ESTIMATE_CFG},
         "values: 'sinee' is not a valid activation value"),
        ({"axis": "A", "values": [0.0], "base": dict(ESTIMATE_CFG, activation="sinee")},
         "base.activation: expected an activation kind or 'arccos', got 'sinee'"),
    ], ids=["values", "base"])
    def test_unknown_activation_names_its_key_before_any_run(self, tmp_path, capsys,
                                                             monkeypatch, payload, message):
        def no_run(cfg):
            raise AssertionError("a sweep point ran before every value was checked")

        monkeypatch.setattr(cli, "run_pointwise", no_run)
        cfg = write_json(tmp_path / "sweep.json", payload)
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestFtTableCommand:
    def test_default_table(self, tmp_path):
        out = run_twice_and_compare(["ft-table"], tmp_path, "ft")
        rows = read_rows(out)
        assert rows[0] == [
            "activation", "xi", "re", "im",
            "re_plus", "re_minus", "im_plus", "im_minus",
        ]
        sine_rows = [r for r in rows[1:] if r[0] == "sine"]
        assert len(sine_rows) == 2
        xi0 = 1.0 / (2 * math.pi)
        by_xi = {float(r[1]): r for r in sine_rows}
        assert float(by_xi[-xi0][6]) == 0.5  # im_plus carries the negative atom
        assert float(by_xi[xi0][7]) == 0.5

    def test_activation_selection(self, tmp_path):
        cfg = write_json(tmp_path / "ft.json", {"activations": ["cosine"]})
        out = tmp_path / "ft.csv"
        assert main(["ft-table", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert {r[0] for r in rows[1:]} == {"cosine"}

    @pytest.mark.parametrize("kind", ["tanh", "gelu"])
    def test_density_rows_equal_a_per_xi_reference(self, tmp_path, kind):
        cfg = write_json(tmp_path / "ft.json", {"activations": [kind]})
        out = tmp_path / "ft.csv"
        assert main(["ft-table", "--config", cfg, "--out", str(out)]) == 0
        dec = decomposition_for(Activation(kind))
        union = np.unique(np.concatenate([c.grid for c in dec.components if not c.is_atomic]))
        want = []
        for xi in union:  # no atoms: every row is a density row
            rp, rm, ip, im = (0.0 if c.is_atomic else float(c.density([xi])[0])
                              for c in dec.components)
            want.append([kind] + [repr(v) for v in (float(xi), rp - rm, ip - im, rp, rm, ip, im)])
        assert read_rows(out)[1:] == want

    def test_activations_must_be_a_list(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "ft.json", {"activations": "sine"})
        out = tmp_path / "ft.csv"
        assert main(["ft-table", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: activations: expected a list, got 'sine'\n"
        assert not out.exists()

    def test_unknown_activation_names_its_key_before_any_table(self, tmp_path, capsys,
                                                               monkeypatch):
        def no_table(a):
            raise AssertionError("a table was built before every name was checked")

        monkeypatch.setattr(cli, "decomposition_for", no_table)
        cfg = write_json(tmp_path / "ft.json", {"activations": ["sine", "sinee"]})
        out = tmp_path / "ft.csv"
        assert main(["ft-table", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: activations[1]: expected an activation kind, got 'sinee'\n"
        )
        assert not out.exists()


BUNDLE_CFG = {
    "input_dim": 3,
    "layers": [
        {"out_dim": 4, "activation": "sine"},
        {"out_dim": 2, "activation": "sine"},
    ],
    "seed": 11,
    "init_std": 0.8,
    "urf": {"m": 64, "A": 0.0},
    "probes": 6,
}


class TestBundleCommand:
    def test_report_and_artifact(self, tmp_path):
        cfg = write_json(tmp_path / "bundle.json", BUNDLE_CFG)
        out = run_twice_and_compare(["bundle", "--config", cfg], tmp_path, "bundle")
        rows = read_rows(out)
        assert rows[0][0] == "layer_count_before"
        record = rows[1]
        assert record[0] == "2" and record[1] == "0"
        assert int(record[2]) == 4 * 3 + 4 + 2 * 4 + 2
        artifact = json.loads((tmp_path / "bundle_t1.csv.artifact.json").read_text())
        W_re = np.array(artifact["W_bar"]["re"])
        assert W_re.shape == (2, artifact["stage_feature_counts"][-1])

    def test_missing_config_fails(self, tmp_path):
        assert main(["bundle", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o.csv")]) == 1

    def test_missing_out_dim_names_its_key(self, tmp_path, capsys):
        payload = dict(BUNDLE_CFG, layers=[BUNDLE_CFG["layers"][0], {"activation": "sine"}])
        cfg = write_json(tmp_path / "bundle.json", payload)
        assert main(["bundle", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == "error: layers[1].out_dim: missing required key\n"

    def test_unknown_urf_key_names_its_section(self, tmp_path, capsys):
        payload = dict(BUNDLE_CFG, urf={"m": 64, "shape": -0.1})
        cfg = write_json(tmp_path / "bundle.json", payload)
        out = tmp_path / "o.csv"
        assert main(["bundle", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: urf.shape: unknown key\n"
        assert not out.exists()

    def test_malformed_urf_value_names_its_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bundle.json", dict(BUNDLE_CFG, urf={"m": "many"}))
        assert main(["bundle", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == "error: urf.m: expected an integer, got 'many'\n"

    def test_unknown_layer_key_names_its_index(self, tmp_path, capsys):
        layers = [BUNDLE_CFG["layers"][0], {"out_dim": 2, "activaton": "sine"}]
        cfg = write_json(tmp_path / "bundle.json", dict(BUNDLE_CFG, layers=layers))
        assert main(["bundle", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == "error: layers[1].activaton: unknown key\n"

    def test_unknown_activation_names_its_key(self, tmp_path, capsys):
        layers = [BUNDLE_CFG["layers"][0], {"out_dim": 2, "activation": "sinee"}]
        cfg = write_json(tmp_path / "bundle.json", dict(BUNDLE_CFG, layers=layers))
        out = tmp_path / "b.csv"
        assert main(["bundle", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: layers[1].activation: expected an activation kind, got 'sinee'\n"
        )
        assert not out.exists()

    def test_weights_without_biases_name_the_key(self, tmp_path, capsys):
        payload = dict(BUNDLE_CFG, weights=[np.ones((4, 3)).tolist(), np.ones((2, 4)).tolist()])
        cfg = write_json(tmp_path / "bundle.json", payload)
        assert main(["bundle", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: biases: ")

    def test_too_few_weights_name_the_key(self, tmp_path, capsys):
        payload = dict(BUNDLE_CFG, weights=[np.ones((4, 3)).tolist()],
                       biases=[np.zeros(4).tolist(), np.zeros(2).tolist()])
        cfg = write_json(tmp_path / "bundle.json", payload)
        assert main(["bundle", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: weights: need one entry per layer")

    def test_weights_of_the_wrong_shape_name_the_key(self, tmp_path, capsys):
        # a 3-3-2 net that fits together, where layers[0].out_dim asks for 4 rows
        payload = dict(BUNDLE_CFG, weights=[np.ones((3, 3)).tolist(), np.ones((2, 3)).tolist()],
                       biases=[np.zeros(3).tolist(), np.zeros(2).tolist()])
        cfg = write_json(tmp_path / "bundle.json", payload)
        out = tmp_path / "o.csv"
        assert main(["bundle", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: weights[0]: expected shape (4, 3), got (3, 3)\n"
        assert not out.exists()
        assert not (tmp_path / "o.csv.artifact.json").exists()

    def test_malformed_seed_names_its_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bundle.json", dict(BUNDLE_CFG, seed="eleven"))
        out = tmp_path / "o.csv"
        assert main(["bundle", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed: expected an integer, got 'eleven'\n"
        assert not out.exists()

    @pytest.mark.parametrize("urf, message", [
        ({"m": 0}, "urf.m: must be >= 1, got 0"),
        ({"A": 0.5}, "urf.A: must be finite and <= 0, got 0.5"),
    ], ids=["m", "A"])
    def test_sampling_key_names_its_section(self, tmp_path, capsys, monkeypatch, urf, message):
        def no_network(*args, **kwargs):
            raise AssertionError("the network was built before the config was checked")

        monkeypatch.setattr(cli, "network", no_network)
        cfg = write_json(tmp_path / "bundle.json", dict(BUNDLE_CFG, urf=urf))
        out = tmp_path / "o.csv"
        assert main(["bundle", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"input_dim": 0}, "input_dim: must be >= 1, got 0"),
        ({"layers": [{"out_dim": 0, "activation": "sine"}, {"out_dim": 2, "activation": "sine"}]},
         "layers[0].out_dim: must be >= 1, got 0"),
        ({"layers": [{"out_dim": 4, "activation": "sine"}, {"out_dim": 0, "activation": "sine"}]},
         "layers[1].out_dim: must be >= 1, got 0"),
        ({"layers": [{"out_dim": 0, "activation": "sine"}]},
         "layers[0].out_dim: must be >= 1, got 0"),
        ({"probes": 0}, "probes: must be >= 1, got 0"),
        ({"init_std": math.nan}, "init_std: must be finite, got nan"),
        ({"init_std": math.inf}, "init_std: must be finite, got inf"),
    ], ids=["input_dim", "first-out_dim", "last-out_dim", "single-out_dim", "probes",
            "init_std-nan", "init_std-inf"])
    def test_bad_size_names_its_key_before_the_network_is_built(
            self, tmp_path, capsys, monkeypatch, change, message):
        def no_network(*args, **kwargs):
            raise AssertionError("the network was built before the config was checked")

        monkeypatch.setattr(cli, "network", no_network)
        cfg = write_json(tmp_path / "bundle.json", dict(BUNDLE_CFG, **change))
        out = tmp_path / "o.csv"
        assert main(["bundle", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_no_layers_names_the_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bundle.json", dict(BUNDLE_CFG, layers=[]))
        out = tmp_path / "o.csv"
        assert main(["bundle", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: layers: expected at least one layer, got []\n"
        assert not out.exists()

    @pytest.mark.parametrize("layers", [5, {"out_dim": 2, "activation": "sine"}])
    def test_layers_must_be_a_list(self, tmp_path, capsys, layers):
        cfg = write_json(tmp_path / "bundle.json", dict(BUNDLE_CFG, layers=layers))
        out = tmp_path / "o.csv"
        assert main(["bundle", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: layers: expected a list, got {layers!r}\n"
        assert not out.exists()

    def test_non_finite_w_bar_fails_cleanly(self, tmp_path, capsys):
        payload = dict(
            BUNDLE_CFG, input_dim=64, seed=4, urf={"m": 128}, probes=4,
            layers=[{"out_dim": n, "activation": "tanh"} for n in (256, 256, 10)],
        )
        cfg = write_json(tmp_path / "bundle.json", payload)
        out = tmp_path / "o.csv"
        assert main(["bundle", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: bundling stage 2: 2560 of 2560 entries of W_bar are non-finite\n"
        )
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's overflow warnings stay off
    @pytest.mark.parametrize("kind", ["sine", "gelu"])
    def test_non_finite_probe_outputs_fail_cleanly(self, tmp_path, capsys, kind):
        # W_bar is finite, but the chained features of the probes overflow
        payload = dict(
            BUNDLE_CFG, input_dim=64, seed=1, init_std=0.8, urf={"m": 128, "A": 0.0}, probes=16,
            layers=[{"out_dim": n, "activation": kind} for n in (256, 256, 10)],
        )
        cfg = write_json(tmp_path / "bundle.json", payload)
        out = tmp_path / "o.csv"
        assert main(["bundle", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: probe_mae: [1-9]\d* of 160 bundled probe outputs are "
                            r"non-finite\n", err), err
        assert not out.exists()
        assert not (tmp_path / "o.csv.artifact.json").exists()


TRAIN_CFG = {
    "seed": 3,
    "data": {"n": 300, "d": 6, "k": 3, "separation": 8.0, "validation_frac": 0.25},
    "layer": {"kind": "relu", "features": 32, "out_dim": 16},
    "train": {"learning_rate": 0.05, "epochs": 8, "batch_size": 32,
              "loss": "cross_entropy"},
}


class TestTrainCommand:
    def test_history_schema_and_learning(self, tmp_path):
        cfg = write_json(tmp_path / "train.json", TRAIN_CFG)
        out = run_twice_and_compare(["train", "--config", cfg], tmp_path, "train")
        rows = read_rows(out)
        assert rows[0] == ["epoch", "split", "loss", "accuracy"]
        val = [r for r in rows[1:] if r[1] == "validation"]
        assert float(val[-1][3]) >= 0.95
        losses = [float(r[2]) for r in rows[1:] if r[1] == "train"]
        assert losses[-1] < losses[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_fails_cleanly(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "train.json",
            dict(TRAIN_CFG, train=dict(TRAIN_CFG["train"], learning_rate=1e200)),
        )
        out = tmp_path / "t.csv"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: loss ")
        assert not out.exists()

    def test_malformed_value_names_its_key(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "train.json",
            dict(TRAIN_CFG, train=dict(TRAIN_CFG["train"], epochs="many")),
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: train.epochs: expected an integer, got 'many'\n"
        )

    def test_malformed_seed_names_its_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "train.json", dict(TRAIN_CFG, seed="eleven"))
        out = tmp_path / "t.csv"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed: expected an integer, got 'eleven'\n"
        assert not out.exists()

    def test_fractional_integer_names_its_key(self, tmp_path, capsys):
        payload = dict(TRAIN_CFG, data=dict(TRAIN_CFG["data"], d=6.5))
        cfg = write_json(tmp_path / "train.json", payload)
        out = tmp_path / "t.csv"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: data.d: expected an integer, got 6.5\n"
        assert not out.exists()

    def test_every_section_is_read_before_the_data_is_built(self, tmp_path, capsys,
                                                            monkeypatch):
        def no_blobs(**kwargs):
            raise AssertionError("blobs built before the config was read")

        monkeypatch.setattr(cli, "generate_blobs", no_blobs)
        cfg = write_json(
            tmp_path / "train.json",
            dict(TRAIN_CFG, train=dict(TRAIN_CFG["train"], epochs="many")),
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: train.epochs: expected an integer, got 'many'\n"
        )

    @pytest.mark.parametrize("section, change, message", [
        ("train", {"epochs": -1}, "train.epochs: must be >= 0, got -1"),
        ("train", {"batch_size": 0}, "train.batch_size: must be >= 1, got 0"),
        ("data", {"validation_frac": 1.0},
         "data.validation_frac: must leave at least one of the 300 rows in each split, got 1.0"),
        ("data", {"validation_frac": 0.0},
         "data.validation_frac: must leave at least one of the 300 rows in each split, got 0.0"),
        ("layer", {"kind": "urf", "activation": "sine", "m": 0, "features": None},
         "layer.m: must be >= 1, got 0"),
        ("layer", {"kind": "urf", "activation": "sine", "A": 0.5, "features": None},
         "layer.A: must be finite and <= 0, got 0.5"),
        ("data", {"d": 0}, "data.d: must be >= 1, got 0"),
        ("data", {"k": 1}, "data.k: must be >= 2, got 1"),
        ("data", {"separation": 0.0}, "data.separation: must be finite and > 0, got 0.0"),
        ("data", {"separation": math.inf}, "data.separation: must be finite and > 0, got inf"),
        ("data", {"n": 0}, "data.n: must be >= 1, got 0"),
        ("data", {"n": -3}, "data.n: must be >= 1, got -3"),
        ("layer", {"out_dim": 0}, "layer.out_dim: must be >= 1, got 0"),
        ("layer", {"features": 0}, "layer.features: must be >= 1, got 0"),
        ("train", {"batch_size": 226},
         "train.batch_size: must be <= the 225 training rows, got 226"),
        ("train", {"loss": "mse"}, "train.loss: 'mse' needs real targets and the blobs have class "
                                   "labels; use 'cross_entropy'"),
        ("train", {"momentum": 0.9}, "train.momentum: unknown key"),
        ("train", {"l2": 1e-3}, "train.l2: unknown key"),
        ("train", {"learning_rate": math.inf},
         "train.learning_rate: must be finite and > 0, got inf"),
        ("layer", {"m": 0, "A": 0.5, "activation": "tanh"},
         "layer.m: only a urf layer reads this key, and layer.kind is 'relu'"),
        ("layer", {"A": -0.1}, "layer.A: only a urf layer reads this key, and layer.kind is 'relu'"),
        ("layer", {"activation": "tanh"},
         "layer.activation: only a urf layer reads this key, and layer.kind is 'relu'"),
        ("layer", {"kind": "urf", "activation": "sine", "features": 32},
         "layer.features: only a relu layer reads this key, and layer.kind is 'urf'"),
    ], ids=["epochs", "batch_size", "validation_frac-1", "validation_frac-0", "m", "A", "d", "k",
            "separation", "separation-inf", "n-zero", "n-negative", "out_dim", "features",
            "batch_size-rows", "mse", "momentum", "l2", "learning_rate", "relu-urf-keys", "relu-A",
            "relu-activation", "urf-features"])
    def test_bad_value_names_its_key_before_the_data_is_built(
            self, tmp_path, capsys, monkeypatch, section, change, message):
        def no_blobs(**kwargs):
            raise AssertionError("blobs built before the config was checked")

        monkeypatch.setattr(cli, "generate_blobs", no_blobs)
        # a key changed to None is dropped: the urf rows leave out the relu layer's features
        changed = {key: value for key, value in dict(TRAIN_CFG[section], **change).items()
                   if value is not None}
        cfg = write_json(tmp_path / "train.json", dict(TRAIN_CFG, **{section: changed}))
        out = tmp_path / "t.csv"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_missing_required_key_names_it(self, tmp_path, capsys):
        data = {k: v for k, v in TRAIN_CFG["data"].items() if k != "n"}
        cfg = write_json(tmp_path / "train.json", dict(TRAIN_CFG, data=data))
        out = tmp_path / "t.csv"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: data.n: missing required key\n"
        assert not out.exists()

    def test_unknown_layer_key_names_its_section(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "train.json",
            dict(TRAIN_CFG, layer=dict(TRAIN_CFG["layer"], feature=64)),
        )
        out = tmp_path / "t.csv"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: layer.feature: unknown key\n"
        assert not out.exists()

    def test_unknown_layer_kind_fails_cleanly(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "train.json",
            dict(TRAIN_CFG, layer=dict(TRAIN_CFG["layer"], kind="rleu")),
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: layer.kind: expected 'relu' or 'urf', got 'rleu'\n"
        )

    def test_unknown_activation_names_its_key(self, tmp_path, capsys, monkeypatch):
        def no_blobs(**kwargs):
            raise AssertionError("blobs built before the config was read")

        monkeypatch.setattr(cli, "generate_blobs", no_blobs)
        cfg = write_json(tmp_path / "train.json",
                         dict(TRAIN_CFG, layer={"kind": "urf", "activation": "sinee"}))
        out = tmp_path / "t.csv"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: layer.activation: expected an activation kind, got 'sinee'\n"
        )
        assert not out.exists()

    def test_non_object_section_fails_cleanly(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "train.json", dict(TRAIN_CFG, train=[0.05]))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 1
        assert capsys.readouterr().err == "error: train: expected an object, got [0.05]\n"

    def test_urf_layer_variant(self, tmp_path):
        cfg_payload = dict(
            TRAIN_CFG,
            layer={"kind": "urf", "activation": "sine", "m": 8, "out_dim": 8},
        )
        cfg = write_json(tmp_path / "train.json", cfg_payload)
        out = tmp_path / "t.csv"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)
        losses = [float(r[2]) for r in rows[1:] if r[1] == "train"]
        assert all(math.isfinite(v) for v in losses)
        assert losses[-1] < losses[0]
