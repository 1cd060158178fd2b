import csv
import json
import math

import numpy as np
import pytest

from snnk.cli import (
    ESTIMATE_HEADER,
    EstimateConfig,
    main,
    run_pointwise,
    run_sweep,
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

    def test_achieved_feature_count_reported(self):
        report = run_pointwise(
            EstimateConfig(
                activation="sine", d=8, feature_counts=(9,), instantiations=4, seed=3
            )
        )
        # two active components: nearest achievable length is 8
        assert report.aggregates[0][0] == 8


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

    def test_strategy_sweep_means_agree(self, tmp_path):
        report = run_sweep(
            "strategy",
            ["iid", "block:4"],
            EstimateConfig(
                activation="sine", d=16, feature_counts=(32,),
                instantiations=200, seed=7,
            ),
        )
        (_, iid), (_, blk) = report
        m_iid, s_iid = iid.aggregates[0][1], iid.aggregates[0][2] / math.sqrt(200)
        m_blk, s_blk = blk.aggregates[0][1], blk.aggregates[0][2] / math.sqrt(200)
        assert abs(m_iid - m_blk) < 3 * math.hypot(s_iid, s_blk)

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

    def test_missing_axis_names_its_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sweep.json", {"values": [1], "base": ESTIMATE_CFG})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == "error: axis: missing required key\n"


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
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

    def test_missing_required_key_names_it(self, tmp_path, capsys):
        data = {k: v for k, v in TRAIN_CFG["data"].items() if k != "n"}
        cfg = write_json(tmp_path / "train.json", dict(TRAIN_CFG, data=data))
        out = tmp_path / "t.csv"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: data.n: missing required key\n"
        assert not out.exists()

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
