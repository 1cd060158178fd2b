"""The benchmark's three workloads.

Each workload runs in rounds.  A round is the unit of work the per-layer
metrics are divided by: one ``run_pointwise`` call (estimate-mc), one build
of two layers and a bundle followed by a block of probes (layer-serve), or
one ``fit_A`` call (train-fit).  Where a workload has two arms that
alternate by round (sine/tanh, gelu/relu), the runner stops only after
whole pairs, so both arms get the same number of rounds.

Every input (configs, weights, probes, seeds) is generated here from the
run's seed with numpy; the package receives only those inputs.  Shapes
follow the ``configs/`` examples and ROADMAP's 64-256-256-10 net; the counts
that only set run length (instantiations, probes per round) are the
benchmark's own and live in ``DEFAULT_PARAMS``.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np
from scipy.special import stdtrit

from snnk import bundling, cli, layers, train
from snnk.activations import Activation, decomposition_for
from snnk.urf import UrfConfig

DEFAULT_PARAMS = {
    "estimate-mc": {"instantiations": 5},
    "layer-serve": {"probes": 400},
    "train-fit": {},
}

# false-alarm odds of the sine unbiasedness check, per feature count: the
# pooled mean deviation fails beyond the matching Student-t quantile
UNBIASED_ALPHA = 1e-5
# bundle_full and the bundle_once chain do the same arithmetic in the same
# order; acceptance criterion 5 holds them to this gap
BUNDLE_CHAIN_TOL = 1e-12
# snnk_forward against the rows of snnk_forward_many: the two sum the same
# terms in different orders, so the gap is measured against sum |A_ij phi_j|
# (measured up to 5e-15 of it; 3e-12 absolute on a tanh output of 1e3)
ROW_BATCH_TOL = 1e-12


def rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def subseed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1, dtype=np.uint64)[0])


def all_finite(a) -> bool:
    return bool(np.all(np.isfinite(a)))


class Tally:
    """Operations and checks attempted, and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)


class Workload:
    name = ""
    activations: tuple[str, ...] = ()
    arms: tuple[str, str] = ("", "")
    group = 1  # rounds per complete group (2 when arms alternate)

    def __init__(self, seed: int, params: dict):
        self.seed = seed
        self.params = dict(params)
        self.samples = {arm: [] for arm in self.arms}  # microseconds per op
        self.log: list[tuple[float, float]] = []  # (ops, busy seconds) per round
        self.quiet = contextlib.nullcontext  # the tracer pauses spans with this
        self.decomposition_s = 0.0

    def setup(self) -> None:
        """Transforms for the workload's activations, then round 0's inputs."""
        t0 = time.perf_counter()
        for kind in self.activations:
            decomposition_for(Activation(kind))
        self.decomposition_s = time.perf_counter() - t0
        self.prepare()

    def prepare(self) -> None:
        pass

    def round(self, k: int, tally: Tally) -> None:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Checks over the whole run."""

    def ops_per_s(self) -> float:
        return throughput(self.log)

    def named(self) -> dict[str, tuple[float, str]]:
        """The workload's metrics under their descriptive names, with units."""
        raise NotImplementedError

    def per_layer_given(self) -> dict[str, float]:
        return {"train.sgd_steps": 0.0}


def throughput(log) -> float:
    """Operations per busy second over (ops, busy seconds) log entries."""
    busy = sum(t for _, t in log)
    return sum(n for n, _ in log) / busy if busy > 0 else 0.0


def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else float("nan")


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else float("nan")


# ---------------------------------------------------------------------------


class EstimateMC(Workload):
    """Monte Carlo estimator study through ``cli.run_pointwise``.

    Every trial draws fresh frequencies and Gaussians, so urf sampling
    dominates.  ``sine`` has exact atoms and ``tanh`` the grid-proposal
    density, so both sampling branches run.  Each round uses a new config
    seed, hence a new (x, w) pair.
    """

    name = "estimate-mc"
    activations = ("sine", "tanh")
    arms = ("sine", "tanh")
    group = 2
    LADDER = (8, 16, 32, 64, 128, 256, 512)  # configs/estimate.json
    D = 200
    BIAS = 0.5

    def __init__(self, seed, params):
        super().__init__(seed, params)
        self.rel_err = {arm: [] for arm in self.arms}
        self.sine_dev: dict[int, list[float]] = {}

    def config(self, k: int) -> cli.EstimateConfig:
        return cli.EstimateConfig(
            activation=self.arms[k % 2],
            d=self.D,
            l=1,
            bias=self.BIAS,
            feature_counts=self.LADDER,
            instantiations=self.params["instantiations"],
            A=0.0,
            strategy="iid",
            block_size=0,
            seed=subseed(self.seed, k),
        )

    def round(self, k, tally):
        cfg = self.config(k)
        arm = cfg.activation
        t0 = time.perf_counter()
        report = cli.run_pointwise(cfg, threads=1)
        busy = time.perf_counter() - t0
        rows = report.rows
        tally.record(
            len(rows) == len(self.LADDER) * cfg.instantiations,
            f"round {k}: {len(rows)} trial rows",
        )
        top = max(row[2] for row in rows)
        for _, _, p, trial, est, exact, rel in rows:
            tally.record(
                math.isfinite(est) and math.isfinite(rel),
                f"round {k}: non-finite {arm} estimate at p={p}, trial {trial}",
            )
            if p == top:
                self.rel_err[arm].append(rel)
            if arm == "sine":
                self.sine_dev.setdefault(p, []).append(est - exact)
        self.samples[arm].append(busy / len(rows) * 1e6)
        self.log.append((len(rows), busy))

    def finish(self, tally):
        for p, devs in sorted(self.sine_dev.items()):
            d = np.asarray(devs)
            se = d.std(ddof=1) / math.sqrt(len(d)) if len(d) > 1 else float("nan")
            z = abs(d.mean()) / se if se > 0 else float("inf")
            limit = float(stdtrit(max(1, len(d) - 1), 1.0 - UNBIASED_ALPHA / 2))
            tally.record(
                bool(z <= limit),
                f"sine mean estimate at p={p} is {z:.2f} standard errors from exact "
                f"(limit {limit:.2f} for {len(d)} trials)",
            )

    def named(self):
        return {
            "estimates_per_s": (self.ops_per_s(), "1/s"),
            "rel_err.sine": (_mean(self.rel_err["sine"]), "ratio"),
            "rel_err.tanh": (_mean(self.rel_err["tanh"]), "ratio"),
        }


class LayerServe(Workload):
    """Build two layers and one bundle, then serve probes one at a time.

    One draw set per build and many single-vector feature evaluations: the
    urf feature kernel, the per-row loop in ``snnk_forward`` and the
    ``W_bar`` apply dominate.  Probe entries are Uniform(-1, 1)/sqrt(d), the
    |x| of order one regime.
    """

    name = "layer-serve"
    activations = ("sine", "tanh")
    arms = ("layer", "bundle")
    D_IN = 64
    WIDTH = 256
    NET = (64, 256, 256, 10)
    INIT_STD = 0.8
    LAYER_M = 256
    BUNDLE_M = 128

    def __init__(self, seed, params):
        super().__init__(seed, params)
        self.build_s: list[float] = []
        self.layer_err: list[float] = []
        self.bundle_err: list[float] = []
        self._round0 = None

    def inputs(self, k: int):
        r = rng(self.seed, k)

        def dense(d_in, d_out):
            W = self.INIT_STD / math.sqrt(d_in) * r.standard_normal((d_out, d_in))
            return W, self.INIT_STD * r.standard_normal(d_out)

        specs = {}
        for kind in self.activations:
            W, b = dense(self.D_IN, self.WIDTH)
            specs[kind] = layers.FflSpec(W=W, b=b, activation=Activation(kind))
        Ws, bs = zip(*(dense(i, o) for i, o in zip(self.NET[:-1], self.NET[1:])))
        net = bundling.network(
            list(self.NET), [Activation("sine")] * (len(self.NET) - 1),
            weights=Ws, biases=bs,
        )
        probes = r.uniform(-1.0, 1.0, (self.params["probes"], self.D_IN)) / math.sqrt(self.D_IN)
        seeds = [int(s) for s in r.integers(0, 2**63, size=len(specs) + 1)]
        return specs, net, probes, seeds

    def prepare(self):
        self._round0 = self.inputs(0)

    def round(self, k, tally):
        if k == 0 and self._round0 is not None:
            specs, net, probes, seeds = self._round0
            self._round0 = None
        else:
            specs, net, probes, seeds = self.inputs(k)
        bundle_cfg = UrfConfig(m=self.BUNDLE_M, A=0.0, seed=seeds[-1])

        t0 = time.perf_counter()
        snnks = {
            kind: layers.snnk_from_ffl(spec, UrfConfig(m=self.LAYER_M, A=0.0, seed=seed))
            for (kind, spec), seed in zip(specs.items(), seeds)
        }
        bundled = bundling.bundle_full(net, bundle_cfg)
        self.build_s.append(time.perf_counter() - t0)

        with self.quiet():
            chain = net
            while not isinstance(chain, bundling.BundledNetwork):
                chain = bundling.bundle_once(chain, bundle_cfg)
            gap = float(np.max(np.abs(chain.W_bar - bundled.W_bar)))
        scale = max(1.0, float(np.max(np.abs(bundled.W_bar))))
        tally.record(
            gap <= BUNDLE_CHAIN_TOL * scale,
            f"round {k}: bundle_full differs from the bundle_once chain by {gap:.3e}",
        )

        outputs = {kind: [] for kind in snnks}
        layer_us = self.samples["layer"]
        bundle_us = self.samples["bundle"]
        busy = 0.0
        for i, x in enumerate(probes):
            ok = True
            for kind, layer in snnks.items():
                t0 = time.perf_counter()
                y = layers.snnk_forward(x, layer)
                dt = time.perf_counter() - t0
                busy += dt
                layer_us.append(dt * 1e6)
                ok &= y.shape == (self.WIDTH,) and all_finite(y)
                self.layer_err.append(float(np.mean(np.abs(y - layers.ffl_forward(x, specs[kind])))))
                outputs[kind].append(y)
            t0 = time.perf_counter()
            y = bundling.bundled_forward(x, bundled)
            dt = time.perf_counter() - t0
            busy += dt
            bundle_us.append(dt * 1e6)
            ok &= y.shape == (self.NET[-1],) and all_finite(y)
            self.bundle_err.append(float(np.mean(np.abs(y - bundling.network_forward(x, net)))))
            tally.record(ok, f"round {k}: non-finite or misshapen output for probe {i}")
        self.log.append((len(probes), busy))

        with self.quiet():
            for kind, layer in snnks.items():
                many = layers.snnk_forward_many(probes, layer)
                feats = layer.feature_map.features_many(probes)
                terms = np.abs(feats) @ np.abs(layer.A).T
                gap = float(np.max(np.abs(many - np.asarray(outputs[kind])) / terms))
                tally.record(
                    gap <= ROW_BATCH_TOL,
                    f"round {k}: {kind} snnk_forward differs from snnk_forward_many "
                    f"by {gap:.3e} of the summed term magnitudes",
                )

    def named(self):
        return {
            "build_s": (_quantile(self.build_s, 0.5), "s"),
            "layer_fwd_p50_us": (_quantile(self.samples["layer"], 0.5), "us"),
            "layer_fwd_p99_us": (_quantile(self.samples["layer"], 0.99), "us"),
            "bundle_fwd_p50_us": (_quantile(self.samples["bundle"], 0.5), "us"),
            "bundle_fwd_p99_us": (_quantile(self.samples["bundle"], 0.99), "us"),
            "layer_mae": (_mean(self.layer_err), "abs"),
            "bundle_mae": (_mean(self.bundle_err), "abs"),
        }


class TrainFit(Workload):
    """Train feature-weight layers on Gaussian blobs with ``fit_A``.

    Rounds alternate a gelu urf layer (numeric transform: the only workload
    where ``decomposition_for`` is heavy, inside set-up) and a relu layer.
    Each gelu/relu pair shares one freshly generated data set.
    """

    name = "train-fit"
    activations = ("gelu",)
    arms = ("gelu", "relu")
    group = 2
    BLOBS = {"n": 4000, "d": 16, "k": 4, "separation": 8.0}
    VALIDATION = 0.25
    OUT_DIM = 16  # configs/train.json
    GELU_M = 64
    RELU_FEATURES = 256
    EPOCHS = 20
    BATCH = 32

    def __init__(self, seed, params):
        super().__init__(seed, params)
        self.val_loss = {arm: [] for arm in self.arms}
        self._data = None
        self.steps_per_fit = 0

    def data(self, pair: int):
        if self._data is None or self._data[0] != pair:
            full = train.generate_blobs(**self.BLOBS, seed=subseed(self.seed, pair, 0))
            tr, va = train.split_dataset(full, self.VALIDATION, seed=subseed(self.seed, pair, 1))
            self._data = (pair, tr, va)
        return self._data[1], self._data[2]

    def prepare(self):
        self.data(0)

    def round(self, k, tally):
        arm = self.arms[k % 2]
        tr, va = self.data(k // 2)
        d = self.BLOBS["d"]
        if arm == "gelu":
            # trig-type feature magnitudes grow like exp(|x|^2 / 2), so inputs
            # go into the unit ball first, as the train subcommand does
            scale = float(np.max(np.linalg.norm(tr.X, axis=1)))
            tr = train.Dataset(X=tr.X / scale, Y=tr.Y, split="train")
            va = train.Dataset(X=va.X / scale, Y=va.Y, split="validation")
            fmap = layers.urf_feature_map(
                Activation("gelu"), d, UrfConfig(m=self.GELU_M, A=0.0, seed=subseed(self.seed, k, 0))
            )
        else:
            fmap = layers.relu_feature_map(d, self.RELU_FEATURES, seed=subseed(self.seed, k, 0))
        layer = train.make_learnable_layer(fmap, self.OUT_DIM, seed=subseed(self.seed, k, 1))
        head = train.make_head(self.BLOBS["k"], self.OUT_DIM, seed=subseed(self.seed, k, 2))
        cfg = train.TrainConfig(
            learning_rate=0.05, epochs=self.EPOCHS, batch_size=self.BATCH,
            loss="cross_entropy", seed=subseed(self.seed, k, 3),
        )
        self.steps_per_fit = cfg.epochs * math.ceil(tr.n / cfg.batch_size)
        t0 = time.perf_counter()
        try:
            _, _, history = train.fit_A(layer, head, tr, cfg, validation=va)
        except train.DivergenceDetected as exc:
            tally.record(False, f"round {k}: {arm} fit diverged: {exc}")
            return
        busy = time.perf_counter() - t0
        losses = [row[2] for row in history]
        tally.record(all_finite(losses), f"round {k}: non-finite {arm} loss")
        val = [row[2] for row in history if row[1] == "validation"][-1]
        self.val_loss[arm].append(val)
        work = cfg.epochs * tr.n
        self.samples[arm].append(busy / work * 1e6)
        self.log.append((work, busy))

    def named(self):
        return {
            "train_samples_per_s": (self.ops_per_s(), "1/s"),
            "val_loss.gelu": (_mean(self.val_loss["gelu"]), "nats"),
            "val_loss.relu": (_mean(self.val_loss["relu"]), "nats"),
        }

    def per_layer_given(self):
        return {"train.sgd_steps": float(self.steps_per_fit)}


WORKLOADS = {w.name: w for w in (EstimateMC, LayerServe, TrainFit)}
