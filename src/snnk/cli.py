"""Experiment harness and command-line surface.

Subcommands: estimate, sweep, ft-table, bundle, train.  Everything reads a
JSON config and writes RFC-4180 CSV; runs are deterministic in the seed.
An estimate run draws the trials of all its feature counts at once, from
one derived seed, on one thread: each instantiation draws as many features
as the largest count needs, and every count reads a prefix of them.
--threads is still accepted but cannot change the output bytes.  Exit code
0 means the config was read in full and no run failed loudly (non-finite
parameters or bundled matrices, a diverging loss); accuracy such as
``bundle``'s ``probe_mae`` is reported, not gated.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import repeat

import numpy as np

from ._seeds import MISC_STREAM, derive_seed, rng_for
from .activations import AXES, Activation, decomposition_for
from .bundling import (
    BundledNetwork,
    bundle_full,
    bundled_forward,
    bundled_param_count,
    network,
    network_forward,
    network_param_count,
)
from .layers import arc_cosine_exact, relu_feature_map, relu_snnk_features, urf_feature_map
from .train import (
    Dataset,
    DivergenceDetected,
    TrainConfig,
    check_blobs,
    fit_A,
    generate_blobs,
    make_head,
    make_learnable_layer,
    split_dataset,
    validation_count,
)
from .urf import ConfigError, FeatureVector, UrfConfig, kernel_estimate, phi, psi, sample_draws

REL_ERROR_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# pointwise estimation


def _component_counts(activation: str, feature_counts) -> tuple[int, list[int]]:
    """The number of active transform components, and the features per
    component for each requested total in ``feature_counts``.  The relu map
    (arccos) draws no frequencies, so it counts as one component."""
    n_active = (1 if activation == "arccos"
                else len(decomposition_for(Activation(activation)).active()))
    return n_active, [max(1, int(p) // n_active) for p in feature_counts]


@dataclass(frozen=True)
class EstimateConfig:
    """Pointwise-estimation benchmark configuration.

    One (x, w) pair is drawn per run with entries from (1/sqrt(d)) *
    Uniform(0, 1); each trial is a fresh instantiation of the random
    feature mechanism.  A run draws one flat set of n * max(m_c) features
    per component from one seed, and each count reads a prefix of every
    instantiation's run (``_urf_run``): within a count the trials are
    independent, across counts they share features.  ``feature_counts``
    requests total feature lengths; the achieved length (reported in the
    CSV) is the nearest multiple of the number of active transform
    components, and two counts of one achieved length are refused.

    A trial draws its Gaussians in k = min(d, 2) dimensions, in the
    coordinates of an orthonormal basis of span{x, w} (``_span_coords``):
    the estimator reads g only through g.x, g.w and |g|^2, and the
    isotropic Gaussian is rotation invariant, so the estimate has the law
    of the d-dimensional one.  For A != 0 and d > k, each entry's
    remaining d - k coordinates enter as the factor (1-4A)^((d-k)/2) *
    exp(2A chi^2_(d-k)), with the chi^2 drawn from the run seed's own stream.
    """

    activation: str = "sine"
    d: int = 200
    l: int = 1
    bias: float = 0.5
    feature_counts: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512)
    instantiations: int = 100
    A: float = 0.0
    # iid values only; kept because perfbench/workloads.py passes them (ROADMAP item 15)
    strategy: str = "iid"
    block_size: int = 0
    seed: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError("d", f"must be >= 1, got {self.d}")
        if not math.isfinite(self.bias):
            raise ConfigError("bias", f"must be finite, got {self.bias}")
        if not self.feature_counts or min(self.feature_counts) < 1:
            raise ConfigError("feature_counts", f"must be a nonempty list of counts >= 1, "
                              f"got {list(self.feature_counts)}")
        if self.instantiations < 2:
            raise ConfigError("instantiations", f"must be >= 2, got {self.instantiations}")
        if self.l != 1:
            # the benchmark quantifies one output entry; wider layers are
            # covered by the layer-level tests
            raise ConfigError("l", f"pointwise estimation is defined for l = 1, got {self.l}")
        if self.strategy != "iid":
            raise ConfigError("strategy", f"must be 'iid', got {self.strategy!r}")
        if self.block_size != 0:
            raise ConfigError("block_size", f"must be 0, got {self.block_size}")
        if self.activation != "arccos":  # the relu map draws no frequencies, so it ignores A
            UrfConfig(m=1, A=self.A)
        n_active, ms = self.count_plan
        per = "" if self.activation == "arccos" else f" per component ({n_active} components)"
        # every count reads a prefix of the same features (_urf_run), so a
        # repeated count would only repeat another's rows
        seen = {}
        for p, m in zip(self.feature_counts, ms):
            if m in seen:
                raise ConfigError("feature_counts", (
                    f"{seen[m]} and {p} both give {m} features{per}, so they would read "
                    f"the same features; give distinct counts"))
            seen[m] = p

    @cached_property
    def count_plan(self) -> tuple[int, list[int]]:
        """``_component_counts`` of this config, formed once: the number of
        active components and the features per component of each count."""
        return _component_counts(self.activation, self.feature_counts)


@dataclass(frozen=True)
class EstimateReport:
    rows: list  # (activation, d, p, trial, estimate, exact, rel_error)
    aggregates: list  # (p, mean_rel_error, std_rel_error)


def _draw_inputs(cfg: EstimateConfig):
    rng = rng_for(cfg.seed, 400, 0, MISC_STREAM)
    # one call draws x's entries, then w's, as two calls of d each would
    x, w = (1.0 / math.sqrt(cfg.d)) * rng.random((2, cfg.d))
    return x, w


def _span_coords(x, w):
    """x and w in an orthonormal basis of span{x, w}, in k = min(d, 2)
    coordinates: x' = (|x|, 0) and w' = (x.w/|x|, |w - (x.w/|x|^2) x|).
    Every inner product and norm among x and w is kept.  A norm is the root
    of the row's ``dot`` with itself, as ``np.linalg.norm`` forms it."""
    k = min(len(x), 2)
    nx = math.sqrt(x.dot(x))
    along = x.dot(w) / nx
    r = w - (along / nx) * x
    return np.array([nx, 0.0][:k]), np.array([along, math.sqrt(r.dot(r))][:k])


def _urf_run(cfg, dec, xk, wk, ms):
    """The (instantiations,) estimates of each feature count, m_c = ``ms[c]``
    features per component, from one flat draw set of T = n * M features
    per component, M = max(ms), in the k dimensions of ``_span_coords``.

    Instantiation t owns the run [t*M, (t+1)*M) of each component, and count
    c reads the first m_c entries of every run (``UrfDraws.instantiations``),
    so each count's estimates keep their law, while the counts share
    features.  The towers of the flat set carry 1/sqrt(T) each, so each
    count's products are rescaled by T / m_c.
    """
    n, k = cfg.instantiations, len(xk)
    T = n * max(ms)
    seed = derive_seed(cfg.seed, 401)
    draws = sample_draws(dec, k, UrfConfig(m=T, A=cfg.A, seed=seed))
    px = phi(xk, draws).entries
    if cfg.A != 0 and cfg.d > k:
        # each g_i's d - k coordinates off span{x, w} enter Lambda only through
        # the prefactor and A|g_i|^2, once per tower
        chi2 = rng_for(seed, 0, 0, MISC_STREAM).chisquare(cfg.d - k, draws.xi.shape)
        px *= np.exp(0.5 * (cfg.d - k) * math.log1p(-4.0 * cfg.A) + 2.0 * cfg.A * chi2)
    pw = psi(wk, cfg.bias, draws).entries
    estimates = []
    for m in ms:
        px_c, pw_c = (FeatureVector(draws.instantiations(a, n, m)) for a in (px, pw))
        estimates.append(kernel_estimate(px_c, pw_c) * (T / m))
    return estimates


def _arccos_run(cfg, xk, wk, ps):
    """The relu-feature estimates of each feature count p = ``ps[c]``; like
    ``_urf_run``, one (instantiations, max(ps), k) Gaussian stack drawn in
    span{x, w}, of which count c reads the first p columns."""
    rng = rng_for(derive_seed(cfg.seed, 402), 0, 0, MISC_STREAM)
    G = rng.standard_normal((cfg.instantiations, max(ps), len(xk)))
    return [np.sum(relu_snnk_features(xk, G[:, :p]) * relu_snnk_features(wk, G[:, :p]), axis=-1)
            for p in ps]


def run_pointwise(cfg: EstimateConfig, threads: int = 1) -> EstimateReport:
    """The pointwise benchmark: relative estimation error vs feature count.
    ``threads`` is ignored: the run draws once, on one thread, as many
    features per instantiation as the largest count needs, and each count's
    trials read a prefix of every instantiation's features."""
    x, w = _draw_inputs(cfg)
    xk, wk = _span_coords(x, w)
    n_active, ms = cfg.count_plan
    if cfg.activation == "arccos":
        exact = 0.5 * arc_cosine_exact(1, w, x)
        estimates = _arccos_run(cfg, xk, wk, ms)
    else:
        act = Activation(cfg.activation)
        exact = float(act(np.dot(w, x) + cfg.bias))
        estimates = _urf_run(cfg, decomposition_for(act), xk, wk, ms)

    n = cfg.instantiations
    estimates = np.array(estimates)  # (counts, instantiations)
    errs = np.abs(estimates - exact)
    errs /= max(abs(exact), REL_ERROR_FLOOR)
    # each count's mean and std(ddof=1) by the ufuncs np.mean and np.std run:
    # the row sum over n, then the row sum of the squared deviations from it
    # over n - 1.  Each row of errs is contiguous, so it is summed as it would
    # be alone
    mean = np.add.reduce(errs, axis=1, keepdims=True)
    mean /= n
    dev = errs - mean
    dev *= dev
    std = np.add.reduce(dev, axis=1)
    std /= n - 1
    np.sqrt(std, out=std)
    # row r is trial r % n of count r // n; tolist: the CSV writes Python floats by repr
    plan = [m * n_active for m in ms]
    rows = list(zip(repeat(cfg.activation), repeat(cfg.d), [p for p in plan for _ in range(n)],
                    [*range(n)] * len(plan), estimates.ravel().tolist(), repeat(exact),
                    errs.ravel().tolist()))
    aggregates = list(zip(plan, mean.ravel().tolist(), std.tolist()))
    return EstimateReport(rows=rows, aggregates=aggregates)


SWEEP_AXES = ("A", "activation")


def run_sweep(axis: str, values: list, base: EstimateConfig):
    """One report per value along the sweep axis; merged row list."""
    if axis not in SWEEP_AXES:
        raise ConfigError("axis", f"expected one of {SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ConfigError("values", "expected at least one value, got []")
    cfgs = [_sweep_point(axis, value, base) for value in values]  # all checked before any run
    return [(str(value), run_pointwise(cfg)) for value, cfg in zip(values, cfgs)]


def _sweep_point(axis: str, value, base: EstimateConfig) -> EstimateConfig:
    try:
        if axis == "A":
            return replace(base, A=_number(value))
        return replace(base, activation=_estimate_activation(value))
    except ConfigError as exc:
        raise ValueError(f"values: {value!r} is not a valid {axis} value: {exc}") from None
    except (TypeError, ValueError):
        raise ValueError(f"values: {value!r} is not a valid {axis} value") from None


# ---------------------------------------------------------------------------
# CSV writing (stable schemas; floats via repr for byte-identical replays)


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


ESTIMATE_HEADER = [
    "record", "sweep", "activation", "d", "p", "trial",
    "estimate", "exact", "rel_error", "mean_rel_error", "std_rel_error",
]


def _estimate_csv_rows(report: EstimateReport, sweep_value: str = ""):
    out = []
    for act, d, p, trial, est, exact, rel in report.rows:
        out.append(["trial", sweep_value, act, d, p, trial, est, exact, rel, "", ""])
    for p, mean_err, std_err in report.aggregates:
        out.append(["aggregate", sweep_value, "", "", p, "", "", "", "", mean_err, std_err])
    return out


# ---------------------------------------------------------------------------
# config plumbing


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


_REQUIRED = object()


def _as_is(value):
    return value


def _int(value) -> int:
    if isinstance(value, bool):  # an int to Python, but "d": true is not d = 1
        raise TypeError(value)
    # rejects floats and strings: "d": 8.5 cannot pass as 8, nor "816" as (8, 1, 6)
    return operator.index(value)


def _number(value) -> float:
    if isinstance(value, (bool, str)):  # float(True) and float("0.5") would pass
        raise TypeError(value)
    return float(value)


def _positive_int(value) -> int:
    value = _int(value)
    if value < 1:
        raise ConfigError("", f"must be >= 1, got {value}")  # _convert names the key
    return value


def _int_list(value) -> tuple[int, ...]:
    return tuple(_int(p) for p in value)


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(value)
    return value


def _layer_kind(value) -> str:
    if value not in ("relu", "urf"):
        raise ValueError(value)
    return value


def _activation(value) -> str:
    return Activation(value).kind  # Activation rejects an unknown kind


def _estimate_activation(value) -> str:
    return value if value == "arccos" else _activation(value)


_EXPECTED = {
    _int: "an integer", _positive_int: "an integer", _number: "a number",
    _int_list: "a list of integers", _list: "a list",
    _layer_kind: "'relu' or 'urf'", _activation: "an activation kind",
    _estimate_activation: "an activation kind or 'arccos'",
}


def _key_name(section: str, key: str) -> str:
    return f"{section}.{key}" if section else key


def _read(raw: dict, keys: dict, section: str = "") -> dict:
    """The config section ``raw`` with defaults applied: ``keys`` maps each
    key to ``(convert, default)``, ``default`` being ``_REQUIRED`` for a key
    that must be given.  An unknown key, a missing required key or a value
    that ``convert`` rejects raises a ValueError naming the key."""
    if not isinstance(raw, dict):
        raise ValueError(f"{section or 'config'}: expected an object, got {raw!r}")
    for key in raw:
        if key not in keys:
            raise ValueError(f"{_key_name(section, key)}: unknown key")
    conf = {}
    for key, (convert, default) in keys.items():
        if key not in raw:
            if default is _REQUIRED:
                raise ValueError(f"{_key_name(section, key)}: missing required key")
            conf[key] = default
        else:
            conf[key] = _convert(_key_name(section, key), convert, raw[key])
    return conf


def _convert(name: str, convert, value):
    """``convert(value)``; a value it rejects raises a ValueError naming ``name``."""
    try:
        return convert(value)
    except ConfigError as exc:
        raise ConfigError(name, exc.problem) from None
    except (TypeError, ValueError, OverflowError):  # float() of a huge JSON integer overflows
        raise ValueError(f"{name}: expected {_EXPECTED[convert]}, got {value!r}") from None


# EstimateConfig's fields and defaults, the annotation picking the conversion (the str
# is the activation); l, strategy and block_size have one legal value, so no config sets them
_CONVERT = {"str": _estimate_activation, "int": _int, "float": _number,
            "tuple[int, ...]": _int_list}
ESTIMATE_KEYS = {f.name: (_CONVERT[f.type], f.default) for f in fields(EstimateConfig)
                 if f.name not in ("l", "strategy", "block_size")}


def _in_section(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ConfigError it raises is re-keyed into ``section``."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(_key_name(section, exc.key), exc.problem) from None


def _estimate_config_from(raw: dict, seed_override, section: str = "") -> EstimateConfig:
    cfg = _in_section(section, EstimateConfig, **_read(raw, ESTIMATE_KEYS, section))
    return cfg if seed_override is None else replace(cfg, seed=seed_override)


# ---------------------------------------------------------------------------
# subcommand drivers


def _cmd_estimate(args) -> int:
    raw = _load_json(args.config) if args.config else {}
    report = run_pointwise(_estimate_config_from(raw, args.seed))
    _write_csv(args.out, ESTIMATE_HEADER, _estimate_csv_rows(report))
    return 0


SWEEP_KEYS = {"axis": (_as_is, _REQUIRED), "values": (_list, _REQUIRED), "base": (_as_is, {})}


def _cmd_sweep(args) -> int:
    conf = _read(_load_json(args.config), SWEEP_KEYS)
    base = _estimate_config_from(conf["base"], args.seed, section="base")
    merged = run_sweep(conf["axis"], conf["values"], base)
    rows = []
    for value, report in merged:
        rows.extend(_estimate_csv_rows(report, sweep_value=value))
    _write_csv(args.out, ESTIMATE_HEADER, rows)
    return 0


FT_TABLE_HEADER = [
    "activation", "xi", "re", "im", "re_plus", "re_minus", "im_plus", "im_minus",
]
FT_TABLE_KEYS = {"activations": (_list, ("sine", "cosine", "tanh", "sigmoid"))}


def _cmd_ft_table(args) -> int:
    conf = _read(_load_json(args.config) if args.config else {}, FT_TABLE_KEYS)
    names = [_convert(f"activations[{i}]", _activation, name)
             for i, name in enumerate(conf["activations"])]
    rows = []
    for name in names:
        dec = decomposition_for(Activation(name))
        # atomic rows carry atom weights; density rows carry density values
        for comp in dec.components:
            for xi, wgt in comp.atoms:  # a density component has none
                cell = {ax: 0.0 for ax in AXES}
                cell[comp.axis] = wgt
                rows.append(_ft_row(name, xi, cell))
        grids = [c.grid for c in dec.components if not c.is_atomic]
        if grids:
            union = np.unique(np.concatenate(grids))
            cols = [np.zeros(len(union)) if c.is_atomic else c.density(union)
                    for c in dec.components]
            for xi, *vals in zip(union.tolist(), *(col.tolist() for col in cols)):
                rows.append(_ft_row(name, xi, dict(zip(AXES, vals))))
    _write_csv(args.out, FT_TABLE_HEADER, rows)
    return 0


def _ft_row(name, xi, cell):
    re = cell["re+"] - cell["re-"]
    im = cell["im+"] - cell["im-"]
    return [name, xi, re, im, cell["re+"], cell["re-"], cell["im+"], cell["im-"]]


BUNDLE_HEADER = [
    "layer_count_before", "layer_count_after",
    "params_before", "params_after", "probe_mae",
]
BUNDLE_KEYS = {
    "input_dim": (_positive_int, _REQUIRED), "layers": (_list, _REQUIRED),
    "weights": (_as_is, None), "biases": (_as_is, None), "seed": (_int, 0),
    "init_std": (_number, 1.0), "urf": (_as_is, {}), "probes": (_positive_int, 16),
}
BUNDLE_LAYER_KEYS = {"out_dim": (_positive_int, _REQUIRED), "activation": (_activation, _REQUIRED)}
BUNDLE_URF_KEYS = {"m": (_int, 128), "A": (_number, 0.0)}


def _cmd_bundle(args) -> int:
    conf = _read(_load_json(args.config), BUNDLE_KEYS)
    layers = [_read(l, BUNDLE_LAYER_KEYS, f"layers[{i}]") for i, l in enumerate(conf["layers"])]
    if not layers:
        raise ValueError("layers: expected at least one layer, got []")
    urf_conf = _read(conf["urf"], BUNDLE_URF_KEYS, "urf")
    if not math.isfinite(conf["init_std"]):
        raise ConfigError("init_std", f"must be finite, got {conf['init_std']}")
    seed = args.seed if args.seed is not None else conf["seed"]
    cfg = _in_section("urf", UrfConfig, m=urf_conf["m"], A=urf_conf["A"],
                      seed=derive_seed(seed, 500))
    net = network(
        [conf["input_dim"]] + [l["out_dim"] for l in layers],
        [Activation(l["activation"]) for l in layers],
        weights=conf["weights"], biases=conf["biases"], seed=seed, init_std=conf["init_std"],
    )
    bundled = bundle_full(net, cfg)

    rng = rng_for(seed, 501, 0, MISC_STREAM)
    probes = rng.uniform(-1.0, 1.0, (conf["probes"], net.input_dim))
    with np.errstate(over="ignore", invalid="ignore"):  # the count below reports it
        approx = bundled_forward(probes, bundled)
    bad = int(np.count_nonzero(~np.isfinite(approx)))
    if bad:
        raise ValueError(f"probe_mae: {bad} of {approx.size} bundled probe outputs are non-finite")
    err = np.abs(approx - network_forward(probes, net))
    mae = float(np.mean(err.mean(axis=-1)))
    _write_csv(
        args.out,
        BUNDLE_HEADER,
        [[net.n_layers, 0, network_param_count(net), bundled_param_count(bundled), mae]],
    )
    artifact_path = args.out + ".artifact.json"
    with open(artifact_path, "w") as fh:
        json.dump(_bundle_artifact(bundled, conf, seed, cfg), fh)
    return 0


def _bundle_artifact(bn: BundledNetwork, conf, seed, cfg) -> dict:
    return {
        "input_dim": bn.input_dim,
        "network": {"input_dim": conf["input_dim"], "layers": conf["layers"]},
        "seed": seed,
        "urf": {"m": cfg.m, "A": cfg.A, "seed": cfg.seed},
        "stage_feature_counts": [draws.total_features for draws in bn.stages],
        "W_bar": {"re": bn.W_bar.real.tolist(), "im": bn.W_bar.imag.tolist()},
    }


TRAIN_HEADER = ["epoch", "split", "loss", "accuracy"]
TRAIN_KEYS = {"seed": (_int, 0), "data": (_as_is, _REQUIRED), "layer": (_as_is, _REQUIRED),
              "train": (_as_is, {})}
TRAIN_DATA_KEYS = {"n": (_positive_int, _REQUIRED), "d": (_positive_int, _REQUIRED),
                   "k": (_int, _REQUIRED), "separation": (_number, _REQUIRED),
                   "validation_frac": (_number, 0.25)}
TRAIN_LAYER_KEYS = {"kind": (_layer_kind, "relu"), "out_dim": (_positive_int, 16),
                    "features": (_positive_int, 32), "activation": (_activation, None),
                    "m": (_int, 16), "A": (_number, 0.0)}
# the layer keys that only one kind reads; a layer of the other kind refuses them
TRAIN_LAYER_ONLY = {"relu": ("features",), "urf": ("m", "A", "activation")}
TRAIN_FIT_KEYS = {"learning_rate": (_number, 0.05), "epochs": (_int, 20), "batch_size": (_int, 32),
                  "loss": (_as_is, "cross_entropy")}


def _cmd_train(args) -> int:
    conf = _read(_load_json(args.config), TRAIN_KEYS)
    data = _read(conf["data"], TRAIN_DATA_KEYS, "data")
    layer_conf = _read(conf["layer"], TRAIN_LAYER_KEYS, "layer")
    fit = _read(conf["train"], TRAIN_FIT_KEYS, "train")
    seed = args.seed if args.seed is not None else conf["seed"]
    if layer_conf["kind"] == "urf":
        if layer_conf["activation"] is None:
            raise ValueError("layer.activation: missing required key")
        urf_cfg = _in_section("layer", UrfConfig, m=layer_conf["m"], A=layer_conf["A"],
                              seed=derive_seed(seed, 603))
    other = "urf" if layer_conf["kind"] == "relu" else "relu"
    for key in TRAIN_LAYER_ONLY[other]:
        if key in conf["layer"]:
            raise ConfigError(f"layer.{key}", f"only a {other} layer reads this key, and "
                              f"layer.kind is {layer_conf['kind']!r}")
    cfg = _in_section("train", TrainConfig, seed=derive_seed(seed, 606), **fit)
    if cfg.loss == "mse":
        raise ConfigError("train.loss", "'mse' needs real targets and the blobs have class "
                          "labels; use 'cross_entropy'")
    _in_section("data", check_blobs, data["k"], data["separation"])
    n_train = data["n"] - _in_section("data", validation_count, data["n"], data["validation_frac"])
    if cfg.batch_size > n_train:
        raise ConfigError("train.batch_size", f"must be <= the {n_train} training rows, "
                          f"got {cfg.batch_size}")

    full = generate_blobs(n=data["n"], d=data["d"], k=data["k"],
                          separation=data["separation"], seed=derive_seed(seed, 600))
    train_set, val_set = split_dataset(full, data["validation_frac"], seed=derive_seed(seed, 601))
    if layer_conf["kind"] == "relu":
        fmap = relu_feature_map(data["d"], layer_conf["features"], seed=derive_seed(seed, 602))
    else:
        # feature magnitudes grow like exp(|x|^2 / 2) for trig maps, so
        # inputs are scaled into the unit ball first
        scale = float(np.max(np.linalg.norm(train_set.X, axis=1)))
        train_set = Dataset(X=train_set.X / scale, Y=train_set.Y, split="train")
        val_set = Dataset(X=val_set.X / scale, Y=val_set.Y, split="validation")
        fmap = urf_feature_map(Activation(layer_conf["activation"]), data["d"], urf_cfg)
    layer = make_learnable_layer(fmap, layer_conf["out_dim"], seed=derive_seed(seed, 604))
    head = make_head(data["k"], layer_conf["out_dim"], seed=derive_seed(seed, 605))
    _, _, history = fit_A(layer, head, train_set, cfg, validation=val_set)
    _write_csv(args.out, TRAIN_HEADER, history)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snnk",
        description="Random-feature layer linearization benchmarks and tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in (
        ("estimate", _cmd_estimate, False),
        ("sweep", _cmd_sweep, True),
        ("ft-table", _cmd_ft_table, False),
        ("bundle", _cmd_bundle, True),
        ("train", _cmd_train, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, default=None,
                       help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--threads", type=int, default=1, help="ignored; kept for old scripts")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, TypeError, DivergenceDetected) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
