"""Experiment harness and command-line surface.

Subcommands: estimate, sweep, ft-table, bundle, train.  Everything reads a
JSON config and writes RFC-4180 CSV; runs are deterministic in the seed.
Trials run in order on one thread, each from its own derived seed; --threads
is still accepted but cannot change the output bytes.  Exit code 0 means
every validation passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
import sys
from dataclasses import dataclass, replace

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
from .layers import arc_cosine_exact, relu_snnk_features, urf_feature_map
from .train import (
    Dataset,
    DivergenceDetected,
    TrainConfig,
    fit_A,
    generate_blobs,
    make_head,
    make_learnable_layer,
    split_dataset,
)
from .urf import UrfConfig, kernel_estimate, phi, psi, sample_draws

REL_ERROR_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# pointwise estimation


@dataclass(frozen=True)
class EstimateConfig:
    """Pointwise-estimation benchmark configuration.

    One (x, w) pair is drawn per run with entries from (1/sqrt(d)) *
    Uniform(0, 1); each trial is a fresh instantiation of the random
    feature mechanism.  ``feature_counts`` requests total feature lengths;
    the achieved length (reported in the CSV) is the nearest multiple of
    the number of active transform components.
    """

    activation: str = "sine"
    d: int = 200
    l: int = 1
    bias: float = 0.5
    feature_counts: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512)
    instantiations: int = 100
    A: float = 0.0
    strategy: str = "iid"
    block_size: int = 0
    seed: int = 1

    def __post_init__(self):
        if any(p < 1 for p in self.feature_counts):
            raise ValueError("feature counts must be >= 1")
        if self.instantiations < 2:
            raise ValueError("need at least 2 instantiations")
        if self.l != 1:
            # the benchmark quantifies one output entry; wider layers are
            # covered by the layer-level tests
            raise ValueError("pointwise estimation is defined for l = 1")


@dataclass(frozen=True)
class EstimateReport:
    rows: list  # (activation, d, p, trial, estimate, exact, rel_error)
    aggregates: list  # (p, mean_rel_error, std_rel_error)


def _draw_inputs(cfg: EstimateConfig):
    rng = rng_for(cfg.seed, 400, 0, MISC_STREAM)
    scale = 1.0 / math.sqrt(cfg.d)
    x = scale * rng.random(cfg.d)
    w = scale * rng.random(cfg.d)
    return x, w


def _urf_trial(cfg, dec, x, w, m, p_index, trial):
    trial_cfg = UrfConfig(
        m=m,
        A=cfg.A,
        strategy=cfg.strategy,
        block_size=cfg.block_size,
        seed=derive_seed(cfg.seed, 401, p_index, trial),
    )
    draws = sample_draws(dec, cfg.d, trial_cfg)
    return kernel_estimate(phi(x, draws), psi(w, cfg.bias, draws))


def _arccos_trial(cfg, x, w, p, p_index, trial):
    rng = rng_for(derive_seed(cfg.seed, 402, p_index, trial), 0, 0, MISC_STREAM)
    G = rng.standard_normal((p, cfg.d))
    return float(np.dot(relu_snnk_features(x, G), relu_snnk_features(w, G)))


def run_pointwise(cfg: EstimateConfig, threads: int = 1) -> EstimateReport:
    """The pointwise benchmark: relative estimation error vs feature count.
    ``threads`` is ignored: the trials run in order on one thread."""
    x, w = _draw_inputs(cfg)
    if cfg.activation == "arccos":
        exact = 0.5 * arc_cosine_exact(1, w, x)
        dec = None
        plan = [(pi, int(p)) for pi, p in enumerate(cfg.feature_counts)]
    else:
        act = Activation(cfg.activation)
        dec = decomposition_for(act)
        exact = float(act(np.dot(w, x) + cfg.bias))
        n_active = len(dec.active())
        plan = [
            (pi, max(1, int(p) // n_active) * n_active)
            for pi, p in enumerate(cfg.feature_counts)
        ]

    rows = []
    aggregates = []
    denom = max(abs(exact), REL_ERROR_FLOOR)
    for pi, p in plan:
        errs = []
        for trial in range(cfg.instantiations):
            if cfg.activation == "arccos":
                est = _arccos_trial(cfg, x, w, p, pi, trial)
            else:
                est = _urf_trial(cfg, dec, x, w, p // len(dec.active()), pi, trial)
            rel = abs(est - exact) / denom
            errs.append(rel)
            rows.append((cfg.activation, cfg.d, p, trial, est, exact, rel))
        errs = np.array(errs)
        aggregates.append((p, float(errs.mean()), float(errs.std(ddof=1))))
    return EstimateReport(rows=rows, aggregates=aggregates)


SWEEP_AXES = ("A", "strategy", "activation")


def run_sweep(axis: str, values: list, base: EstimateConfig):
    """One report per value along the sweep axis; merged row list."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {SWEEP_AXES}")
    if not values:
        raise ValueError("sweep values must be nonempty")
    merged = []
    for value in values:
        if axis == "A":
            cfg = replace(base, A=float(value))
        elif axis == "activation":
            cfg = replace(base, activation=str(value))
        else:
            if isinstance(value, str) and value.startswith("block:"):
                cfg = replace(base, strategy="block", block_size=int(value.split(":")[1]))
            else:
                cfg = replace(base, strategy=str(value))
        report = run_pointwise(cfg)
        merged.append((str(value), report))
    return merged


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
# subcommand drivers


def _cmd_estimate(args) -> int:
    cfg = _load_estimate_config(args)
    report = run_pointwise(cfg)
    _write_csv(args.out, ESTIMATE_HEADER, _estimate_csv_rows(report))
    return 0


def _cmd_sweep(args) -> int:
    raw = _load_json(args.config)
    base = _estimate_config_from(raw.get("base", {}), args.seed)
    merged = run_sweep(_require(raw, "axis"), _require(raw, "values"), base)
    rows = []
    for value, report in merged:
        rows.extend(_estimate_csv_rows(report, sweep_value=value))
    _write_csv(args.out, ESTIMATE_HEADER, rows)
    return 0


FT_TABLE_HEADER = [
    "activation", "xi", "re", "im", "re_plus", "re_minus", "im_plus", "im_minus",
]


def _cmd_ft_table(args) -> int:
    raw = _load_json(args.config) if args.config else {}
    names = raw.get("activations", ["sine", "cosine", "tanh", "sigmoid"])
    rows = []
    for name in names:
        dec = decomposition_for(Activation(name))
        # atomic rows carry atom weights; density rows carry density values
        for comp in dec.components:
            if not comp.is_atomic or not comp.atoms:
                continue
            for xi, wgt in comp.atoms:
                cell = {ax: 0.0 for ax in AXES}
                cell[comp.axis] = wgt
                rows.append(_ft_row(name, xi, cell))
        grids = [c.grid for c in dec.components if not c.is_atomic]
        if grids:
            union = np.unique(np.concatenate(grids))
            for xi in union:
                cell = {}
                for comp, ax in zip(dec.components, AXES):
                    cell[ax] = (
                        0.0 if comp.is_atomic else float(comp.density([xi])[0])
                    )
                rows.append(_ft_row(name, float(xi), cell))
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


def _cmd_bundle(args) -> int:
    raw = _load_json(args.config)
    seed = args.seed if args.seed is not None else raw.get("seed", 0)
    dims = [_conf(raw, "input_dim", int)]
    acts = []
    for i, l in enumerate(_require(raw, "layers")):
        dims.append(_conf(l, "out_dim", int, section=f"layers[{i}]"))
        acts.append(Activation(_require(l, "activation", f"layers[{i}]")))
    weights = raw.get("weights")
    biases = raw.get("biases")
    net = network(
        dims, acts, weights=weights, biases=biases,
        seed=seed, init_std=float(raw.get("init_std", 1.0)),
    )
    urf_raw = raw.get("urf", {})
    cfg = UrfConfig(
        m=int(urf_raw.get("m", 128)),
        A=float(urf_raw.get("A", 0.0)),
        seed=derive_seed(seed, 500),
    )
    bundled = bundle_full(net, cfg)

    n_probes = int(raw.get("probes", 16))
    rng = rng_for(seed, 501, 0, MISC_STREAM)
    probes = rng.uniform(-1.0, 1.0, (n_probes, net.input_dim))
    err = np.abs(bundled_forward(probes, bundled) - network_forward(probes, net))
    mae = float(np.mean(err.mean(axis=-1)))
    _write_csv(
        args.out,
        BUNDLE_HEADER,
        [[net.n_layers, 0, network_param_count(net), bundled_param_count(bundled), mae]],
    )
    artifact_path = args.out + ".artifact.json"
    with open(artifact_path, "w") as fh:
        json.dump(_bundle_artifact(bundled, raw, seed, cfg), fh)
    return 0


def _bundle_artifact(bn: BundledNetwork, raw, seed, cfg) -> dict:
    return {
        "input_dim": bn.input_dim,
        "network": {k: raw[k] for k in ("input_dim", "layers") if k in raw},
        "seed": seed,
        "urf": {"m": cfg.m, "A": cfg.A, "seed": cfg.seed},
        "stage_feature_counts": [fm.total_features for fm in bn.stages],
        "W_bar": {"re": bn.W_bar.real.tolist(), "im": bn.W_bar.imag.tolist()},
    }


TRAIN_HEADER = ["epoch", "split", "loss", "accuracy"]


def _cmd_train(args) -> int:
    raw = _load_json(args.config)
    seed = args.seed if args.seed is not None else raw.get("seed", 0)
    data_raw = _require(raw, "data")
    d = _conf(data_raw, "d", int, section="data")
    k = _conf(data_raw, "k", int, section="data")
    full = generate_blobs(
        n=_conf(data_raw, "n", int, section="data"), d=d, k=k,
        separation=_conf(data_raw, "separation", float, section="data"),
        seed=derive_seed(seed, 600),
    )
    train_set, val_set = split_dataset(
        full, _conf(data_raw, "validation_frac", float, 0.25, section="data"),
        seed=derive_seed(seed, 601),
    )

    layer_raw = _require(raw, "layer")
    out_dim = _conf(layer_raw, "out_dim", int, 16, section="layer")
    if layer_raw.get("kind", "relu") == "relu":
        from .layers import relu_feature_map

        fmap = relu_feature_map(d, _conf(layer_raw, "features", int, 32, section="layer"),
                                seed=derive_seed(seed, 602))
    else:
        # feature magnitudes grow like exp(|x|^2 / 2) for trig maps, so
        # inputs are scaled into the unit ball first
        scale = float(np.max(np.linalg.norm(train_set.X, axis=1)))
        train_set = Dataset(X=train_set.X / scale, Y=train_set.Y, split="train")
        val_set = Dataset(X=val_set.X / scale, Y=val_set.Y, split="validation")
        fmap = urf_feature_map(
            Activation(_require(layer_raw, "activation", "layer")), d,
            UrfConfig(
                m=_conf(layer_raw, "m", int, 16, section="layer"),
                A=_conf(layer_raw, "A", float, 0.0, section="layer"),
                seed=derive_seed(seed, 603),
            ),
        )
    layer = make_learnable_layer(fmap, out_dim, seed=derive_seed(seed, 604))
    head = make_head(k, out_dim, seed=derive_seed(seed, 605))

    t_raw = raw.get("train", {})
    cfg = TrainConfig(
        learning_rate=_conf(t_raw, "learning_rate", float, 0.05, section="train"),
        epochs=_conf(t_raw, "epochs", int, 20, section="train"),
        batch_size=_conf(t_raw, "batch_size", int, 32, section="train"),
        loss=t_raw.get("loss", "cross_entropy"),
        seed=derive_seed(seed, 606),
        l2=_conf(t_raw, "l2", float, 0.0, section="train"),
        momentum=_conf(t_raw, "momentum", float, 0.0, section="train"),
    )
    _, _, history = fit_A(layer, head, train_set, cfg, validation=val_set)
    _write_csv(args.out, TRAIN_HEADER, history)
    return 0


# ---------------------------------------------------------------------------
# config plumbing


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _int_list(value) -> tuple[int, ...]:
    # operator.index rejects floats and strings, so "816" cannot pass as (8, 1, 6)
    return tuple(operator.index(p) for p in value)


_EXPECTED = {int: "an integer", float: "a number", _int_list: "a list of integers"}
_REQUIRED = object()


def _require(raw: dict, key: str, section: str = ""):
    """``raw[key]``; a missing key raises a ValueError naming it."""
    try:
        return raw[key]
    except KeyError:
        name = f"{section}.{key}" if section else key
        raise ValueError(f"{name}: missing required key") from None


def _conf(raw: dict, key: str, convert, default=_REQUIRED, section: str = ""):
    """``raw[key]`` (or ``default`` when given and the key is absent) through
    ``convert``; a missing required key or a value that does not convert
    raises a ValueError naming the key."""
    value = _require(raw, key, section) if default is _REQUIRED else raw.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        name = f"{section}.{key}" if section else key
        raise ValueError(f"{name}: expected {_EXPECTED[convert]}, got {value!r}") from None


def _estimate_config_from(raw: dict, seed_override) -> EstimateConfig:
    cfg = EstimateConfig(
        activation=raw.get("activation", "sine"),
        d=_conf(raw, "d", int, 200),
        l=_conf(raw, "l", int, 1),
        bias=_conf(raw, "bias", float, 0.5),
        feature_counts=_conf(raw, "feature_counts", _int_list, (8, 16, 32, 64, 128, 256, 512)),
        instantiations=_conf(raw, "instantiations", int, 100),
        A=_conf(raw, "A", float, 0.0),
        strategy=raw.get("strategy", "iid"),
        block_size=_conf(raw, "block_size", int, 0),
        seed=_conf(raw, "seed", int, 1),
    )
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    return cfg


def _load_estimate_config(args) -> EstimateConfig:
    raw = _load_json(args.config) if args.config else {}
    return _estimate_config_from(raw, args.seed)


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
