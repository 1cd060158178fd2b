"""The benchmark's tracer still finds every package attribute it wraps.

``perfbench/tracing.py`` replaces module attributes of the package (such as
``snnk.cli.sample_draws`` or ``snnk.bundling.phi``) with recording wrappers.
Deleting or renaming one of them, or changing what it returns, breaks the
benchmark; these tests catch that in the test suite.  The tracer is loaded
from the source tree and every patch is undone before a test returns.
"""

import importlib.util
from pathlib import Path

import numpy as np

from snnk import bundling, cli
from snnk.activations import Activation
from snnk.urf import UrfConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_point_and_unpatch_restores_it():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.unpatch()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_traced_calls_record_their_extras():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.active = True
    try:
        cli.run_pointwise(cli.EstimateConfig(activation="tanh", d=4, l=1, feature_counts=(4,),
                                             instantiations=2), threads=1)
        net = bundling.network([3, 4, 2], [Activation("sine"), Activation("sine")], seed=1)
        bundled = bundling.bundle_full(net, UrfConfig(m=4, A=0.0, seed=2))
        bundling.bundled_forward(np.full((2, 3), 0.1), bundled)
    finally:
        tracer.active = False
        tracer.unpatch()
    table = tracer.by_name()
    for name in ("cli.run_pointwise", "urf.sample_draws", "urf.phi", "urf.psi",
                 "urf.kernel_estimate", "urf.psi_many", "bundling.bundle_full",
                 "bundling.bundled_forward"):
        assert table[name]["calls"] >= 1, name
    extras = {}
    for span in tracer.spans:
        extras.setdefault(span[tracing.NAME], []).append(span[tracing.EXTRA])
    # draws_extra reads one flat draw set: (Gaussians, ratio sum, ratio square sum, count);
    # tanh's 2 components hold 2 instantiations x 2 features each, in k = 2 dimensions
    gaussians, _, _, count = extras["urf.sample_draws"][0]
    assert (gaussians, count) == (16, 8)
    # norm_extra reads the entries of each bundled stage's features
    assert all(isinstance(norm, float) for norm in extras["urf.phi"] if norm is not None)
    assert sum(norm is not None for norm in extras["urf.phi"]) == 2
