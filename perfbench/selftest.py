"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly at tiny sizes, untraced and traced, and checks
that each run prints every metric ``BENCHMARK.json`` lists, that the three
workloads together print all of their named metrics, and that an injected
NaN output is counted as a failure and fails the run.  Exits non-zero on
the first check that does not hold.
"""

import bootstrap

bootstrap.init()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402
from snnk import cli, layers, train  # noqa: E402

TINY = {"estimate-mc": {"instantiations": 2}, "layer-serve": {"probes": 8}, "train-fit": {}}
NAMED = {
    "setup_s", "peak_rss_mb", "failed_frac",
    "estimates_per_s", "rel_err.sine", "rel_err.tanh",
    "build_s", "layer_fwd_p50_us", "layer_fwd_p99_us", "bundle_fwd_p50_us",
    "bundle_fwd_p99_us", "layer_mae", "bundle_mae",
    "train_samples_per_s", "val_loss.gelu", "val_loss.relu",
}


class SelfTestFailure(Exception):
    pass


def check(ok, message):
    if not ok:
        raise SelfTestFailure(message)


def invoke(workload, trace):
    """Run one tiny workload; returns (exit code, result JSON, printed lines)."""
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv, params=TINY)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), lines


def named_lines(lines):
    return {line.split()[1]: line for line in lines if line.startswith("named ")}


def nan_once(fn, after):
    """``fn`` with its ``after``-th call returning NaN in place of its result."""
    calls = [0]

    def injected(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls[0] += 1
        if calls[0] != after:
            return out
        if isinstance(out, tuple):  # evaluate returns (loss, accuracy)
            return (out[0] * math.nan, *out[1:])
        return out * math.nan

    return injected


def main() -> int:
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS), "workload names")
    run.SETUP_REPEATS = 1
    run.WARMUP_S = 0.0

    seen_named = set()
    for workload in run.WORKLOADS:
        code, result, lines = invoke(workload, 0)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"{workload}: clean run failed: {result}")
        check(set(result["metrics"]) == end_to_end, f"{workload}: end-to-end metric names")
        for name, m in result["metrics"].items():
            check(math.isfinite(m["value"]) and m["value"] != 0, f"{workload}: {name} = {m}")
        seen_named |= set(named_lines(lines))

        code, result, _ = invoke(workload, 1)
        check(code == 0 and result["correct"], f"{workload}: traced run failed: {result}")
        check(set(result["metrics"]) == per_layer, f"{workload}: per-layer metric names")
        print(f"selftest {workload}: ok")
    check(NAMED <= seen_named, f"named metrics: missing {NAMED - seen_named}")

    injections = {
        "estimate-mc": (cli, "kernel_estimate", 5),
        "layer-serve": (layers, "snnk_forward", 3),
        "train-fit": (train, "evaluate", 2),
    }
    for workload, (module, attr, after) in injections.items():
        original = getattr(module, attr)
        setattr(module, attr, nan_once(original, after))
        try:
            code, result, lines = invoke(workload, 0)
        finally:
            setattr(module, attr, original)
        failed_frac = float(named_lines(lines)["failed_frac"].split()[3])
        check(code != 0 and not result["correct"] and result["failed"] >= 1 and failed_frac > 0,
              f"{workload}: injected NaN was not caught: {result}")
        print(f"selftest {workload}: injected NaN counted (failed {result['failed']})")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestFailure as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
