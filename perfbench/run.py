"""snnk benchmark: run one workload and report its metrics.

    python3 perfbench/run.py --workload estimate-mc --seed 1 --seconds 15 --trace 0

Workloads: estimate-mc, layer-serve, train-fit, or ``all`` for the three in
turn.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` spends half the run untraced and half
with spans recorded around the package's boundaries, and reports the
per-layer metrics and the tracing overhead.  The exit code is 0 only when
every operation and correctness check passed.  A JSON record of the run
(machine, versions, parameters, metrics and, when traced, the spans) is
written to ``.perfbench/`` in the checkout.  See perfbench/README.md.
"""

import bootstrap

bootstrap.init()

import time  # noqa: E402

_t0 = time.perf_counter()
import snnk  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from reference import NOMINAL_S, SETUP_BURST_S, Reference  # noqa: E402
from workloads import DEFAULT_PARAMS, WORKLOADS, Tally, throughput  # noqa: E402

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
OUT_DIR = bootstrap.ROOT / ".perfbench"
WARMUP_S = 2.0
WARMUP_ROUND0 = 1 << 30  # warm-up rounds use inputs no measured round uses


def parse_args(argv):
    parser = argparse.ArgumentParser(description="snnk benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# run record


def _openblas():
    """Version string and thread count of the OpenBLAS numpy loaded."""
    info = {"config": None, "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    info["config"] = get_config().decode()
                    info["threads"] = get_threads()
                    return info
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["config"] = f"{blas.get('name')} {blas.get('version')}"
    return info


def run_record(workload, seed, seconds, trace, params):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "setup_repeats": SETUP_REPEATS,
        "nproc": bootstrap.usable_cores(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# measurement


def setup_seconds(name, seed, params, tally, ref):
    """Set-up times of ``SETUP_REPEATS`` fresh processes, each from launch.

    Returns the wall times and the same times scaled to a machine whose
    reference kernel takes ``NOMINAL_S``, using bursts of the kernel run
    right before and after each process.
    """
    child = str(bootstrap.ROOT / "perfbench" / "setup_child.py")
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        kernel = ref.burst(SETUP_BURST_S)
        launched = time.time()
        cmd = [sys.executable, child, name, str(seed), json.dumps(params), repr(launched)]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
                cwd=bootstrap.ROOT,
            )
            seconds = float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        except (subprocess.SubprocessError, ValueError, KeyError, IndexError) as exc:
            tally.record(False, f"set-up process failed: {exc!r}")
            continue
        kernel += ref.burst(SETUP_BURST_S)
        wall.append(seconds)
        scaled.append(seconds * NOMINAL_S / statistics.median(kernel))
    return wall, scaled


def run_group(w, tally, k, tracer=None, ref=None):
    """One arm group of rounds from round ``k``, each followed by a burst of
    the reference kernel when ``ref`` is given; returns the next round."""
    for k in range(k, k + w.group):
        if tracer is not None:
            tracer.op = k
        before = {arm: len(w.samples[arm]) for arm in w.arms}
        t0 = time.perf_counter()
        try:
            w.round(k, tally)
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            traceback.print_exc(file=sys.stderr)
            tally.record(False, f"round {k} raised {exc!r}")
        if ref is not None:
            ref.follow(
                time.perf_counter() - t0,
                {arm: w.samples[arm][n:] for arm, n in before.items()},
            )
    return k + 1


def run_timed(w, tally, seconds, k=0, tracer=None, ref=None):
    """Whole arm groups from round ``k`` until ``seconds`` have passed.

    With a tracer, groups alternate untraced and traced, so both
    throughputs see the same drift of the machine.  Returns the number of
    traced rounds and the workload's log entries split by tracing.
    """
    deadline = time.perf_counter() + seconds
    logs = {False: [], True: []}
    traced_rounds = 0
    g = 0
    while True:
        on = tracer is not None and g % 2 == 1
        n = len(w.log)
        if on:
            tracing.install(tracer)
            tracer.active = True
        try:
            k = run_group(w, tally, k, tracer if on else None, ref)
        finally:
            if on:
                tracer.active = False
                tracer.unpatch()
        logs[on].extend(w.log[n:])
        traced_rounds += w.group if on else 0
        g += 1
        if time.perf_counter() >= deadline and (tracer is None or g % 2 == 0):
            return traced_rounds, logs


def _median(values):
    return statistics.median(values) if values else float("nan")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name, seed, seconds, trace, params):
    """One workload; returns (tally, reported metrics, named metrics, record)."""
    w = WORKLOADS[name](seed, params)
    w.setup()
    tally = Tally()
    record = run_record(name, seed, seconds, trace, params)
    ref = Reference(w.arms)
    if not trace:
        setup_wall, setups = setup_seconds(name, seed, params, tally, ref)
        record["setup_wall_s"] = setup_wall
    # fills allocator pools and lazy state; its operations are checked too
    run_timed(WORKLOADS[name](seed, params), tally, WARMUP_S, k=WARMUP_ROUND0)

    if not trace:
        run_timed(w, tally, seconds, ref=ref)
        w.finish(tally)
        a, b = w.arms
        ok_frac = 1.0 - tally.failed / tally.attempted
        metrics = {
            "setup_s": (_median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ok_frac": (ok_frac, "ratio"),
            "op_a_p50_ref": (_median(ref.ratios[a]), "ref"),
            "op_b_p50_ref": (_median(ref.ratios[b]), "ref"),
        }
        named = {
            "setup_s": metrics["setup_s"],
            "setup_wall_s": (_median(setup_wall), "s"),
            "peak_rss_mb": metrics["peak_rss_mb"],
            "failed_frac": (1.0 - ok_frac, "ratio"),
            "ref_p50_us": (_median(ref.times) * 1e6, "us"),
            **w.named(),
        }
        record["reference_calls"] = len(ref.times)
        return tally, metrics, named, record

    tracer = tracing.Tracer()
    w.quiet = tracer.paused
    traced_rounds, logs = run_timed(w, tally, seconds, tracer=tracer)
    w.finish(tally)
    untraced, traced = throughput(logs[False]), throughput(logs[True])
    given = {
        "snnk.import.s": IMPORT_S,
        "activations.decomposition_for.s": w.decomposition_s,
        "trace.overhead": 1.0 - traced / untraced if untraced > 0 else float("nan"),
        **w.per_layer_given(),
    }
    values = tracing.per_layer(tracer, max(1, traced_rounds), given)
    metrics = {key: (values[key], unit) for key, unit in tracing.PER_LAYER}
    record["traced_rounds"] = traced_rounds
    record["ops_per_s"] = {"untraced": untraced, "traced": traced}
    record["trace"] = tracing.dump_spans(tracer)
    return tally, metrics, w.named(), record


# ---------------------------------------------------------------------------
# reporting


def _json_value(v):
    return v if math.isfinite(v) else None


def report(prefix, metrics, named):
    for title, table in (("metric", metrics), ("named", named)):
        for key, (value, unit) in table.items():
            print(f"{title} {prefix}{key} = {value!r} {unit}")


def main(argv=None, params=None) -> int:
    args = parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = Tally()
    out_metrics = {}
    OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        p = dict(DEFAULT_PARAMS[name] if params is None else params[name])
        tally, metrics, named, record = run_workload(name, args.seed, args.seconds, args.trace, p)
        prefix = f"{name}/" if args.workload == "all" else ""
        print(f"record {json.dumps({k: v for k, v in record.items() if k != 'trace'})}")
        report(prefix, metrics, named)
        for reason in tally.reasons[:20]:
            print(f"FAILED {name}: {reason}", file=sys.stderr)
        record.update(
            attempted=tally.attempted, failed=tally.failed, failures=tally.reasons[:100],
            metrics={k: v for k, (v, _) in metrics.items()},
            named={k: v for k, (v, _) in named.items()},
        )
        path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record))
        total.attempted += tally.attempted
        total.failed += tally.failed
        shown = metrics if args.workload != "all" else {**metrics, **named}
        out_metrics.update(
            {f"{prefix}{k}": {"value": _json_value(v), "unit": u} for k, (v, u) in shown.items()}
        )
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": out_metrics,
    }
    print(json.dumps(result))
    return 0 if total.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
