"""Benchmark for persage: train, score and retrieve workloads.

Run from the root of a checkout of the repository (the package is imported
from ``src/``):

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Every line but the last names one measurement: ``env`` gives the
environment as JSON, ``metric <name> <value> <unit>`` one workload metric as
measured, ``share <layer> <percent>`` a layer's part of the traced self
time. The last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, their timings taken to reference host speed (see
``hostspeed.py``), and the per-layer metrics of the traced run with
``--trace 1``. ``--workload all`` runs each workload in its own process and
prefixes every metric with the workload's name.

With ``--trace 1`` half of the budget runs untraced and half traced; the
per-layer metrics cover the traced set-ups and the traced half, the spans go
to ``.bench_out/spans-<workload>-seed<seed>.jsonl`` and ``trace.overhead_pct``
compares the two halves' throughput.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOAD_NAMES = ("train", "score", "retrieve")
SETUP_REPEATS = 5
OUT_DIR = ".bench_out"

# BENCHMARK.json end-to-end metric -> (unit, how the host slowdown applies,
# the workload metric it reports). Times are divided by the slowdown and
# rates multiplied by it; memory is reported as measured.
END_TO_END = {
    "setup_s": ("s", "time", dict.fromkeys(WORKLOAD_NAMES, "setup_s")),
    "peak_rss_mb": ("MB", "raw", dict.fromkeys(WORKLOAD_NAMES, "peak_rss_mb")),
    "throughput_per_s": ("1/s", "rate", {"train": "train_samples_per_s",
                                         "score": "batch_eval_samples_per_s",
                                         "retrieve": "retrieve_queries_per_s"}),
    "aux_per_s": ("1/s", "rate", {"train": "baseline_train_samples_per_s",
                                  "score": "score_requests_per_s",
                                  "retrieve": "retrieve_embed_per_s"}),
    "latency_ms_p50": ("ms", "time", {"train": "train_step_ms_p50",
                                      "score": "score_latency_ms_p50",
                                      "retrieve": "retrieve_query_ms_p50"}),
}
RUNNER_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio",
                "host_slowdown": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("acceptance", "tiny"),
                        default="acceptance",
                        help="tiny is for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# ------------------------------------------------------------- environment

def cap_blas_threads():
    """BLAS threads: the caller's OPENBLAS_NUM_THREADS, capped at nproc.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(asked), nproc) if asked.isdigit() and int(asked) > 0 else nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def _blas_runtime_threads(np):
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(np, nproc, threads, args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {"nproc": nproc, "cpu_model": _cpu_model(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas_name, "blas_threads": threads,
            "blas_threads_runtime": _blas_runtime_threads(np),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "size": args.size, "trace": args.trace}


# ----------------------------------------------------------------- one run

def _print_metric(name, value, unit):
    value = value if isinstance(value, int) else float(value)
    print(f"metric {name} {value!r} {unit}")


def run_workload(args, root):
    nproc, threads = cap_blas_threads()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy as np
    import persage
    if not os.path.abspath(persage.__file__).startswith(src + os.sep):
        print(f"perfbench: imported persage from {persage.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import hostspeed
    import tracer
    import workloads

    print("env", json.dumps(environment(np, nproc, threads, args), sort_keys=True))
    size = workloads.SIZES[args.size]
    setup, measure = workloads.WORKLOADS[args.workload]
    tally = workloads.Tally()
    probe = hostspeed.HostProbe()
    trace = tracer.Tracer(args.workload) if args.trace else None
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    found = {}
    try:
        setup_times = []
        if trace:
            trace.install()
        try:
            for _ in range(SETUP_REPEATS):
                probe.sample()
                start = time.perf_counter()
                state = setup(size, args.seed, workdir, tally)
                setup_times.append(time.perf_counter() - start)
        finally:
            if trace:
                trace.uninstall()
        if trace:
            found = trace_run(args, trace, measure, state, tally)
        else:
            found = measure(state, args.seconds, tally,
                            workloads.P99_MIN_SAMPLES, probe)
            found["setup_s"] = statistics.median(setup_times)
            found["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            found["host_slowdown"] = probe.slowdown()
            for part, ms in probe.medians_ms().items():
                found[f"host_probe_{part}_ms"] = ms
    except Exception:
        tally.error(f"workload {args.workload}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    found["error_rate"] = tally.failed / max(tally.attempted, 1)

    layer_units = tracer.per_layer_units()
    units = {**(layer_units if trace else workloads.UNITS), **RUNNER_UNITS,
             **{f"host_probe_{part}_ms": "ms" for part in hostspeed.REFERENCE_S}}
    for name, value in found.items():
        _print_metric(name, value, units[name])
    if trace:
        metrics = {name: {"value": found[name], "unit": unit}
                   for name, unit in layer_units.items() if name in found}
        complete = len(metrics) == len(layer_units)
        total = found.get("trace.self_total_ms") or 1.0
        for layer in tracer.LAYERS:
            busy = sum(v for k, v in found.items() if k.startswith(layer + ".")
                       and k.endswith(("self_ms", "wait_ms")))
            print(f"share {layer} {100.0 * busy / total:.1f} %")
    else:
        metrics = end_to_end(args.workload, found)
        complete = len(metrics) == len(END_TO_END)
    print(json.dumps({"correct": tally.failed == 0 and complete,
                      "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if complete else 1


def end_to_end(workload, found):
    """The BENCHMARK.json metrics, timings taken to reference host speed."""
    slowdown = found.get("host_slowdown", 1.0)
    scale = {"time": 1.0 / slowdown, "rate": slowdown, "raw": 1.0}
    return {name: {"value": found[source[workload]] * scale[kind], "unit": unit}
            for name, (unit, kind, source) in END_TO_END.items()
            if source[workload] in found}


def trace_run(args, trace, measure, state, tally):
    """Untraced half, traced half; per-layer metrics plus the overhead."""
    import hostspeed
    throughput = END_TO_END["throughput_per_s"][2][args.workload]
    latency = END_TO_END["latency_ms_p50"][2][args.workload]
    plain_probe, traced_probe = hostspeed.HostProbe(), hostspeed.HostProbe()
    plain = measure(state, args.seconds / 2, tally, 0, plain_probe)
    trace.install()
    try:
        traced = measure(state, args.seconds / 2, tally, 0, traced_probe)
    finally:
        trace.uninstall()
    found = trace.metrics()
    # both halves taken to reference host speed before comparing
    plain_rate = plain[throughput] * plain_probe.slowdown()
    traced_rate = traced[throughput] * traced_probe.slowdown()
    found["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1.0)
    tally.check(found["trace.self_total_ms"] <= found["trace.wall_ms"] * (1 + 1e-9),
                "traced self times exceed the traced wall time")
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    trace.write(path)
    print(f"trace {len(trace.spans)} spans written to {path}")
    print(f"trace overhead {throughput}: untraced {plain[throughput]:.6g}, "
          f"traced {traced[throughput]:.6g} (host slowdown "
          f"{plain_probe.slowdown():.3f} and {traced_probe.slowdown():.3f}); "
          f"{latency}: untraced {plain[latency]:.6g}, traced {traced[latency]:.6g}")
    return found


# ------------------------------------------------------------ all workloads

def run_all(args):
    """Each workload in its own process, so each peak RSS is its own."""
    merged = {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=10 * args.seconds + 900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        for line in lines[:-1]:
            kind, _, rest = line.partition(" ")
            if kind == "metric":
                name, value, unit = rest.split(" ")
                print(f"metric {workload}.{name} {value} {unit}")
                merged[f"{workload}.{name}"] = {"value": float(value), "unit": unit}
            else:
                print(f"{kind} {workload}: {rest}")
        correct = correct and proc.returncode == 0 and result.get("correct", False)
        attempted += result.get("attempted", 0)
        failed += result.get("failed", 1)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "persage", "__init__.py")):
        print("perfbench: src/persage not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
