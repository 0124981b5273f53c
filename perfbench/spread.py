"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a checkout:

    python3 perfbench/spread.py --workloads train score retrieve --seeds 1 10
    python3 perfbench/spread.py --seeds 1 10 --baseline perfbench/BASELINE.json

Runs ``perfbench/run.py --trace 0`` once per workload and seed, one run at
a time, with ``run_seconds`` from BENCHMARK.json. For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and their distance as a share of the median, next to the metric's bound.
``--baseline`` also runs each workload once traced, with the first seed,
and writes the medians and spreads of every metric, the per-layer metrics,
the environment and the seeds to a JSON file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env, detail = None, {}
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "env":
            env = json.loads(rest)
        elif kind == "metric":
            name, value, unit = rest.split(" ")
            detail[name] = (float(value), unit)
    return env, detail, json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["train", "score", "retrieve"])
    parser.add_argument("--seeds", nargs=2, type=int, default=[1, 10],
                        metavar=("FIRST", "LAST"))
    parser.add_argument("--baseline", help="write medians and environment here")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.seeds[0], args.seeds[1] + 1))
    steady = True
    baseline = {"seeds": seeds, "run_seconds": bench["run_seconds"],
                "workloads": {}}
    for workload in args.workloads:
        values, details = {}, {}
        for seed in seeds:
            env, detail, result = run_once(workload, seed, bench["run_seconds"])
            baseline.setdefault("environment", {
                k: v for k, v in env.items() if k not in ("seed", "workload")})
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result {result}")
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, (value, unit) in detail.items():
                details.setdefault(name, (unit, []))[1].append(value)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
                + f" (host_slowdown={detail['host_slowdown'][0]:.4g})",
                flush=True)
        for name, vals in values.items():
            median, q1, q3, share = spread(vals)
            ok = name == "setup_s" or share <= bounds[name] / 3
            steady = steady and ok
            print(f"{workload:8s} {name:18s} median {median:11.6g} "
                  f"q1 {q1:11.6g} q3 {q3:11.6g} spread {share:7.2%} "
                  f"bound {bounds[name]:.2f} {'ok' if ok else 'WIDE'}")
        baseline["workloads"][workload] = {
            "end_to_end": {name: {"median": statistics.median(vals),
                                  "quartile_spread": spread(vals)[3]}
                           for name, vals in values.items()},
            "raw": {name: {"median": statistics.median(vals), "unit": unit,
                           "quartile_spread": spread(vals)[3]}
                    for name, (unit, vals) in details.items()}}
        if args.baseline:
            _, traced, result = run_once(workload, seeds[0],
                                         bench["run_seconds"], trace=1)
            if not result["correct"]:
                print(f"{workload} traced: incorrect result")
                steady = False
            baseline["workloads"][workload]["traced_seed"] = seeds[0]
            baseline["workloads"][workload]["per_layer"] = {
                name: value for name, (value, _) in traced.items()}
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print("steady" if steady else "not steady: a spread exceeds a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
