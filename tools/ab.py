"""Paired A/B runs of the benchmark in two checkouts.

Runs ``perfbench/run.py`` from the root of each checkout for N pairs,
alternating which side runs first, so that drift in the host's speed falls
on both sides alike. For every metric it prints each side's median and
quartiles, raw (the ``metric`` lines) and host-corrected (the ``metrics`` of
the last line), and in how many pairs the change read better; ties count
for neither side. Standard library only.

Run from anywhere:

    python tools/ab.py --base PARENT_DIR --change CHANGE_DIR --pairs 10 \\
        --workload score --seed 17 --seconds 30 [--size acceptance]

Which way is better comes from the change checkout's ``BENCHMARK.json`` for
the corrected metrics, and from the unit for raw ones: rates (``1/s``) are
better higher, times and memory (``s``, ``ms``, ``MB``) lower. Metrics of
any other unit get no win count. The exit status is 1 when a run fails or
reports ``correct: false``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("train", "score", "retrieve")
HIGHER_UNITS = {"1/s"}
LOWER_UNITS = {"s", "ms", "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the parent checkout")
    parser.add_argument("--change", required=True, help="the changed checkout")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("acceptance", "tiny"),
                        default="acceptance")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for side in (args.base, args.change):
        if not os.path.isfile(os.path.join(side, "perfbench", "run.py")):
            parser.error(f"{side} holds no perfbench/run.py")
    return args


def parse_output(text):
    """(raw, corrected, correct) of one run's stdout.

    ``raw`` and ``corrected`` map a metric name to (value, unit).
    """
    lines = text.strip().splitlines()
    if not lines:
        return {}, {}, False
    raw = {}
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            name, value, unit = rest.split(" ")
            raw[name] = (float(value), unit)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return raw, {}, False
    corrected = {name: (float(m["value"]), m["unit"])
                 for name, m in result.get("metrics", {}).items()}
    return raw, corrected, bool(result.get("correct"))


def run_once(checkout, args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--size", args.size]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=10 * args.seconds + 900)
    raw, corrected, correct = parse_output(proc.stdout)
    if proc.returncode != 0 or not correct:
        sys.stderr.write(proc.stderr)
        correct = False
    return raw, corrected, correct


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def direction(name, unit, better):
    """+1 if higher is better, -1 if lower, 0 if unknown."""
    if name in better:
        return 1 if better[name] == "higher" else -1
    if unit in HIGHER_UNITS:
        return 1
    if unit in LOWER_UNITS:
        return -1
    return 0


def summarize(kind, base_runs, change_runs, better):
    """One row per metric that every run of both sides reports."""
    names = set.intersection(*(set(run) for run in base_runs + change_runs))
    rows = []
    for name in sorted(names):
        unit = change_runs[0][name][1]
        base = [run[name][0] for run in base_runs]
        change = [run[name][0] for run in change_runs]
        sign = direction(name, unit, better)
        wins = (sum(sign * (c - b) > 0 for b, c in zip(base, change))
                if sign else None)
        rows.append((kind, name, unit, quartiles(base), quartiles(change), wins))
    return rows


def _fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv=None):
    args = parse_args(argv)
    better = {}
    spec = os.path.join(args.change, "BENCHMARK.json")
    if os.path.isfile(spec):
        with open(spec) as fh:
            better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    runs = {"base": [], "change": []}
    ok = True
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            raw, corrected, correct = run_once(getattr(args, side), args)
            ok = ok and correct
            runs[side].append((raw, corrected))
            print(f"pair {pair + 1}/{args.pairs} {side}: "
                  f"{'correct' if correct else 'FAILED'}", file=sys.stderr)
    rows = []
    for index, kind in enumerate(("raw", "corrected")):
        rows += summarize(kind, [r[index] for r in runs["base"]],
                          [r[index] for r in runs["change"]], better)
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"{args.pairs} pairs: median [quartiles]")
    for kind, name, unit, base, change, wins in rows:
        won = "-" if wins is None else f"{wins}/{args.pairs}"
        print(f"{kind:9s} {name:34s} {unit:5s} base {_fmt(base):32s} "
              f"change {_fmt(change):32s} change won {won}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
