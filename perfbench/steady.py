#!/usr/bin/env python3
"""Run each workload repeatedly and print how steady its metrics are.

    python3 perfbench/steady.py                 ten runs of every workload
    python3 perfbench/steady.py --runs 5 --workloads rebuild --first-seed 100

Run from the repository root. Each run is `perfbench/run.py --workload W
--seed S --seconds <run_seconds> --trace 0` with a new seed. For every
end-to-end metric the table shows the median of the runs, the spread
(distance between the first and third quartile as a share of the median,
as statistics.quantiles(values, n=4) gives them), the metric's bound from
BENCHMARK.json and the spread as a share of the bound; a spread above a
third of its bound is flagged, and one above the bound (for any metric,
setup_s too) makes the exit code 1, as do an incorrect run, a failed share
that differs between runs and a run that fails. The host.probe_ms spread is
that of the median time of the probe, the fixed loop the benchmark times
between operations (see README.md): when it is wide, the host's speed
moved between runs, and the spreads of the metrics show how much of that
the reading against the probe took out. Process restarts (see run.py) are
counted and printed.
"""

import argparse
from fractions import Fraction
import json
import re
import statistics
import subprocess
import sys


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # The probe's fastest, median and slowest time over the timed loop.
    probe = re.findall(r'"host_probe_ms":\[([0-9.]+),([0-9.]+),([0-9.]+)\]', proc.stderr)
    host = [float(probe[-1][1])] if probe else []
    restarts = sum(int(x) for x in re.findall(r"perfbench: (\d+) restart", proc.stderr))
    return result, host, restarts


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values, hosts, shares, restarts = {}, [], set(), 0
        for k in range(args.runs):
            seed = args.first_seed + k
            result, host, r = run_once(workload, seed, args.seconds)
            restarts += r
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: incorrect")
            shares.add(Fraction(result["failed"], result["attempted"]))
            hosts.extend(host)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr, flush=True)
        _, host_spread = spread(hosts) if hosts else (0, 0)
        print(f"\n{workload}: {args.runs} runs, failed share {sorted(str(s) for s in shares)}, "
              f"host.probe_ms spread {host_spread:.3f}, process restarts {restarts}")
        print(f"  {'metric':<18}{'median':>14}{'spread':>9}{'bound':>8}{'spread/bound':>14}")
        for name, vals in values.items():
            med, sp = spread(vals)
            bound = bounds.get(name)
            ratio = sp / bound if bound else float("nan")
            flag = "" if ratio < 1 / 3 else "  <- above a third of its bound"
            if ratio > 1:
                ok = False
                flag = "  <- above its bound"
            print(f"  {name:<18}{med:>14.4f}{sp:>9.4f}{bound:>8.2f}{ratio:>14.2f}{flag}")
            print("      " + " ".join(f"{v:.6g}" for v in vals), file=sys.stderr)
        if len(shares) > 1:
            ok = False
            print("  failed share differs between runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
