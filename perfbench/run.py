#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 0

Run from the repository root. The program is built with dune into the
repository's _build directory (the shared dune cache is switched off, so
nothing is written outside the checkout), then perfbench/src/perfbench.exe
runs the workload and prints its result as the last line of standard
output. Build output goes to standard error. The exit code is the
build's on a failed build, else the benchmark's.

On OCaml 5.1.1 the compiler's GC accounting can corrupt the heap (it keeps
the boxed floats Gc.counters returns, which that runtime leaves unrooted),
and the benchmark process then dies: of SIGSEGV, or with the runtime's
"Fatal error: allocation failure during minor GC". Such a run printed no
result. It is started again, at most MAX_RESTARTS times, and each death is
reported on standard error; a traced run also reports the count in its
result as the per-layer metric proc.restarts. A run that dies more often
fails.
"""

import glob
import json
import os
import subprocess
import sys
import time

TARGET = "./perfbench/src/perfbench.exe"
MAX_RESTARTS = 4
HEAP_FAULT = "Fatal error: allocation failure during minor GC"


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.stderr.write("perfbench: run from the repository root (no dune-project here)\n")
        return 2
    work = os.path.join(root, "perfbench", "_work")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", OCAML_RUNTIME_EVENTS_DIR=work)
    build = subprocess.run(
        ["dune", "build", "--root", root, TARGET],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "src", "perfbench.exe")
    args = sys.argv[1:]
    traced = "--trace" in args[:-1] and args[args.index("--trace") + 1] != "0"
    restarts = 0
    while True:
        t0 = time.monotonic()
        run = subprocess.run([exe] + args, cwd=root, env=env, capture_output=True, text=True)
        sys.stderr.write(run.stderr)
        # A traced run that dies leaves its runtime-event ring behind.
        for ring in glob.glob(os.path.join(work, "*.events")):
            os.remove(ring)
        if run.returncode >= 0 and HEAP_FAULT not in run.stderr:
            break
        took = time.monotonic() - t0
        how = f"signal {-run.returncode}" if run.returncode < 0 else "a corrupted heap"
        sys.stderr.write(f"perfbench: the run died of {how} after {took:.0f}s\n")
        if restarts == MAX_RESTARTS:
            sys.stderr.write(f"perfbench: it died {restarts + 1} times; giving up\n")
            return run.returncode if run.returncode > 0 else 128 - run.returncode
        restarts += 1
        sys.stderr.write(f"perfbench: restart {restarts} of at most {MAX_RESTARTS}\n")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode == 0 and traced:
        result = json.loads(lines[-1])
        result["metrics"]["proc.restarts"] = {"value": restarts, "unit": "count"}
        lines[-1] = json.dumps(result)
    sys.stderr.write(f"perfbench: {restarts} restart(s)\n")
    sys.stdout.write("\n".join(lines) + "\n")
    return run.returncode

if __name__ == "__main__":
    sys.exit(main())
