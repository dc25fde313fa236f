#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

Usage, from the repository root:

    python3 perfbench/run.py --workload kv-zipf --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe with dune from the checkout's own sources, runs
it once, and passes its output through.  The last line of standard output
is the run's JSON result; the exit code is non-zero when the build fails,
the run fails or times out, or any answer or census check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant", choices=("answer", "census"),
                    help="feed the checker a planted violation; the run must fail")
    args = ap.parse_args()

    # The shared dune cache lives outside the checkout; keep the build
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not run: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.plant:
        cmd += ["--plant", args.plant]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    text = out.decode(errors="replace")
    lines = text.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(text)
        fail("run printed no result (exit code %d)" % proc.returncode)
    sys.stdout.write(text)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
