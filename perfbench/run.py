#!/usr/bin/env python3
"""Entry point of the repo benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the morph libraries, the
morph-served daemon and the perfbench binary from source into
$CARGO_TARGET_DIR (default .bench_build), then runs the binary, which
prints the report and, as its last line, the result JSON. Build output
goes to stderr. Exits nonzero without a result when the sources are
missing or the build fails, and nonzero after the result when an answer
is wrong.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no morph sources under src/ (run from a checkout root)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench", "morph-served"]]
    if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["dmr-refine", "graph-solve", "serve-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    ap.add_argument("--corrupt", default="", help="test hook: perturb one answer")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.abspath(build_dir), ROOT)
    build(build_dir)
    # Socket and journal paths stay short and inside the checkout.
    out_dir = os.path.join(build_dir, "run")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=" + args.trace,
           "--bin-dir=" + build_dir, "--out-dir=" + out_dir,
           "--declared=BENCHMARK.json"]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt=" + args.corrupt)
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
