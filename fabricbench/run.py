#!/usr/bin/env python3
"""Builds and runs the fabric benchmark.

Run from the repository root:

  python3 fabricbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 fabricbench/run.py --selftest

Workloads: bulk_ingest, analytics_read, mixed_tenants (see BENCHMARK.json
for why each was chosen). The first call configures and builds this
package, and with it the fabric sources under src/, into
$CARGO_TARGET_DIR/fabricbench (default .bench_build/fabricbench); later
calls rebuild only what changed. Build output goes to stderr; the last
line of stdout is the fabricbench binary's JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "fabricbench")


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", out, "--target", target, "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(out, target)


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helper unit tests")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("fabric sources (src/) not found next to fabricbench/",
              file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return subprocess.run([build("fabricbench_selftest")]).returncode
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are "
                         "required")
        binary = build("fabricbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 3

    # Deterministic outcomes are compared across runs of the same binary.
    state = os.path.join(build_dir(), "runs", digest(binary))
    os.makedirs(state, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fingerprint-dir", os.path.join(state, "fingerprints")]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            state, f"spans_{args.workload}_{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
