#!/usr/bin/env python3
"""Build and run swanbench, the end-to-end benchmark of swan.

    python3 swanbench/run.py --workload cold_fig02 --seed 1 --seconds 20 --trace 0
    python3 swanbench/run.py --selfcheck

Run from the root of a swan source tree. The first run configures and
builds swanbench/ (the swan library from the tree plus the benchmark
binary, CMake Release) under $CARGO_TARGET_DIR, default .bench_build;
later runs rebuild incrementally. All scratch files (cache dirs, span
files) live under that directory too. The benchmark's stdout is passed
through; its last line is the JSON result. See swanbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_fig02", "fanout_sweep", "warm_rerun")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("swanbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the sources the benchmark builds: the fingerprint
    when the tree is not a git checkout."""
    h = hashlib.sha256()
    tops = ["CMakeLists.txt", "cmake", "include", "src", "swanbench"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(build_root):
    build_dir = os.path.join(build_root, "swanbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "swanbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "swanbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0x5eed5a17)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="tiny-grid smoke run plus a corrupted-entry check")
    args = ap.parse_args()
    if not args.selfcheck and not args.workload:
        ap.error("--workload or --selfcheck is required")

    for need in ("CMakeLists.txt", "include/swan/swan.hh", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no swan source tree around swanbench/ (missing %s)" % need)

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    work = os.path.join(build_root, "work")
    cmd = [binary, "--work-dir", work, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    if args.selfcheck:
        cmd.append("--selfcheck")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
