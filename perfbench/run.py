#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload usecase-gpt3 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Builds the `perfbench` package
(release, offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs
one workload with every evaluation thread pinned to the machine's core
count, and prints the run's metadata line followed by its result line:
`{"correct", "attempted", "failed", "metrics"}`. Exits non-zero, without
a result line, when the build or the run fails; exits non-zero after the
result line when a correctness check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("usecase-gpt3", "checked-moe-warm", "serve-mix")
# one run must finish within 180 s; leave room for start-up and checks
RUN_TIMEOUT_S = 165
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def source_digest():
    """The commit when the checkout is a git work tree, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env["PREDTOP_THREADS"] = str(threads)

    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--threads", str(threads),
        # relative, so Unix socket paths under it stay short
        "--out-dir", os.path.relpath(os.path.join(HERE, "out")),
        "--commit", source_digest(),
    ]
    try:
        run = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
        valid = set(result) == RESULT_KEYS and result["attempted"] >= 1
    except (IndexError, ValueError, TypeError):
        valid = False
    if not valid:
        print("perfbench: run produced no result", file=sys.stderr)
        sys.stderr.write(run.stdout)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
