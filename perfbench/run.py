#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload exact-pipeline --seed 1 \
        --seconds 25 --trace 0 [--size full|tiny]

Run from the repository root. The first run configures and compiles
perfbench/ (which builds the sgcl library from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. The measuring program's output is passed through;
its last line is one JSON object with the keys correct, attempted, failed
and metrics. Exits non-zero, without a result line, when the sources are
missing, the build fails, or the program fails.

An untraced run is two passes of the workload. The first runs under
glibc's malloc defaults, as the library's users run it, and gives every
metric but peak_rss_mib. A second, one-second pass with a single malloc
arena (MALLOC_ARENA_MAX=1) gives peak_rss_mib. On a 4-vCPU host, with one
arena per thread the peak of stream-dp2 ranged over 82-166 MiB between
seeds, and over 78-85 MiB with one arena; but one arena also slowed
stream-dp2's training by about 11% and sped up exact-pipeline's by about
4%. Both passes' correctness checks count.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("exact-pipeline", "stream-dp2", "serve-open")
RUN_TIMEOUT_S = 175  # both passes together
MEMORY_PASS_SECONDS = 1


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """The git commit when run inside a clone, else a digest of the sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, check=True,
                                 timeout=10).stdout.strip()
            return "git:" + sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_pass(cmd, env, root, deadline):
    """Runs the measuring program; returns its output lines and result."""
    what = "%s (%s)" % (cmd[1], cmd[3])
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (what, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if (done.returncode != 0 or not isinstance(result, dict) or
            set(result) != {"correct", "attempted", "failed", "metrics"}):
        sys.stderr.write(done.stdout)
        fail("%s failed (exit %d)" % (what, done.returncode))
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("the sgcl sources (src/) are missing next to perfbench/")
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_root):
        target_root = os.path.join(root, target_root)
    build_dir = os.path.join(target_root, "perfbench")
    build(root, build_dir)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    scratch = os.path.join(build_dir, "scratch-%d" % os.getpid())

    def command(seconds):
        return [os.path.join(build_dir, "perfbench"),
                "--workload=" + args.workload, "--seed=%d" % args.seed,
                "--seconds=%d" % seconds, "--trace=" + args.trace,
                "--size=" + args.size, "--scratch-dir=" + scratch]

    cmd = command(args.seconds)
    if args.trace == "1":
        cmd.append("--trace-out=" + os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed)))
    env = dict(os.environ, PERFBENCH_SOURCE_ID=source_id(root))
    env.pop("MALLOC_ARENA_MAX", None)
    lines, result = run_pass(cmd, env, root, deadline)
    if args.trace == "0":
        _, memory = run_pass(command(MEMORY_PASS_SECONDS),
                             dict(env, MALLOC_ARENA_MAX="1"), root, deadline)
        rss = memory["metrics"]["peak_rss_mib"]["value"]
        lines.append("memory pass (MALLOC_ARENA_MAX=1): peak_rss_mib %.4f "
                     "MiB; under the defaults %.4f MiB" %
                     (rss, result["metrics"]["peak_rss_mib"]["value"]))
        result["metrics"]["peak_rss_mib"]["value"] = rss
        result["correct"] = result["correct"] and memory["correct"]
        result["attempted"] += memory["attempted"]
        result["failed"] += memory["failed"]
    print("\n".join(lines))
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
