#!/usr/bin/env python3
"""Records the committed benchmark baselines, BENCH_*.json.

    python3 tools/bench_record.py [--seconds=25] [--out-dir=.]

For each workload in BENCHMARK.json, runs perfbench/run.py at seed 1 with
--trace 0 (the end-to-end metrics) and then --trace 1 (the per-layer
metrics), and writes BENCH_<workload>.json: the untraced run's context
line verbatim and every metric of both runs, each with its unit and, from
BENCHMARK.json, which direction is better. Then builds and runs
build/tools/distributed_bench at worlds 1, 2 and 4 and writes
BENCH_distributed.json with the same machine context. `bench_diff A B`
compares any two recordings of one file.

Writes nothing unless every run is correct with 0 failed operations.
Refuses to run while src/ or perfbench/ has uncommitted changes, so the
recorded git sha is the code that was measured. BENCH_*.json is
gitignored: commit a new recording with `git add -f`.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MACHINE_KEYS = ("nproc", "parallel_runtime_threads", "isa", "compiler",
                "source")
# World 1 trains for about 0.5 s on a 4-core host.
DISTRIBUTED_ARGS = ["--graphs=1536", "--batch=16", "--worlds=1,2,4"]


def fail(message):
    sys.exit("bench_record: " + message)


def run(cmd):
    """Runs cmd from the repo root and returns its stdout, which is also
    echoed to stderr as progress."""
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stderr.write(done.stdout)
    if done.returncode != 0:
        fail("%s exited %d" % (cmd[0], done.returncode))
    return done.stdout


def entry(name, value, unit, better):
    return {"name": name, "run_name": name, "run_type": "iteration",
            "iterations": 1, "real_time": value, "unit": unit,
            "better": better}


def perfbench(workload, seconds, trace):
    """(context, metrics) of one checked perfbench run."""
    lines = run([sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "1", "--seconds", str(seconds),
                 "--trace", trace]).splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        fail("%s --trace %s: correct=%s, %d failed" %
             (workload, trace, result["correct"], result["failed"]))
    context = next(json.loads(line[len("context "):]) for line in lines
                   if line.startswith("context "))
    return context, result["metrics"]


def build_type():
    with open(os.path.join(ROOT, "build", "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"],
                        help="perfbench run length (default: %(default)s)")
    parser.add_argument("--out-dir", default=ROOT,
                        help="where to write (default: the repo root)")
    args = parser.parse_args()

    dirty = run(["git", "status", "--porcelain", "--", "src", "perfbench"])
    if dirty:
        fail("commit src/ and perfbench/ first:\n" + dirty)
    better = {m["name"]: m["better"]
              for m in benchmark["end_to_end"] + benchmark["per_layer"]}

    files = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        context, metrics = perfbench(workload, args.seconds, "0")
        _, per_layer = perfbench(workload, args.seconds, "1")
        metrics.update(per_layer)
        unknown = sorted(set(metrics) - set(better))
        if unknown:
            fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
        files["BENCH_%s.json" % workload] = {
            "context": context,
            "benchmarks": [entry(name, m["value"], m["unit"], better[name])
                           for name, m in metrics.items()]}

    if not os.path.exists(os.path.join(ROOT, "build", "CMakeCache.txt")):
        run(["cmake", "-S", ".", "-B", "build", "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", "build", "--target", "distributed_bench", "-j",
         str(max(1, min(4, os.cpu_count() or 1)))])
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "distributed.json")
        run(["build/tools/distributed_bench", *DISTRIBUTED_ARGS,
             "--out-json=" + out])
        with open(out) as f:
            distributed = json.load(f)
    # The perfbench runs' machine, with the build type of build/.
    distributed["context"].update({k: context[k] for k in MACHINE_KEYS})
    distributed["context"]["build_type"] = build_type()
    files["BENCH_distributed.json"] = distributed

    os.makedirs(args.out_dir, exist_ok=True)
    for name, doc in files.items():
        path = os.path.join(args.out_dir, name)
        with open(path, "w") as f:  # one entry per line
            f.write('{"context": %s,\n "benchmarks": [\n  %s\n]}\n' % (
                json.dumps(doc["context"]),
                ",\n  ".join(json.dumps(b) for b in doc["benchmarks"])))
        print("wrote " + path)


if __name__ == "__main__":
    main()
