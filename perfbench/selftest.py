#!/usr/bin/env python3
"""The benchmark's own test: checks BENCHMARK.json against the benchmark
contract, then runs every workload in tiny mode, untraced and traced, and
checks that each run passes its correctness checks and reports exactly the
declared metrics with their units.

    python3 perfbench/selftest.py

Run from the repository root; exits non-zero on the first failure.
"""

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
SECONDS = 3  # per run; tiny mode runs every phase within it


def check(ok, what):
    if not ok:
        print("selftest FAILED: " + what)
        sys.exit(1)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= len(spec["command"]) <= 32 and
          all(len(c) <= 200 for c in spec["command"]), "command")
    check(1 <= len(spec["paths"]) <= 16 and
          all(PATH.match(p) and not p.startswith("/") and ".." not in p
              for p in spec["paths"]), "paths")
    check(isinstance(spec["run_seconds"], int) and
          1 <= spec["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    check(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    check(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    names = []
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and NAME.match(w["name"]) and
              len(w["why"]) <= 200 and "\n" not in w["why"],
              "workload " + str(w))
        names.append(w["name"])
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and
              NAME.match(m["name"]) and UNIT.match(m["unit"]) and
              m["better"] in ("higher", "lower") and
              0 < m["bound"] <= 0.25, "end_to_end " + str(m))
        names.append(m["name"])
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"} and NAME.match(m["name"])
              and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"),
              "per_layer " + str(m))
        names.append(m["name"])
    check(len(names) == len(set(names)), "names are unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and
          setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s carries the largest bound")
    check(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json size")


def run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", str(SECONDS),
           "--trace", trace, "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    what = "%s --trace %s" % (workload, trace)
    check(done.returncode == 0, what + " exit code %d:\n%s%s" %
          (done.returncode, done.stdout, done.stderr[-2000:]))
    result = json.loads(done.stdout.strip().split("\n")[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          what + " result keys")
    check(result["correct"] is True and result["failed"] == 0 and
          result["attempted"] >= 1, what + " correctness:\n" + done.stdout)
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in expected],
          what + " reports exactly the declared metrics")
    for m in expected:
        value = metrics[m["name"]]
        check(value["unit"] == m["unit"], what + " unit of " + m["name"])
        check(isinstance(value["value"], (int, float)) and
              math.isfinite(value["value"]), what + " value of " + m["name"])
        if trace == "0":
            check(value["value"] > 0, what + " " + m["name"] + " is 0")
    print("ok  %-16s trace=%s  %d metrics, %d operations" %
          (workload, trace, len(metrics), result["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    print("ok  BENCHMARK.json")
    for w in spec["workloads"]:
        run(w["name"], "0", spec["end_to_end"])
        run(w["name"], "1", spec["per_layer"])
    print("selftest passed")


if __name__ == "__main__":
    main()
