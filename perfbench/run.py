#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload kv-ycsb-a --seed 11 --seconds 10 --trace 0

Builds perfbench/bench.exe from the checkout's sources with dune (only
the first run compiles anything), runs it from the checkout root and
passes its output through.  The last stdout line is the JSON result:
{"correct", "attempted", "failed", "metrics"}; --trace 0 gives the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Exit status: 0 when every output check passed; 1 with "correct": false
when one failed; 2, with no result, when the sources or the toolchain
are missing or the build fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
SPANS = os.path.join("perfbench", "out")
WORKLOADS = ["group-paper", "kv-ycsb-a", "kv-failover", "all"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if x != "out")
            for f in sorted(files):
                if f == "dune" or f.endswith((".ml", ".mli")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    """The checkout's commit, if it is a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ROOT, "--display", "quiet",
             "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"build did not finish within {BUILD_TIMEOUT_S} s")
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    for need in ("dune-project", "BENCHMARK.json", os.path.join("lib", "sim"),
                 os.path.join("lib", "loadgen")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} is missing: run from a full checkout of the repository")
    build()

    env = dict(os.environ, PERFBENCH_COMMIT=commit(),
               PERFBENCH_SOURCE=source_digest())
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--spans-dir", SPANS]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(r.stdout)
        die(f"bench.exe exited {r.returncode} without a result")

    if a.workload != "all":
        got = set(result["metrics"])
        want = expected_metrics(a.trace == 1)
        if got != want:
            sys.stderr.write(r.stdout)
            die(f"metrics differ from BENCHMARK.json: missing "
                f"{sorted(want - got)}, unexpected {sorted(got - want)}")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(0 if r.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
