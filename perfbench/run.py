#!/usr/bin/env python3
"""Benchmark of the Bingo engine under a live update stream.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--scale full|tiny] [--fault none|drop-one-update]

Run from the root of a checkout. Builds the program and the benchmark from
source (see build.py), then runs one JVM with Spark local[k], k = min(4,
cores): set-up, warm-up, `--seconds` of update+walk rounds, and an untimed
check of the final engine state and of replayed walks against the ground
truth. The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. A traced run also writes its spans to
<build dir>/perfbench/spans/. The exit code is non-zero when the build fails
or the check finds a failure.

Workloads: tw-update-storm, lj-node2vec, go-fresh-rounds (see README.md).
"""

import argparse
import os
import signal
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

JVM_TIMEOUT_S = 170
# A fixed, pre-touched heap keeps page faults out of the timed rounds; the
# parallel collector has no concurrent GC threads competing with the tasks.
JVM_FLAGS = ["-Xms3g", "-Xmx3g", "-XX:+AlwaysPreTouch", "-XX:+UseParallelGC", "-XX:-UsePerfData"]


def git_sha():
    if not os.path.isdir(os.path.join(build.ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", build.ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--scale", default="full", choices=["full", "tiny"])
    ap.add_argument("--fault", default="none", choices=["none", "drop-one-update"])
    a = ap.parse_args()

    try:
        cp = build.build()
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2

    out = os.path.join(build.build_dir(), "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    spans = os.path.join(out, "spans", f"{a.workload}-{a.scale}-seed{a.seed}.jsonl")
    cmd = [
        "java", *JVM_FLAGS, f"-Djava.io.tmpdir={tmp}",
        "-Dlog4j2.configurationFile=" + os.path.join(build.HERE, "log4j2.properties"),
        "-cp", ":".join(cp), "repro.perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace,
        "--scale", a.scale, "--fault", a.fault, "--spans", spans,
        "--git-sha", git_sha(), "--source-id", build.source_id(),
    ]
    proc = subprocess.Popen(cmd, cwd=build.ROOT)

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        return proc.wait(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"[perfbench] run exceeded {JVM_TIMEOUT_S} s; stopped", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
