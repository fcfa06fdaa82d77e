#!/usr/bin/env python3
"""Build and run the simulator's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

The first form configures and builds the benchmark package (this
directory's CMakeLists.txt, which compiles the simulator from ../src)
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
runs one workload. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Traced runs write their Chrome
trace into the build directory's traces/ folder.

--self-check runs the benchmark's own tests: every workload at a tiny
size, traced and untraced; the printed metric names and units must match
BENCHMARK.json (and manifest.json) exactly; simulated metrics must not
depend on the thread count; and a run that corrupts a copied
PipelineStats must fail.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure (once) and build; exit 1 on failure."""
    jobs = str(min(4, nproc()))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            sys.exit(f"perfbench: cannot run {step[0]}: {err}")
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")


def run(args, env=None):
    """Run the benchmark binary; returns (exit code, stdout, stderr)."""
    done = subprocess.run([BINARY] + args, capture_output=True, text=True,
                          env=env, timeout=900)
    return done.returncode, done.stdout, done.stderr


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "manifest.json")) as f:
        manifest = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    simulated = {m["name"] for m in manifest["metrics"]
                 if m["kind"] == "simulated"}
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    def described(metrics):
        return [(m["name"], m["unit"], m["better"]) for m in metrics]

    expect(described(manifest["metrics"]) ==
           described(spec["end_to_end"] + spec["per_layer"]),
           "manifest.json describes exactly the BENCHMARK.json metrics")
    expect([w["name"] for w in manifest["workloads"]] ==
           [w["name"] for w in spec["workloads"]],
           "manifest.json describes exactly the BENCHMARK.json workloads")

    def tiny(workload, trace, extra=(), env=None):
        return run(["--workload", workload, "--seed", "1", "--seconds",
                    "0.05", "--trace", str(trace), "--trace-dir", traces,
                    "--tiny"] + list(extra), env)

    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, out, err = tiny(name, trace)
            if code != 0:
                expect(False, f"{name} trace={trace} exits 0: {err[-400:]}")
                continue
            res = result_of(out)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1,
                   f"{name} trace={trace} is correct")
            expect(got == expected[trace],
                   f"{name} trace={trace} prints exactly the BENCHMARK.json "
                   f"metrics and units")

    # Simulated metrics and layer counters must not depend on threads.
    for trace in (0, 1):
        seen = {}
        for threads in range(1, nproc() + 1):
            env = dict(os.environ, OURO_THREADS=str(threads))
            code, out, _ = tiny("fleet-storm", trace, env=env)
            if code != 0:
                expect(False, f"fleet-storm runs with {threads} threads")
                continue
            metrics = result_of(out)["metrics"]
            seen[threads] = {k: v["value"] for k, v in metrics.items()
                             if k in simulated}
        expect(len(seen) == nproc()
               and all(v == seen[1] for v in seen.values()),
               f"fleet-storm trace={trace}: simulated metrics identical "
               f"across 1..{nproc()} threads")

    # The repetition check must catch a corrupted PipelineStats copy.
    code, out, err = tiny("decode-steady", 0, ["--corrupt-stats"])
    expect(code != 0 and "CHECK FAILED" in err
           and '"correct": true' not in out,
           "a corrupted PipelineStats copy fails the run")

    print("self-check:", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    opts = parser.parse_args()
    build()
    if opts.self_check:
        return self_check()
    if not opts.workload:
        parser.error("--workload is required")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    return subprocess.run([BINARY, "--workload", opts.workload,
                           "--seed", opts.seed, "--seconds", opts.seconds,
                           "--trace", opts.trace,
                           "--trace-dir", traces]).returncode


if __name__ == "__main__":
    sys.exit(main())
