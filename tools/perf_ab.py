#!/usr/bin/env python3
"""A/B wall-time runner: a base revision against the working tree.

Run from anywhere inside a checkout:

    python3 tools/perf_ab.py [--base REV] [--pairs N] [--seconds S]
                             [--workloads a,b] [--seeds 1,7919]
                             [--align 16,32,64] [--tiny] [--work DIR]
    python3 tools/perf_ab.py --micro 'SystemBuild|InterBlock' ...

The base side is REV (default HEAD) exported with `git archive` into
DIR/base-src; the change side is the working tree this script lives
in. Each side is built once per function alignment (`-falign-functions`
through CMAKE_CXX_FLAGS, so nothing under perfbench/ is edited) into
DIR/<side>-a<N>, Release, from its own sources.

For every alignment, workload and seed the runner makes N pairs of
perfbench runs (`--trace 0`), alternating which side goes first, and
prints each BENCHMARK.json `end_to_end` metric's median and quartiles
per side, the ratio of medians (change / base) and the pairs the change
won. A closing table gives, per host metric, the sign of the median
change under every alignment: a gain counts only where every alignment
agrees.
After the pairs, each side runs once traced (`--trace 1`) so the
per-layer counters are compared too.

Exit status: 1 if any metric whose perfbench/manifest.json `kind` is
`simulated` differs between the sides (or between runs of one side),
or if a run fails its own checks; 0 otherwise. Host times never fail
the run: reading them is the user's job.

--micro FILTER times google-benchmark micro-kernels instead: each side
builds bench_micro_kernels from the root CMake project, with the change
side's bench/micro_kernels.cc copied over the base export so that both
libraries are timed by the same bench source, and the runner prints
each matching benchmark's median, quartiles, minimum and wins over the
pairs (real time).

Stdlib only. The host may alternate between a fast and a slow mode for
seconds at a time, so only paired, alternating runs are compared.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Write revision @p rev's tree to @p dest (replacing it)."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit(f"perf_ab: git archive {rev} failed")


def build(source, build_dir, align, target, jobs):
    """Configure @p source (a CMake project) at @p align and build
    @p target; returns the binary's path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if align:
            configure.append(f"-DCMAKE_CXX_FLAGS=-falign-functions={align}")
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs),
                    "--target", target], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def run_perfbench(binary, workload, seed, seconds, tiny, trace):
    """One perfbench run; returns {metric: value}. Exits on a failed
    run (its checks failing is a result the runner must not average
    away)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", os.path.dirname(binary)]
    if tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.exit(f"perf_ab: {' '.join(cmd)} failed:\n{done.stderr[-800:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"perf_ab: {' '.join(cmd)} reports incorrect outputs")
    return {k: v["value"] for k, v in result["metrics"].items()}


def run_micro(binary, bench_filter, min_time):
    """One micro-kernel run; returns {benchmark: real time}."""
    done = subprocess.run(
        [binary, f"--benchmark_filter={bench_filter}",
         f"--benchmark_min_time={min_time}", "--benchmark_format=json"],
        capture_output=True, text=True, check=True, timeout=900)
    report = json.loads(done.stdout)
    return {b["name"]: (b["real_time"], b["time_unit"])
            for b in report["benchmarks"]}


def summary(values):
    """(q1, median, q3) of @p values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fmt(x):
    return f"{x:.4g}"


def compare(name, base, change, lower_is_better):
    """One printed row: medians, quartiles, ratio and wins; returns the
    ratio of medians (change / base)."""
    bq1, bmed, bq3 = summary(base)
    cq1, cmed, cq3 = summary(change)
    wins = sum((c < b) if lower_is_better else (c > b)
               for b, c in zip(base, change))
    ratio = cmed / bmed if bmed else float("nan")
    print(f"  {name:<30} base {fmt(bmed):>10} [{fmt(bq1)}, {fmt(bq3)}]"
          f"  change {fmt(cmed):>10} [{fmt(cq1)}, {fmt(cq3)}]"
          f"  ratio {ratio:.3f}  wins {wins}/{len(base)}")
    return ratio


def pairs(n, run_base, run_change):
    """@p n alternating pairs; returns (base results, change results)."""
    base, change = [], []
    for i in range(n):
        if i % 2 == 0:
            base.append(run_base())
            change.append(run_change())
        else:
            change.append(run_change())
            base.append(run_base())
    return base, change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="git revision of the base side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="perfbench --seconds per run")
    parser.add_argument("--workloads", default=None,
                        help="comma list (default: every BENCHMARK.json "
                             "workload)")
    parser.add_argument("--seeds", default="1",
                        help="comma list of perfbench seeds")
    parser.add_argument("--align", default="16,32,64",
                        help="comma list of -falign-functions values; "
                             "0 builds with the compiler default")
    parser.add_argument("--tiny", action="store_true",
                        help="perfbench --tiny (a smoke run)")
    parser.add_argument("--micro", metavar="FILTER",
                        help="time bench_micro_kernels benchmarks "
                             "matching FILTER instead of perfbench")
    parser.add_argument("--min-time", default="0.2",
                        help="--benchmark_min_time of a --micro run")
    parser.add_argument("--work", default=os.path.join(ROOT, ".perf_ab"),
                        help="export and build directory")
    parser.add_argument("--jobs", type=int,
                        default=min(4, len(os.sched_getaffinity(0))))
    opts = parser.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    if opts.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "manifest.json")) as f:
        manifest = json.load(f)
    simulated = {m["name"] for m in manifest["metrics"]
                 if m["kind"] == "simulated"}
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = [int(s) for s in opts.seeds.split(",")]
    aligns = [int(a) for a in opts.align.split(",")]

    base_rev = git("rev-parse", "--short", opts.base)
    work = os.path.abspath(opts.work)
    base_src = os.path.join(work, "base-src")
    export(base_rev, base_src)
    sources = {"base": base_src, "change": ROOT}
    if opts.micro:
        shutil.copy(os.path.join(ROOT, "bench", "micro_kernels.cc"),
                    os.path.join(base_src, "bench", "micro_kernels.cc"))

    print(f"perf_ab: base {base_rev} vs the working tree; "
          f"{opts.pairs} pairs; alignments {opts.align}")
    binaries = {}
    for align in aligns:
        for side, source in sources.items():
            build_dir = os.path.join(work, f"{side}-a{align}")
            if opts.micro:
                binaries[side, align] = build(source, build_dir, align,
                                              "bench_micro_kernels",
                                              opts.jobs)
            else:
                binaries[side, align] = build(
                    os.path.join(source, "perfbench"), build_dir, align,
                    "perfbench", opts.jobs)

    if opts.micro:
        for align in aligns:
            print(f"== micro-kernels, align {align} "
                  f"(real time; lower is better) ==")
            base, change = pairs(
                opts.pairs,
                lambda: run_micro(binaries["base", align], opts.micro,
                                  opts.min_time),
                lambda: run_micro(binaries["change", align], opts.micro,
                                  opts.min_time))
            for name in base[0]:
                unit = base[0][name][1]
                b = [r[name][0] for r in base]
                c = [r[name][0] for r in change]
                compare(f"{name} [{unit}]", b, c, True)
                print(f"  {'':<30} min  base {fmt(min(b))}  change "
                      f"{fmt(min(c))}")
        return 0

    mismatches = []

    def check_simulated(where, runs):
        """Every simulated metric of every run in @p runs equals the
        first run's."""
        first = runs[0][1]
        for label, metrics in runs[1:]:
            for name in sorted(simulated & metrics.keys()):
                if metrics[name] != first.get(name):
                    mismatches.append(f"{where}: {name} {label} "
                                      f"{metrics[name]!r} != "
                                      f"{first.get(name)!r}")

    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    signs = {}
    for workload in workloads:
        for seed in seeds:
            for align in aligns:
                where = f"{workload} seed {seed} align {align}"
                print(f"== {where} ==")
                base, change = pairs(
                    opts.pairs,
                    lambda: run_perfbench(binaries["base", align], workload,
                                          seed, opts.seconds, opts.tiny, 0),
                    lambda: run_perfbench(binaries["change", align],
                                          workload, seed, opts.seconds,
                                          opts.tiny, 0))
                for metric in spec["end_to_end"]:
                    name = metric["name"]
                    ratio = compare(name, [r[name] for r in base],
                                    [r[name] for r in change], lower[name])
                    if name not in simulated:
                        signs.setdefault((workload, seed, name), []).append(
                            "=" if ratio == 1 else
                            ("-" if ratio < 1 else "+"))
                check_simulated(where, [("base", r) for r in base] +
                                [("change", r) for r in change])
            # The per-layer counters (mapping.byte_hops and the rest)
            # print only when traced: one traced run per side.
            traced = [(side, run_perfbench(binaries[side, aligns[0]],
                                           workload, seed, opts.seconds,
                                           opts.tiny, 1))
                      for side in ("base", "change")]
            check_simulated(f"{workload} seed {seed} traced", traced)

    print("== sign of each host metric's median change (change vs base) "
          f"per alignment {opts.align} ==")
    for (workload, seed, name), row in signs.items():
        agree = "agree" if len(set(row)) == 1 else "DISAGREE"
        print(f"  {workload:<14} seed {seed:<5} {name:<30} "
              f"{' '.join(row)}  {agree}")
    if mismatches:
        print("simulated metrics DIFFER:")
        for line in mismatches:
            print("  " + line)
        return 1
    print("simulated metrics: identical on both sides")
    return 0


if __name__ == "__main__":
    sys.exit(main())
