#!/usr/bin/env python3
"""mca_bench: build the benchmark from source and run it.

Run from the repository root:

  python3 mca_bench/run.py --workload NAME --seed N --seconds T --trace 0|1
      One workload in one process.  The last line of standard output is one
      JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 mca_bench/run.py --all [--repeat R] [--seed S] [--smoke] [--out FILE]
      Every workload, each in a fresh process: warm-up, R timed runs, set-up
      samples, peak RSS, one traced run.  Writes the medians, quartiles,
      samples, model outputs and per-layer metrics as JSON (default
      .bench_build/mca_bench_all.json) and exits nonzero if any check fails.

  python3 mca_bench/run.py --compare BASE.json NEW.json
      Judges NEW against BASE (both written by --all) for every workload and
      end-to-end metric, and names the first exact count that differs.  Only
      a regression on a workload BENCHMARK.json lists sets the exit code;
      fleet_parallel runs in --all but is not gated.

The build (CMake, Release) goes to .bench_build/mca_bench.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "mca_bench")
BINARY = os.path.join(BUILD_DIR, "mca_bench")
WORKLOADS = ["fleet_steady", "fleet_faults", "fleet_parallel", "closed_loop_bg"]


def cpus():
    return len(os.sched_getaffinity(0))


def run_child(argv, **kwargs):
    """Runs argv to completion; the child is killed if this process is stopped."""
    with subprocess.Popen(argv, **kwargs) as child:
        try:
            return child.wait()
        except BaseException:
            child.kill()
            child.wait()
            raise


def build():
    """Configures (once) and builds the benchmark; exits nonzero on failure."""
    steps = []
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", str(cpus())])
    for step in steps:
        if run_child(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("mca_bench: build failed: " + " ".join(step))


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def spread(entry):
    return (entry["q3"] - entry["q1"]) / entry["median"] if entry["median"] else 0.0


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def end_to_end_spec():
    return {m["name"]: m for m in benchmark_json()["end_to_end"]}


def gated_workloads():
    """The workloads BENCHMARK.json lists; the others run in --all only."""
    return {w["name"] for w in benchmark_json()["workloads"]}


def run_all(args):
    repeat = args.repeat or (2 if args.smoke else 5)
    spec = end_to_end_spec()
    result = {"schema": 1, "smoke": args.smoke, "repeat": repeat,
              "workloads": {}}
    ok = True
    with tempfile.TemporaryDirectory(dir=os.path.dirname(BUILD_DIR)) as tmp:
        for name in WORKLOADS:
            detail_path = os.path.join(tmp, name + ".json")
            argv = [BINARY, "--workload", name, "--repeat", str(repeat),
                    "--trace", "1", "--detail", detail_path]
            if args.seed is not None:
                argv += ["--seed", str(args.seed)]
            if args.smoke:
                argv.append("--smoke")
            code = run_child(argv)
            if not os.path.exists(detail_path):
                sys.exit("mca_bench: %s wrote no result (exit %d)" % (name, code))
            with open(detail_path) as f:
                detail = json.load(f)
            ok = ok and code == 0
            for metric, entry in detail["end_to_end"].items():
                samples = detail["samples"][metric]
                q1, q2, q3 = quartiles(samples) if samples else (0.0, 0.0, 0.0)
                entry.update(median=q2, q1=q1, q3=q3, n=len(samples),
                             samples=samples)
                del entry["value"], entry["listed"], entry["exact"]
            del detail["samples"]
            result["workloads"][name] = detail
    result["host"] = result["workloads"][WORKLOADS[0]]["host"]
    result["advisory"] = any(w["advisory"] for w in result["workloads"].values())
    result["checks_passed"] = ok
    steady = result["workloads"]["fleet_steady"]["end_to_end"]["requests_per_s"]
    parallel = result["workloads"]["fleet_parallel"]["end_to_end"]["requests_per_s"]
    result["derived"] = {"exp.parallel_speedup": parallel["median"] / steady["median"]
                         if steady["median"] else 0.0}

    print("\n%-16s %-16s %14s %14s %14s %3s %8s" %
          ("workload", "metric", "median", "q1", "q3", "n", "spread"))
    for name, detail in result["workloads"].items():
        for metric, e in detail["end_to_end"].items():
            note = "  (spread above the bound: raise --repeat)" \
                if spread(e) > spec[metric]["bound"] else ""
            print("%-16s %-16s %14.6g %14.6g %14.6g %3d %7.2f%%%s" %
                  (name, metric, e["median"], e["q1"], e["q3"], e["n"],
                   100 * spread(e), note))
    print("exp.parallel_speedup %.3f" % result["derived"]["exp.parallel_speedup"])

    out = args.out or os.path.join(ROOT, ".bench_build", "mca_bench_all.json")
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print("wrote %s (%s)" % (out, "all checks passed" if ok else "CHECKS FAILED"))
    return 0 if ok else 1


def verdict(base, new, bound, better):
    """improved / unchanged / regressed / unresolved, and the signed change.

    A median that moves by more than the bound is improved or regressed;
    when either side's spread is wider than the bound the metric is
    unresolved, unless every run of one side beats every run of the other.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (new["median"] - base["median"]) / base["median"]
    beats = (lambda a, b: a < b) if better == "lower" else (lambda a, b: a > b)
    if max(spread(base), spread(new)) > bound:
        if all(beats(n, b) for n in new["samples"] for b in base["samples"]):
            return "improved", worse
        if all(beats(b, n) for n in new["samples"] for b in base["samples"]):
            return "regressed", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse > bound:
        return "improved", worse
    return "unchanged", worse


def exact_counts(detail):
    yield "fingerprint", detail["model"].get("fingerprint")
    for name, m in detail["per_layer"].items():
        if m["exact"]:
            yield name, m["value"]


def compare(base_path, new_path):
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    for path, result in ((base_path, base), (new_path, new)):
        if result["advisory"]:
            sys.exit("mca_bench: %s is a Debug or sanitized run; "
                     "its timings cannot be compared" % path)
    if base["smoke"] != new["smoke"]:
        sys.exit("mca_bench: one result is --smoke and the other is not")
    spec = end_to_end_spec()
    gated = gated_workloads()
    regressed = False
    first_diff = None
    print("%-16s %-14s %32s %32s %8s %6s  %s" %
          ("workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
           "change", "bound", "verdict"))
    for name, nd in new["workloads"].items():
        bd = base["workloads"].get(name)
        if bd is None:
            print("%-16s missing from %s" % (name, base_path))
            continue
        if bd["seed"] != nd["seed"]:
            sys.exit("mca_bench: %s ran with seed %d in BASE and %d in NEW"
                     % (name, bd["seed"], nd["seed"]))
        for metric, m in spec.items():
            b, n = bd["end_to_end"][metric], nd["end_to_end"][metric]
            v, worse = verdict(b, n, m["bound"], m["better"])
            regressed = regressed or (v == "regressed" and name in gated)
            print("%-16s %-14s %32s %32s %+7.2f%% %5.0f%%  %s%s" %
                  (name, metric,
                   "%.6g [%.6g, %.6g]" % (b["median"], b["q1"], b["q3"]),
                   "%.6g [%.6g, %.6g]" % (n["median"], n["q1"], n["q3"]),
                   100 * worse, 100 * m["bound"], v,
                   "" if name in gated else " (not gated)"))
        if first_diff is None:
            base_counts = dict(exact_counts(bd))
            for count, value in exact_counts(nd):
                if base_counts.get(count) != value:
                    first_diff = (name, count, base_counts.get(count), value)
                    break
    print("(change: positive is worse)")
    if first_diff:
        print("first exact count that differs: %s %s: %s -> %s" % first_diff)
    else:
        print("every exact count is identical")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    # SIGTERM unwinds through sys.exit, so run_child kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.compare:
        return compare(*args.compare)
    if not args.all and not args.workload:
        parser.error("one of --workload, --all or --compare is required")
    build()
    if args.all:
        return run_all(args)
    argv = [BINARY, "--workload", args.workload, "--trace", args.trace]
    argv += ["--repeat", str(args.repeat)] if args.repeat else \
        ["--seconds", str(args.seconds)]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    sys.stdout.flush()
    return run_child(argv)


if __name__ == "__main__":
    sys.exit(main())
