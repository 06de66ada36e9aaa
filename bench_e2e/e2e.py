#!/usr/bin/env python3
"""Driver of streamflow's end-to-end benchmark (python3, standard library).

  e2e.py measure --workload NAME --seed S [--seconds N] [--trace 0|1]
      Builds bench_e2e (CMake, Release) under .bench_build/ -- or under
      $CARGO_TARGET_DIR when set -- and runs one workload in its own
      process. The last stdout line is the result JSON.

  e2e.py run [--sets 2] [--reps 5] [--seed 1] [--vary-seed] [--no-trace]
             [--out FILE]
      Runs every workload --reps times per set (all on --seed, or on seed,
      seed+1, ... with --vary-seed) plus one traced run per set, prints one
      table of every metric by name and unit, and writes every result to
      FILE. --seconds defaults to BENCHMARK.json's run_seconds.

  e2e.py compare A.json [B.json]
      Applies the bounds in BENCHMARK.json to the runs of A and B, or to the
      first two sets of A alone: each end-to-end metric of each workload is
      agree, regress or unresolved. Also compares the count-type layer
      metrics and the result digests. Exits 1 on a regression.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["analyze-cold", "analyze-warm", "analyze-strict", "simulate",
             "search-portfolio"]
RUN_TIMEOUT_S = 175


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "bench_e2e"


def build():
    """Configures once, then brings bench_e2e up to date; returns its path."""
    out = build_dir()
    steps = []
    if not (out / "build.ninja").exists() and not (out / "Makefile").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "bench_e2e",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.exit("e2e.py: build failed: " + " ".join(step))
    return out / "bench_e2e"


def bench_command(exe, workload, seed, seconds, trace):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if str(trace) == "1":
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    return cmd


def measure(args):
    cmd = bench_command(build(), args.workload, args.seed, args.seconds,
                        args.trace)
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"e2e.py: {args.workload} ran past {RUN_TIMEOUT_S} s")


def run_once(exe, workload, seed, seconds, trace):
    cmd = bench_command(exe, workload, seed, seconds, trace)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    info = next(json.loads(line[len("# info "):]) for line in lines
                if line.startswith("# info "))
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": done.returncode, "info": info,
            "result": json.loads(lines[-1])}


def spread(values):
    """Interquartile range as a share of the median (0 below two values)."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def values_of(runs, workload, trace, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]]


def print_table(sets):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] +
             SPEC["per_layer"]}
    header = f"{'workload':<17} {'metric':<34} {'unit':<9}"
    for i in range(len(sets)):
        header += f" {'set ' + str(i + 1) + ' median':>16} {'spread':>7}"
    print(header)
    for workload in WORKLOADS:
        for trace, metrics in (("0", SPEC["end_to_end"]),
                               ("1", SPEC["per_layer"])):
            for metric in metrics:
                name = metric["name"]
                per_set = [values_of(s["runs"], workload, trace, name)
                           for s in sets]
                if not any(per_set) or all(v == 0 for vs in per_set
                                           for v in vs):
                    continue  # the workload never reaches this layer
                row = f"{workload:<17} {name:<34} {units[name]:<9}"
                for vs in per_set:
                    row += (f" {statistics.median(vs):>16.6g}"
                            f" {100 * spread(vs):>6.1f}%") if vs else \
                        f" {'-':>16} {'':>7}"
                print(row)


def dump(data):
    """The run file: one result per line, so two files diff line by line."""
    sets = ",\n".join(
        '{"runs": [\n' + ",\n".join(json.dumps(r) for r in s["runs"]) + "\n]}"
        for s in data["sets"])
    head = json.dumps({k: v for k, v in data.items() if k != "sets"})
    return head[:-1] + ', "sets": [\n' + sets + "\n]}\n"


def run(args):
    exe = build()
    sets, failures = [], 0
    for set_index in range(args.sets):
        runs = []
        for workload in WORKLOADS:
            plan = [(args.seed + (rep if args.vary_seed else 0), "0")
                    for rep in range(args.reps)]
            if not args.no_trace:
                plan.append((args.seed, "1"))
            for seed, trace in plan:
                r = run_once(exe, workload, seed, args.seconds, trace)
                failures += r["exit"] != 0 or not r["result"]["correct"]
                print(f"set {set_index + 1} {workload} seed {seed} trace "
                      f"{trace}: exit {r['exit']}, digest "
                      f"{r['info']['digest']}", file=sys.stderr, flush=True)
                runs.append(r)
        sets.append({"runs": runs})
    info = sets[0]["runs"][0]["info"]
    data = {"nproc": info["nproc"], "refill_isa": info["refill_isa"],
            "seconds": args.seconds, "sets": sets}
    if args.out:
        Path(args.out).write_text(dump(data))
    print_table(sets)
    return 1 if failures else 0


def verdict(a, b, bound, better):
    """agree / regress / unresolved for one metric (see compare)."""
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    b_wins = min(b) > max(a) if better == "higher" else max(b) < min(a)
    if b_wins:
        return "agree", worse
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worse
    return ("regress" if worse > bound else "agree"), worse


def compare(args):
    first = json.loads(Path(args.a).read_text())["sets"]
    if args.b:
        second = json.loads(Path(args.b).read_text())["sets"]
        runs_a = [r for s in first for r in s["runs"]]
        runs_b = [r for s in second for r in s["runs"]]
    else:
        if len(first) < 2:
            sys.exit("e2e.py: compare with one file needs two sets in it")
        runs_a, runs_b = first[0]["runs"], first[1]["runs"]
    workloads = [w for w in WORKLOADS
                 if any(r["workload"] == w for r in runs_a)]
    regressions = 0
    print(f"{'workload':<17} {'metric':<34} {'A median':>12} "
          f"{'B median':>12} {'change':>8} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in SPEC["end_to_end"]:
            a = values_of(runs_a, workload, "0", metric["name"])
            b = values_of(runs_b, workload, "0", metric["name"])
            if not a or not b:
                continue
            v, worse = verdict(a, b, metric["bound"], metric["better"])
            regressions += v == "regress"
            print(f"{workload:<17} {metric['name']:<34} "
                  f"{statistics.median(a):>12.6g} "
                  f"{statistics.median(b):>12.6g} {100 * worse:>+7.1f}% "
                  f"{100 * metric['bound']:>5.0f}%  {v}")
        for metric in SPEC["per_layer"]:
            a = values_of(runs_a, workload, "1", metric["name"])
            b = values_of(runs_b, workload, "1", metric["name"])
            if metric["unit"] == "count" and a and b and set(a + b) != {0}:
                same = same_per_seed(
                    runs_a + runs_b, workload, "1",
                    lambda r: r["result"]["metrics"][metric["name"]]["value"])
                print(f"{workload:<17} {metric['name']:<34} "
                      f"{statistics.median(a):>12.6g} "
                      f"{statistics.median(b):>12.6g} {'':>8} {'':>6}  "
                      f"{'identical' if same else 'differ'}")
        same = same_per_seed(runs_a + runs_b, workload, None,
                             lambda r: r["info"]["digest"])
        print(f"{workload:<17} {'result digest (per seed)':<34} "
              f"{'identical' if same else 'differ':>50}")
    return 1 if regressions else 0


def same_per_seed(runs, workload, trace, key):
    """True when every run of one seed gives the same key."""
    seen = {}
    for r in runs:
        if r["workload"] == workload and trace in (None, r["trace"]):
            seen.setdefault(r["seed"], set()).add(key(r))
    return all(len(keys) == 1 for keys in seen.values())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    m = sub.add_parser("measure", help="build and run one workload")
    m.add_argument("--workload", required=True, choices=WORKLOADS)
    m.add_argument("--seed", required=True, type=int)
    m.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    m.add_argument("--trace", choices=["0", "1"], default="0")
    r = sub.add_parser("run", help="run every workload, print one table")
    r.add_argument("--sets", type=int, default=2)
    r.add_argument("--reps", type=int, default=5)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--vary-seed", action="store_true")
    r.add_argument("--no-trace", action="store_true")
    r.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    r.add_argument("--out", default="")
    c = sub.add_parser("compare", help="apply BENCHMARK.json's bounds")
    c.add_argument("a")
    c.add_argument("b", nargs="?")
    args = parser.parse_args()
    return {"measure": measure, "run": run, "compare": compare}[
        args.command](args)


if __name__ == "__main__":
    sys.exit(main())
