#!/usr/bin/env python3
"""ptk's benchmark: served-query latency and paged-scan cost, end to end
and per layer.

Run one workload (builds the release `ptk` binary and the benchmark first):

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 12 --trace 0

Workloads: serve-mixed, serve-hot, scan-paged (see BENCHMARK.json). With
--trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer ones. The last stdout line is a JSON summary; every run also
appends a full record (metrics, design checks, run context, end-of-run
scrapes) to $CARGO_TARGET_DIR/perfbench/results.jsonl, or to --out FILE.

Compare two result files (e.g. parent and change):

    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

prints, per workload and metric, both sides' medians and quartiles, the
delta, and whether it stays inside the bound BENCHMARK.json fixes; per-layer
medians beside them; and compares the work counters of equal seeds exactly.

Check the benchmark itself (unit tests, then two traced runs per workload
whose work counters must be identical):

    python3 perfbench/run.py selftest
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def cargo(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    # Cargo's own output goes to stderr: stdout ends with the summary line.
    done = subprocess.run(["cargo", *args, "--offline"], cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: cargo {' '.join(args)} failed")


def build():
    cargo("build", "--release", "-q", "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "ptk-cli")
    cargo("build", "--release", "-q", "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "ptk"), os.path.join(release, "ptk-perfbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def bench_argv(bench, ptk, args):
    workdir = os.path.join(target_dir(), "perfbench")
    return [bench, "--ptk", ptk, "--workdir", workdir, *args]


def run(args):
    ptk, bench = build()
    os.environ["PERFBENCH_COMMIT"] = commit()
    os.chdir(ROOT)
    # One core for the benchmark and every process it starts: the client
    # and the daemon take turns, and a wake-up on the same core costs the
    # same every run where one across cores depends on where the
    # scheduler put each of them.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.execv(bench, bench_argv(bench, ptk, args))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_values(records, workload, trace, name):
    return [
        r["metrics"][name]["value"]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and name in r["metrics"]
    ]


def counter_sets(records, workload):
    """Work counters of the traced runs, grouped by seed."""
    out = {}
    for r in records:
        if r["workload"] == workload and r["trace"]:
            out.setdefault(r["seed"], []).append(r["counters"])
    return out


def counter_diffs(a, b):
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def compare(base_path, new_path):
    with open(SPEC) as f:
        spec = json.load(f)
    base, new = load(base_path), load(new_path)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    regressions = 0
    counter_mismatches = 0
    for w in spec["workloads"]:
        workload = w["name"]
        print(f"== {workload}")
        print(f"   {'metric':<30} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} {'delta':>9}  verdict")
        for name, m in bounds.items():
            a = metric_values(base, workload, False, name)
            b = metric_values(new, workload, False, name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = delta if m["better"] == "lower" else -delta
            ok = worse <= m["bound"]
            regressions += not ok
            verdict = f"{'ok' if ok else 'REGRESSION'} (bound {m['bound']:.0%}, n={len(a)}/{len(b)})"
            print(
                f"   {name:<30} {qa[1]:>12.4f} [{qa[0]:.4f}, {qa[2]:.4f}] {qb[1]:>12.4f} [{qb[0]:.4f}, {qb[2]:.4f}]"
                f" {delta:>+8.1%}  {verdict}"
            )
        layer_names = [m["name"] for m in spec["per_layer"]]
        rows = []
        for name in layer_names:
            a = metric_values(base, workload, True, name)
            b = metric_values(new, workload, True, name)
            if a and b:
                ma, mb = statistics.median(a), statistics.median(b)
                delta = (mb - ma) / ma if ma else 0.0
                rows.append((name, ma, mb, delta))
        if rows:
            print("   per layer (traced runs, medians)")
            for name, ma, mb, delta in rows:
                print(f"     {name:<34} {ma:>16.4f} {mb:>16.4f} {delta:>+8.1%}  {units[name]}")
        sets_a, sets_b = counter_sets(base, workload), counter_sets(new, workload)
        for seed in sorted(set(sets_a) | set(sets_b)):
            runs = sets_a.get(seed, []) + sets_b.get(seed, [])
            diffs = sorted({d for r in runs[1:] for d in counter_diffs(runs[0], r)})
            counter_mismatches += bool(diffs)
            state = "identical" if not diffs else "DIFFER: " + ", ".join(diffs)
            print(f"   work counters, seed {seed}, {len(runs)} traced runs: {state}")
    print(f"{regressions} end-to-end regressions, {counter_mismatches} seeds with differing counters")
    return 1 if regressions or counter_mismatches else 0


def selftest():
    cargo("test", "-q", "--release", "--manifest-path", os.path.join(HERE, "Cargo.toml"))
    ptk, bench = build()
    with tempfile.TemporaryDirectory(dir=target_dir()) as tmp:
        first, second = os.path.join(tmp, "first.jsonl"), os.path.join(tmp, "second.jsonl")
        with open(SPEC) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
        for workload in workloads:
            for out in (first, second):
                args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1", "--out", out]
                done = subprocess.run(bench_argv(bench, ptk, args), cwd=ROOT, stdout=subprocess.DEVNULL)
                if done.returncode != 0:
                    sys.exit(f"perfbench selftest: traced {workload} run failed")
        return compare(first, second)


def main():
    args = sys.argv[1:]
    if args[:1] == ["compare"]:
        if len(args) != 3:
            sys.exit("usage: run.py compare BASE.jsonl NEW.jsonl")
        sys.exit(compare(args[1], args[2]))
    if args[:1] == ["selftest"]:
        sys.exit(selftest())
    run(args)


if __name__ == "__main__":
    main()
