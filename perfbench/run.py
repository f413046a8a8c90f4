#!/usr/bin/env python3
"""Build and run samplehist's benchmark.

One run (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload analyze|estimate|wire --seed N --seconds S --trace 0|1

Repeat report (median, quartiles, min/max per metric; asserts that the
deterministic quantities repeat exactly among runs with the same seed):

    python3 perfbench/run.py --repeat R [--seeds 1,2,3] [--workload W] [--seconds S] [--trace 0|1]

Run from the repository root or anywhere inside it; the benchmark is built
from source with cargo into $CARGO_TARGET_DIR (default: .bench_build at
the repository root).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["analyze", "estimate", "wire"]
RUN_TIMEOUT_S = 170
# Quantities that depend only on the seed: they must repeat exactly.
DETERMINISTIC = ("qerror_p90", "ok_frac", "storage.", "service.ladder.", "core.sampling.cvb_rounds")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Build the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "service", "Cargo.toml")):
        fail("the samplehist sources are missing next to perfbench/; nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("cargo build failed", done.returncode or 2)
    return os.path.join(target, "release", "samplehist-perfbench")


def run_once(binary, workload, seed, seconds, trace, echo):
    """One benchmark process; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} exceeded {RUN_TIMEOUT_S} s", 3)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def load_bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def repeat_report(binary, args):
    workloads = [args.workload] if args.workload else WORKLOADS
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = load_bounds()
    ok = True
    for workload in workloads:
        runs = []  # (seed, metrics)
        for seed in seeds:
            for r in range(args.repeat):
                code, result = run_once(binary, workload, seed, args.seconds, args.trace, False)
                if code != 0 or not result or not result.get("correct"):
                    print(f"{workload} seed {seed} repeat {r}: FAILED (exit {code})")
                    ok = False
                    continue
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                runs.append((seed, metrics))
                shown = " ".join(f"{k}={v:.6g}" for k, v in metrics.items()
                                 if not k.startswith(("storage.", "service.ladder.")))
                print(f"{workload} seed {seed} repeat {r}: ok {shown}", flush=True)
        if not runs:
            continue
        print(f"\n== {workload}: {len(runs)} runs, seeds {args.seeds}, trace {args.trace}")
        print(f"{'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14} "
              f"{'iqr/med':>8}  bound")
        for name in runs[0][1]:
            values = [m[name] for _, m in runs if m.get(name) is not None]
            if not values:
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = f"{bound}  {'ok' if spread < bound / 3 else 'SPREAD ABOVE BOUND/3'}"
            print(f"{name:<40} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {min(values):>14.6g} "
                  f"{max(values):>14.6g} {spread:>8.4f}  {flag}")
            if name.startswith(DETERMINISTIC):
                for seed in seeds:
                    same_seed = {m[name] for s, m in runs if s == seed}
                    if len(same_seed) > 1:
                        print(f"NOT DETERMINISTIC: {name} seed {seed} gave {sorted(same_seed)}")
                        ok = False
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="runs per seed in the repeat report (0: one plain run)")
    p.add_argument("--seeds", default=None, help="comma-separated seeds for the repeat report")
    args = p.parse_args()
    binary = build()
    if args.repeat > 0:
        if args.seeds is None:
            args.seeds = str(args.seed)
        sys.exit(repeat_report(binary, args))
    if not args.workload:
        fail("--workload is required for a single run")
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, True)
    sys.exit(code)


if __name__ == "__main__":
    main()
