#!/usr/bin/env python3
"""Build and run the authority-stack benchmark.

One run:
    python3 authbench/run.py --workload front_door --seed 1 --seconds 50 --trace 0

Steadiness mode (runs each workload N times with seeds base..base+N-1 and
prints, per metric, the median, the quartiles and the relative spread):
    python3 authbench/run.py --steadiness 10 [--workload front_door] [--seed 1]

The benchmark package (authbench/CMakeLists.txt) compiles the layer
libraries from ../src in Release and links the authbench binary. The build
goes to $CARGO_TARGET_DIR/authbench (default .bench_build/authbench) under
the checkout root. The last line of standard output of a run is the JSON
result printed by the binary.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("front_door", "batched_adversary")
# A run that reaches this is stuck: every workload ends well within it.
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "authbench"


def build():
    """Configure once, then build incrementally; build logs go to stderr."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", "authbench"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("authbench: build failed: " + " ".join(cmd))
    return out / "authbench"


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Run the binary once; returns (exit code, parsed result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(build_dir() / f"spans-{workload}-{seed}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"authbench: {workload} seed {seed} timed out", file=sys.stderr)
        return 124, None
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def steadiness(binary, workloads, runs, seed, seconds, trace):
    """Print per-metric median, quartiles and IQR/median over `runs` seeds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").exists() else {}
    bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
    summary = {}
    ok = True
    for workload in workloads:
        values = {}
        for i in range(runs):
            code, result = run_once(binary, workload, seed + i, seconds, trace, echo=False)
            if code != 0 or result is None or not result.get("correct"):
                print(f"{workload} seed {seed + i}: run failed (exit {code})")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {runs} runs, seeds {seed}..{seed + runs - 1}")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound/3")
        summary[workload] = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  {verdict}")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "values": vals}
    out = build_dir() / "steadiness.json"
    out.write_text(json.dumps(summary, indent=1))
    print(f"\nwrote {out}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run each workload N times with consecutive seeds")
    args = parser.parse_args()

    binary = build()
    if args.steadiness:
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return steadiness(binary, workloads, args.steadiness, args.seed, args.seconds,
                          args.trace)
    if not args.workload:
        parser.error("--workload is required")
    code, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if code == 0 and result is None:
        print("authbench: the binary printed no result", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
