#!/usr/bin/env python3
"""Build and run the localspan end-to-end benchmark (bench_localspan).

Run from the root of a checkout:

    python3 perfbench/run.py --workload span --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1      # every workload, one process each
    python3 perfbench/run.py --all --quick       # smoke run on small instances

The first call configures and builds perfbench/ (the library from src/ plus
bench_localspan) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["span", "route", "churn", "serve", "dist"]
RUN_TIMEOUT_S = 170


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "build.ninja")) and not os.path.exists(
        os.path.join(build_dir, "Makefile")
    ):
        configure = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "bench_localspan")


def run_one(binary, args, capture):
    """Run bench_localspan to completion; a run over the time limit is killed."""
    try:
        return subprocess.run(
            [binary] + args,
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None,
            text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"bench_localspan {' '.join(args)}: over {RUN_TIMEOUT_S} s, killed", file=sys.stderr)
        return None


def run_all(binary, args):
    """Every workload in its own process (so peak_rss_mb is per workload),
    then one combined JSON line with workload-prefixed metric names."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        p = run_one(binary, ["--workload", name] + args, capture=True)
        if p is None:
            return 1
        sys.stdout.write(p.stdout)
        lines = p.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"workload {name} printed no result (exit {p.returncode})", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and p.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, v in result["metrics"].items():
            metrics[f"{name}.{metric}"] = v
    print(f"\n{'metric':34} {'value':>14}  unit")
    for metric, v in metrics.items():
        print(f"{metric:34} {v['value']:14.6g}  {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv):
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"benchmark build failed: {e}", file=sys.stderr)
        return 1
    if "--all" in argv:
        return run_all(binary, [a for a in argv if a != "--all"])
    p = run_one(binary, argv, capture=False)
    return 1 if p is None else p.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
