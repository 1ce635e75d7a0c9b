#!/usr/bin/env python3
"""End-to-end benchmark of the tgsim pipeline (fit / generate / serve).

Builds the library and the benchmark binary from the source tree around this
directory, runs one workload in a fresh process and prints the result:

    python3 perfbench/run.py --workload fit-tgae --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 18 --trace 1
    python3 perfbench/run.py --smoke      # every workload and check, tiny sizes

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics untraced, per-layer metrics
traced). Build output and diagnostics go to standard error. The build tree is
$CARGO_TARGET_DIR if set, else .bench_build, relative to the repository root;
traced runs leave their Chrome trace in <build tree>/traces/. See README.md.
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
WORKLOADS = ("fit-tgae", "generate-mix", "serve-mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    tree = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "--target", "tgsim_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(tree, "tgsim_perfbench")


def source_id():
    """git commit when the tree is a git checkout of its own, else a digest
    of the source tree (the benchmark checkout need not be a git
    repository, and may sit inside an unrelated one)."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
        lines = done.stdout.split()
        if (done.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(base) for f in files)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def run_once(binary, workload, seed, seconds, trace, smoke, commit):
    """Runs one workload; returns (stdout lines, parsed last line or None)."""
    work = os.path.join(build_dir(), "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(traces, f"{workload}-seed{seed}.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", work, "--trace-out", trace_out, "--commit", commit]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return [], None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        log(f"{workload}: benchmark binary exited with {done.returncode}")
        return lines, None
    if trace:
        log(f"{workload}: trace written to {trace_out}")
    try:
        return lines, json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"{workload}: last line is not a result object")
        return lines, None


def valid(result, trace):
    """The result has the contract's keys and exactly the declared metrics
    of its mode, each a number with a unit."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    end_to_end, per_layer = declared_metrics()
    if set(result["metrics"]) != (per_layer if trace else end_to_end):
        log("metrics differ from BENCHMARK.json: " +
            str(sorted(set(result["metrics"]) ^
                       (per_layer if trace else end_to_end))))
        return False
    return all(isinstance(m.get("value"), (int, float)) and m.get("unit")
               for m in result["metrics"].values())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload traced and untraced at a "
                             "tiny size; exit 1 on the first broken run")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no tgsim source tree at {ROOT}; nothing to build")
        return 2
    binary = build()
    if binary is None:
        return 2
    commit = source_id()

    if args.smoke:
        for workload in WORKLOADS:
            for trace in (0, 1):
                _, result = run_once(binary, workload, args.seed, 1, trace,
                                     True, commit)
                if result is None or not valid(result, trace) or \
                        not result["correct"]:
                    log(f"smoke: {workload} trace={trace} FAILED: {result}")
                    return 1
                log(f"smoke: {workload} trace={trace} ok "
                    f"({result['attempted']} ops)")
        return 0

    lines, result = run_once(binary, args.workload, args.seed, args.seconds,
                             args.trace, False, commit)
    ok = result is not None and valid(result, args.trace)
    # The result line is printed only when it is valid.
    for line in lines if ok else lines[:-1]:
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
