#!/usr/bin/env python3
"""The repository benchmark: builds the engine from source, runs one workload
and prints every metric by name with its unit.

    python3 perfbench/run.py --workload paper_join|skew_join|served_mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke   # every workload, tiny sizes, all gates

Run it from the root of a checkout.  The build goes to $CARGO_TARGET_DIR if
set, else .bench_build/ (both inside the checkout).  The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the line before it,
"machine: {...}", describes the machine and build.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list.  The exit code is nonzero when a correctness gate fails or the
program cannot be built or run.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5  # set-up is timed in this many fresh processes
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "join.h")):
        fail("engine sources (src/) not found; run from the repository root")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j4", "--target", "oblivbench"]):
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "oblivbench")


def run_program(binary, args):
    """Runs the measuring program; returns (stdout lines, parsed last line)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"program exited {proc.returncode}: " + " ".join(args))
    return lines[:-1], json.loads(lines[-1]), proc.returncode


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout's own repository; "none" outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             text=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "none"
    lines = out.stdout.split()
    if len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def measure(binary, args):
    extra = ["--smoke"] if args.smoke else []
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)] + extra
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        _, res, _ = run_program(binary, common + ["--trace", "0", "--setup-only"])
        setups.append(res["metrics"]["setup_s"]["value"])
    spans, res, code = run_program(binary, common + ["--trace", str(args.trace)])
    setups.append(res["metrics"]["setup_s"]["value"])
    res["metrics"]["setup_s"]["value"] = statistics.median(setups)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or in the wrong unit: {got}")
        metrics[m["name"]] = got

    machine = res["machine"]
    machine.update({"git_sha": git_sha(), "source_digest": source_digest(),
                    "OBLIVDB_THREADS": os.environ.get("OBLIVDB_THREADS", "unset"),
                    "setup_samples_s": setups, "trace": args.trace})
    for line in spans:
        print(line)
    print("machine: " + json.dumps(machine))
    print(json.dumps({"correct": res["correct"] and code == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    return code


def smoke(binary):
    ok = True
    for workload in ("paper_join", "skew_join", "served_mix"):
        for trace in ("0", "1"):
            _, res, code = run_program(binary, ["--workload", workload, "--seed", "1",
                                                "--seconds", "1", "--trace", trace,
                                                "--smoke"])
            good = res["correct"] and code == 0
            ok = ok and good
            print(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"({res['attempted']} queries)")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["paper_join", "skew_join", "served_mix"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=12)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.workload is None and not args.smoke:
        p.error("--workload is required")
    binary = build()
    if args.smoke and args.workload is None:
        return smoke(binary)
    return measure(binary, args)


if __name__ == "__main__":
    sys.exit(main())
