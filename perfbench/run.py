#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--char-seed N] [--arrival-seed N]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. `bvl_bench` is built (Release, with its
own perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, and rebuilt whenever a source under src/ or
perfbench/ changes. Build output goes to stderr; the last line of stdout
is the run's JSON result. Each run works in a private directory under
.bench_run/ that is removed afterwards; a traced run writes its spans to
.bench_out/spans-<workload>-seed<seed>.json.

--self-test builds and runs the checks' own tests instead.
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
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
WORKLOADS = ("char_micro", "char_real", "replay_batch", "replay_service")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_digest():
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "characterizer.hpp")):
        fail("library sources (src/) not found next to perfbench/; run from a checkout root")
    digest = source_digest()
    stamp = os.path.join(BUILD, "source.digest")
    binaries = [os.path.join(BUILD, b) for b in ("bvl_bench", "bvl_bench_check_test")]
    if all(os.path.isfile(b) for b in binaries) and os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read().strip() == digest:
                return
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    with open(stamp, "w") as f:
        f.write(digest + "\n")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, or units differ"
             % (missing, extra))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42,
                    help="default for both --char-seed and --arrival-seed (default 42)")
    ap.add_argument("--char-seed", type=int, help="Characterizer seed: the generated input data")
    ap.add_argument("--arrival-seed", type=int,
                    help="service arrival stream")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    for name in ("seed", "char_seed", "arrival_seed", "seconds"):
        v = getattr(args, name)
        if v is not None and v < 0:
            ap.error("--%s must be non-negative" % name.replace("_", "-"))

    build()
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(BUILD, "bvl_bench_check_test")]).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    char_seed = args.seed if args.char_seed is None else args.char_seed
    arrival_seed = args.seed if args.arrival_seed is None else args.arrival_seed
    work_dir = os.path.join(ROOT, ".bench_run", "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(BUILD, "bvl_bench"), "--workload", args.workload, "--work-dir", work_dir,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--char-seed", str(char_seed), "--arrival-seed", str(arrival_seed)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(out_dir, "spans-%s-seed%d.json" % (args.workload, char_seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("bvl_bench exited with code %d" % proc.returncode)
    validate(lines[-1], args.trace)
    print(lines[-1])


if __name__ == "__main__":
    main()
