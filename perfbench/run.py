#!/usr/bin/env python3
"""Builds and runs the Spangle benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload raster --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds the library, the
executor daemon and the benchmark binary (Release, lock-rank checks off)
into .bench_build/ (or $CARGO_TARGET_DIR). The last line of standard
output is the JSON result; the line before it is the provenance record.
The exit code is non-zero when the build fails, an answer is wrong, or a
daemon outlives its run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("raster", "serving", "pagerank", "matmul")
RUN_LIMIT_S = 170  # one run, build excluded


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build():
    """Configures and builds perfbench; returns the binary's path."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(os.cpu_count() or 4)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
           "spangle_executord"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise RuntimeError("build failed")
    return os.path.join(out, "perfbench")


def source_digest():
    """sha256 over the sources the binary is built from."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), BENCH_DIR,
             os.path.join(ROOT, "tools", "spangle_executord.cc")]
    files = []
    for r in roots:
        if os.path.isfile(r):
            files.append(r)
        for dirpath, _, names in os.walk(r):
            files += [os.path.join(dirpath, n) for n in names]
    for path in sorted(files):
        if path.endswith(".pyc"):
            continue
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def run_binary(binary, workload, seed, seconds, trace, corrupt_op=None):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(build_dir(), f"work-{os.getpid()}")
    traces = os.path.join(build_dir(), "traces")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--trace-dir", traces]
    if corrupt_op is not None:
        cmd += ["--corrupt-op", str(corrupt_op)]
    # Own process group, so the daemons it forks can be found and killed.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_LIMIT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_LIMIT_S} s")
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # Every process the run started must have ended with it.
    try:
        os.killpg(proc.pid, 0)
        log("processes of the run outlived it; killing them")
        os.killpg(proc.pid, signal.SIGKILL)
        code = code or 1
    except ProcessLookupError:
        pass
    return code, stdout.strip().splitlines()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def finish_result(result, spec, trace):
    """Orders the metrics as BENCHMARK.json lists them. Per-layer metrics
    of layers the workload never calls read 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    unknown = set(got) - {m["name"] for m in wanted}
    if unknown:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            entry = got[m["name"]]
            if entry["unit"] != m["unit"]:
                raise RuntimeError(f"{m['name']}: unit {entry['unit']}")
        elif trace:
            entry = {"value": 0, "unit": m["unit"]}
        else:
            raise RuntimeError(f"end-to-end metric {m['name']} missing")
        metrics[m["name"]] = entry
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def bench(args):
    spec = load_spec()
    binary = build()
    started = time.time()
    code, lines = run_binary(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    if len(lines) < 2:
        raise RuntimeError(f"{args.workload} printed no result (exit {code})")
    provenance = json.loads(lines[-2])["provenance"]
    result = finish_result(json.loads(lines[-1]), spec, args.trace)
    if provenance.get("lock_rank_checks") != 0:
        raise RuntimeError("measured build has lock-rank checks compiled in")
    provenance.update({"git_sha": git_sha(), "source_sha256": source_digest(),
                       "wall_s": round(time.time() - started, 3)})
    if code != 0:
        result["correct"] = False
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


def self_test():
    """Feeds every workload one corrupted answer; each run must fail."""
    binary = build()
    missed = []
    for workload in WORKLOADS:
        code, lines = run_binary(binary, workload, 1, 1, 0, corrupt_op=3)
        result = json.loads(lines[-1]) if lines else {}
        caught = (code != 0 and result.get("correct") is False
                  and result.get("failed", 0) >= 1)
        log(f"self-test {workload}: corrupted answer "
            f"{'detected' if caught else 'MISSED'}")
        if not caught:
            missed.append(workload)
    return 1 if missed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    os.chdir(ROOT)
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            p.error("--workload is required")
        return bench(args)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
