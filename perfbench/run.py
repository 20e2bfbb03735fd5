#!/usr/bin/env python3
"""Repo benchmark: builds the workload program, runs one workload per process,
checks its outputs and prints every metric with its unit.

One workload (the last stdout line is the JSON result):
    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 20 --trace 0

Every workload, one process each, with its metrics; then BENCHMARK.json is
rewritten from perfbench/spec.py:
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Regenerate BENCHMARK.json from perfbench/spec.py:
    python3 perfbench/run.py --write-manifest

The benchmark's own tests (accounting unit tests, manifest consistency, and a
run with a perturbed reference that must fail):
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to .bench_build/ (CMake,
Release); run records and traces are written under .bench_build/ too.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark's directory
import spec  # noqa: E402

BUILD = ROOT / ".bench_build"
WORKLOAD_BIN = BUILD / "perfbench_workload"
SELFTEST_BIN = BUILD / "perfbench_selftest"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the workload program; the log stays in
    .bench_build."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"library sources not found next to the benchmark (expected {ROOT}/src)")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "a", encoding="utf-8") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                      "perfbench_workload", "perfbench_selftest"])
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            if rc != 0:
                fail(f"build step failed ({' '.join(cmd)}); see {log_path}")


def source_digest():
    """SHA-1 over the library and benchmark sources: identifies the code under
    test even where the checkout is not a git repository."""
    h = hashlib.sha1()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += sorted(p for p in top.rglob("*") if p.is_file()
                        and p.suffix in (".h", ".cpp", ".py", ".txt"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_workload(workload, seed, seconds, trace, extra=()):
    """Runs one workload process. Returns (exit code, result dict or None,
    run record dict or None, the other stdout lines)."""
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    cmd = [str(WORKLOAD_BIN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(runs / f"{tag}.spans.jsonl")]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, None, None, []
    sys.stderr.write(proc.stderr)
    result = record = None
    lines = []
    for line in proc.stdout.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
        elif line.startswith("run_record "):
            record = json.loads(line[len("run_record "):])
        else:
            lines.append(line)
    if record is not None:
        record["source_sha1"] = source_digest()
        record["git_commit"] = git_commit()
        (runs / f"{tag}.record.json").write_text(json.dumps(record, indent=1) + "\n")
    return proc.returncode, result, record, lines


def check_result(result, trace):
    """Attaches units; returns (final JSON object, list of problems)."""
    problems = []
    want = spec.units(trace)
    got = result.get("metrics", {})
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing:
        problems.append(f"missing metrics: {missing}")
    if extra:
        problems.append(f"unexpected metrics: {extra}")
    metrics = {}
    for name, unit in want.items():
        value = got.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number: {value!r}")
            continue
        metrics[name] = {"value": value, "unit": unit}
    attempted, failed = result.get("attempted", 0), result.get("failed", 0)
    if attempted < 1:
        problems.append("no operation attempted")
    final = {"correct": bool(result.get("correct")) and not problems and failed == 0,
             "attempted": int(attempted), "failed": int(failed), "metrics": metrics}
    return final, problems


def print_metrics(final):
    for name, m in final["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")


def one(args):
    build()
    rc, result, record, lines = run_workload(args.workload, args.seed,
                                             args.seconds, args.trace)
    for line in lines:
        print(line)
    if result is None:
        fail(f"workload {args.workload} ended without a result (exit code {rc})")
    final, problems = check_result(result, args.trace)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if record is not None:
        print("run record: " + json.dumps(record))
    print_metrics(final)
    print(json.dumps(final))
    sys.exit(0 if rc == 0 and final["correct"] else 1)


def run_all(args):
    """Every workload in its own process, its metrics, then the manifest."""
    build()
    ok = True
    for name, _ in spec.WORKLOADS:
        rc, result, _, _ = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            print(f"{name}: no result (exit code {rc})")
            ok = False
            continue
        final, problems = check_result(result, args.trace)
        ok = ok and rc == 0 and final["correct"]
        print(f"{name}: correct={final['correct']} attempted={final['attempted']} "
              f"failed={final['failed']} {'; '.join(problems)}")
        print_metrics(final)
    write_manifest()
    sys.exit(0 if ok else 1)


def write_manifest():
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(spec.manifest(), indent=2) + "\n")
    print(f"wrote {path}")


def self_test():
    build()
    failures = []
    if subprocess.call([str(SELFTEST_BIN)]) != 0:
        failures.append("perfbench_selftest failed")
    manifest_path = ROOT / "BENCHMARK.json"
    if not manifest_path.exists() or json.loads(manifest_path.read_text()) != spec.manifest():
        failures.append("BENCHMARK.json differs from perfbench/spec.py "
                        "(python3 perfbench/run.py --write-manifest)")
    # A reference output one ulp off must drive success_rate below 1 and the
    # process to a non-zero exit.
    rc, result, _, _ = run_workload("serve_steady", 1, 2, 0,
                                    extra=["--perturb-reference", "1"])
    if result is None or rc == 0 or result["correct"] or \
            not result["metrics"].get("success_rate", 1.0) < 1.0:
        failures.append(f"perturbed reference was not caught (exit {rc}, {result})")
    else:
        print(f"perturbed reference caught: success_rate="
              f"{result['metrics']['success_rate']:.4f}, exit code {rc}")
    for f in failures:
        print(f"FAIL {f}")
    print("perfbench self-test: " + ("FAILED" if failures else "passed"))
    sys.exit(1 if failures else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--write-manifest", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.write_manifest:
        write_manifest()
    elif args.self_test:
        self_test()
    elif args.all:
        run_all(args)
    elif args.workload:
        one(args)
    else:
        ap.error("give --workload NAME, --all, --write-manifest or --self-test")


if __name__ == "__main__":
    main()
