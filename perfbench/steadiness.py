#!/usr/bin/env python3
"""Steadiness check: runs each workload with several seeds, one process per
run exactly as the benchmark command does, and reports for every end-to-end
metric its median, quartiles and spread (quartile distance over median)
against the metric's bound.

    python3 perfbench/steadiness.py --runs 10 [--workloads serve_steady,...]
    python3 perfbench/steadiness.py --report-only   # rewrite the report

Results accumulate in .bench_build/steadiness/<workload>.json (a fresh call
with --runs replaces that workload's file); the report goes to
perfbench/STEADINESS.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import spec  # noqa: E402

OUT = ROOT / ".bench_build" / "steadiness"
REPORT = HERE / "STEADINESS.md"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True)
    wall = time.time() - t0
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    record = {}
    for line in proc.stdout.splitlines():
        if line.startswith("run record: "):
            record = json.loads(line[len("run record: "):])
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    return {"seed": seed, "rc": proc.returncode, "wall_s": wall,
            "result": result, "record": record}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def summarize(workload, runs):
    rows = []
    for name, unit, _, bound in spec.END_TO_END:
        values = [r["result"]["metrics"][name]["value"] for r in runs
                  if r["result"] and name in r["result"]["metrics"]]
        if len(values) < 2:
            continue
        q1, med, q3, sp = spread(values)
        rows.append((name, unit, med, q1, q3, sp, bound))
    return rows


def fmt(metrics, name):
    return f"{metrics[name]['value']:.5g}" if name in metrics else "-"


def write_report():
    sections = []
    for name, _ in spec.WORKLOADS:
        path = OUT / f"{name}.json"
        if not path.exists():
            continue
        data = json.loads(path.read_text())
        runs = data["runs"]
        ok = all(r["rc"] == 0 and r["result"] and r["result"]["correct"] for r in runs)
        probes = [r["record"].get("host_probe_start_ms") for r in runs if r["record"]]
        lines = [f"### {name}",
                 "",
                 f"{len(runs)} runs, seeds {runs[0]['seed']}..{runs[-1]['seed']}, "
                 f"--seconds {data['seconds']}, all correct: {ok}, "
                 f"wall per run {min(r['wall_s'] for r in runs):.1f}-"
                 f"{max(r['wall_s'] for r in runs):.1f} s, host probe "
                 f"{min(probes):.1f}-{max(probes):.1f} ms. Recorded {data['date']}.",
                 "",
                 "| metric | unit | median | Q1 | Q3 | spread | bound | spread/bound |",
                 "|---|---|---|---|---|---|---|---|"]
        for m, unit, med, q1, q3, sp, bound in summarize(name, runs):
            lines.append(f"| {m} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                         f"{sp:.4f} | {bound} | {sp / bound:.2f} |")
        lines += ["", "Per run, with the host probe read at the start and end of each:",
                  "", "| seed | probe start ms | probe end ms | setup_s | "
                  "latency_p50_ms | throughput_per_s |", "|---|---|---|---|---|---|"]
        for r in runs:
            m = r["result"]["metrics"] if r["result"] else {}
            lines.append(f"| {r['seed']} | {r['record'].get('host_probe_start_ms', 0):.1f} | "
                         f"{r['record'].get('host_probe_end_ms', 0):.1f} | {fmt(m, 'setup_s')} | "
                         f"{fmt(m, 'latency_p50_ms')} | {fmt(m, 'throughput_per_s')} |")
        sections.append("\n".join(lines))
    body = REPORT.read_text() if REPORT.exists() else ""
    marker = "<!-- steadiness tables -->"
    head = body.split(marker)[0] if marker in body else body
    REPORT.write_text(head.rstrip() + "\n\n" + marker + "\n\n" +
                      "\n\n".join(sections) + "\n")
    print(f"wrote {REPORT}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--workloads", default=",".join(n for n, _ in spec.WORKLOADS))
    ap.add_argument("--report-only", action="store_true")
    args = ap.parse_args()
    if not args.report_only:
        OUT.mkdir(parents=True, exist_ok=True)
        for workload in args.workloads.split(","):
            runs = []
            for seed in range(args.first_seed, args.first_seed + args.runs):
                r = run_once(workload, seed, args.seconds)
                runs.append(r)
                m = r["result"]["metrics"] if r["result"] else {}
                print(f"{workload} seed {seed}: rc={r['rc']} wall={r['wall_s']:.1f}s " +
                      " ".join(f"{k}={v['value']:.5g}" for k, v in m.items()), flush=True)
            (OUT / f"{workload}.json").write_text(json.dumps(
                {"seconds": args.seconds, "date": time.strftime("%Y-%m-%d %H:%M UTC",
                                                                 time.gmtime()),
                 "runs": runs}, indent=1))
            for m, unit, med, q1, q3, sp, bound in summarize(workload, runs):
                flag = "ok" if sp < bound / 3 else ("WITHIN" if sp <= bound else "OVER")
                print(f"  {m:18s} median={med:.6g} spread={sp:.4f} bound={bound} {flag}")
    write_report()


if __name__ == "__main__":
    main()
