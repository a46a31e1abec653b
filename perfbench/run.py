"""cslcheck benchmark: four CLI workloads with known answers.

    python3 perfbench/run.py --workload check_exp --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a source checkout (src/, tools/ and corpus/ beside this
directory). Each run measures one workload in a fresh interpreter
(worker.py), so peak memory belongs to that workload alone. Set-up time is
measured from process start to the first timed call, in SETUP_PROBES extra
interpreters plus the measured one, and reported as their median.

With --trace 0 the last line is a JSON object with the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of tracer.py. Lines before
it are a readable report: every metric by name and unit, the tail
percentile with its sample count, the input digest and sizes.

Exit codes: 0 all answers correct, 1 some answer wrong, 2 the benchmark
could not run (no cslcheck source here, a worker crashed or timed out).
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORK_UNIT, WORKLOADS  # noqa: E402

SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def worker(args, *extra) -> tuple[float, dict]:
    """Start worker.py; returns (time it was started, its JSON report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    started = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return started, json.loads(lines[-1])


def measure(args) -> tuple[dict, dict]:
    """One run of one workload: (result line, full worker report)."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            started, probe = worker(args, "--setup-only")
            setups.append(probe["ready"] - started)
    started, report = worker(args)
    setups.append(report["ready"] - started)
    if args.trace:
        metrics = {name: {"value": report["layers"][name], "unit": spec[0]}
                   for name, spec in LAYER_METRICS.items()}
    else:
        report["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": report[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    line = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    return line, report


def describe(workload: str, line: dict, report: dict) -> list[str]:
    out = [f"== {workload}: {report['calls']} calls in {report['passes']} passes, "
           f"input sha256 {report['digest']}",
           f"   inputs {json.dumps(report['sizes'])}"]
    for name, m in line["metrics"].items():
        note = ""
        if name == "work_per_s":
            note = "  ({}: {} per second)".format(*WORK_UNIT[workload])
        elif name == "op_tail_ms":
            note = (f"  (p{report['tail_percentile']:.1f} of {report['calls']} calls, "
                    f"{report['tail_beyond']} beyond)")
        elif name in LAYER_METRICS:
            note = f"  moves {LAYER_METRICS[name][2]}"
        out.append(f"   {name:<28} {m['value']:>14.6g} {m['unit']:<6}{note}")
    fail_frac = report["failed"] / report["attempted"]
    out.append(f"   {'fail_frac':<28} {fail_frac:>14.6g} ratio")
    if "trace_overhead_frac" in report:
        out.append(f"   tracing overhead: {report['layers']['trace.overhead_s']:.4g} s "
                   f"per pass ({100 * report['trace_overhead_frac']:.1f}% of untraced wall_s)")
    out += [f"   WRONG {msg}" for msg in report["failures"]]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SystemExit inside subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))

    missing = [p for p in ("src/cslcheck/cli.py", "tools/build_corpus.py", "corpus/otp.prog")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a cslcheck checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            args.workload = name
            line, report = measure(args)
            print("\n".join(describe(name, line, report)), flush=True)
            lines[name] = line
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
