"""Run one workload in a fresh interpreter and print one JSON line.

run.py starts this file once per measured run (and a few more times with
--setup-only to time set-up). The workload calls cslcheck.cli.main(argv)
in this process as a closed loop with one client: each call starts when the
previous one has returned. The timed phase repeats whole passes over the
workload's inputs for about --seconds (a pass starts if half of it fits).

    python3 perfbench/worker.py --workload run_otp --seed 1 --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def call(argv):
    """One CLI call in process: (exit code, stdout, stderr)."""
    import cslcheck.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cslcheck.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a wrong answer, not a benchmark error
            code = None
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue()


class Loop:
    """Closed loop over a pass of calls, collecting latencies and failures."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies = []  # seconds per call
        self.pass_medians = []  # median call latency of each pass, seconds
        self.walls = []  # seconds of CLI time per pass
        self.work = []  # work units per pass
        self.attempted = 0
        self.failures = []

    def run(self, seconds: float) -> list:
        """Whole passes for about `seconds`: a pass starts if at least half of
        it is expected to fit. Returns this phase's pass walls."""
        walls = []
        spans = []  # pass durations including the benchmark's own checks
        start = time.perf_counter()
        while not spans or time.perf_counter() - start + statistics.median(spans) / 2 <= seconds:
            t_pass = time.perf_counter()
            wall = work = 0
            lat = []
            for op in self.ops:
                t0 = time.perf_counter()
                code, out, err = call(op.argv)
                dt = time.perf_counter() - t0
                wall += dt
                lat.append(dt)
                self.attempted += 1
                problem = op.check(code, out, err)
                if problem:
                    self.failures.append(f"{op.label}: {problem}")
                work += op.work_done(out)
            walls.append(wall)
            self.latencies += lat
            self.pass_medians.append(statistics.median(lat))
            self.work.append(work)
            spans.append(time.perf_counter() - t_pass)
        self.walls += walls
        return walls


def tail(latencies: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    still has ten samples above it. Below 21 samples no percentile has ten
    samples above it and half of the samples below it; the tail is then the
    median of the slower half. A props run holds about ten calls of two
    property seeds, so this is the middle call of the slower seed, not the
    fastest one of it."""
    ordered = sorted(latencies)
    if len(ordered) >= 21:
        i = len(ordered) - 11
        return ordered[i], 100.0 * (i + 1) / len(ordered), 10
    slow = ordered[len(ordered) // 2:]
    beyond = len(slow) // 2
    return statistics.median(slow), 100.0 * (len(ordered) - beyond) / len(ordered), beyond


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]
    import cslcheck.cli  # noqa: F401  (import time is part of set-up)
    import tracer
    import workloads

    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        inputs = workloads.build(args.workload, args.seed, ROOT, workdir)
        ready = time.time()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        loop = Loop(inputs.ops)
        report = {"ready": ready, "digest": inputs.digest, "sizes": inputs.sizes}
        if args.trace:
            plain = loop.run(args.seconds / 2)
            t = tracer.install()
            traced = loop.run(args.seconds / 2)
            untraced = sum(plain) / len(plain)
            overhead = sum(traced) / len(traced) - untraced
            report["layers"] = tracer.layer_metrics(t, len(traced), overhead)
            report["trace_overhead_frac"] = overhead / untraced
        else:
            loop.run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            scratch.rmdir()

    wall = sum(loop.walls) / len(loop.walls)  # mean pass: every call counts once
    value, pct, beyond = tail(loop.latencies)
    report.update(
        attempted=loop.attempted,
        failed=len(loop.failures),
        failures=loop.failures[:20],
        passes=len(loop.walls),
        calls=len(loop.latencies),
        wall_s=wall,
        # The machine's speed drifts over seconds, so a median pooled over a
        # run picks one speed; the mean of per-pass medians averages them.
        op_p50_ms=1000 * statistics.fmean(loop.pass_medians),
        op_tail_ms=1000 * value,
        tail_percentile=pct,
        tail_beyond=beyond,
        work_per_s=sum(loop.work) / sum(loop.walls),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
