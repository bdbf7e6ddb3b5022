#!/usr/bin/env python3
"""Benchmark for curveobs: three seeded closed-loop workloads, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze-long --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with no tracing; --trace 1 makes a
separate traced run and reports the per-layer metrics. Every output is checked
against a known answer; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. A record of the run (machine,
commit, seed, op counts, every metric) is written under .bench_work/results/.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checker
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Reserved for re-checking a claim on inputs not seen while it was developed.
HELDOUT_SEED = 104729

MIN_OPS = 110          # so that at least ten latency samples lie beyond p90
MIN_TRACED_OPS = 20
WARMUP_OPS = 2
SETUP_REPS = 11
CHILD_TIMEOUT_S = 60
POOL_PAIRS = 512       # distinct generated pairs; a run cycles through them
POOL_CHUNKS = 128
# End-to-end times are scaled to a machine on which the reference kernel takes
# REFERENCE_NS, calibrated every SEGMENT_S: on a shared host, other tenants can
# halve raw speed for tens of seconds, and the kernel slows with the program.
REFERENCE_NS = 5_000_000
SEGMENT_S = 0.5
# cli-batch ops are mostly process start, which host load slows differently:
# they are scaled by a bare interpreter's start-to-exit time against SPAWN_NS.
SPAWN_NS = 40_000_000

# Why each workload was chosen; BENCHMARK.json repeats these.
WHY = {
    "analyze-long": "genus 2-3, ~150-letter flat words, fixed verdict mix: the "
                    "per-letter ell fold dominates and no tensor code runs",
    "twist-wide": "genus 8-12, 10-12-letter random words with i_A = 0: the "
                  "tensor/expansion twist path dominates, ell sees few letters",
    "cli-batch": "genus 1-4 full-grammar words, one analyze --pairs process per "
                 "4-line chunk: process start, import, parser, JSON, batch",
}

END_TO_END = (("pairs_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER_UNITS = {"self_ms": "ms", "calls": "count", "us_per_letter": "us",
                   "terms_per_ell": "count", "terms_per_L": "count",
                   "letters_per_op": "count", "overhead_share": "share",
                   "unattributed_share": "share"}


def layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


# --- running the program -----------------------------------------------------

@dataclass
class ChildResult:
    returncode: int
    stdout: str
    maxrss_kb: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str], env: dict[str, str]) -> ChildResult:
    """Run one process to completion and return its exit code, stdout and
    own peak RSS; it is killed after CHILD_TIMEOUT_S."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    status = None
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        if status is None:
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out.decode(errors="replace"),
                       usage.ru_maxrss)


def import_program():
    """Import curveobs from this checkout's src/ and nowhere else."""
    if not (SRC / "curveobs" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'curveobs'}")
    sys.path.insert(0, str(SRC))
    import curveobs
    if Path(curveobs.__file__).resolve().parent != (SRC / "curveobs").resolve():
        sys.exit(f"error: imported curveobs from {curveobs.__file__}")
    return curveobs, importlib.import_module("curveobs.cli")


# --- workloads -----------------------------------------------------------------

@dataclass
class Workload:
    make: Callable            # rng -> list of items
    pairs: Callable           # item -> pairs in one op
    op: Callable              # item -> output, the end-to-end op
    traced_op: Callable       # item -> output, the in-process op that is traced
    check: Callable           # (item, output) -> None or a reason
    in_child: bool = False    # each end-to-end op is a child process


def make_workloads(co, cli, env, chunk_dir: Path) -> dict[str, Workload]:
    def analyze_op(p):
        a = co.parse_word(p.a_text, p.genus)
        b = co.parse_word(p.b_text, p.genus)
        return co.analyze(p.genus, a, b).to_json()

    def twist_op(p):
        a = co.parse_word(p.a_text, p.genus)
        b = co.parse_word(p.b_text, p.genus)
        return co.twist_consistency(p.genus, a, b)[0]

    def write_chunks(rng):
        chunks = workloads.cli_chunks(rng, POOL_CHUNKS)
        items = []
        for i, chunk in enumerate(chunks):
            path = chunk_dir / f"chunk{i:04d}.tsv"
            path.write_text("".join(workloads.batch_line(p) for p in chunk))
            items.append((str(path), chunk))
        return items

    def cli_process_op(item):
        return run_child([sys.executable, "-m", "curveobs.cli", "analyze",
                          "--pairs", item[0]], env)

    def cli_inprocess_op(item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["analyze", "--pairs", item[0]])
        return ChildResult(code, buf.getvalue(), 0)

    return {
        "analyze-long": Workload(
            make=lambda rng: workloads.analyze_long(rng, POOL_PAIRS),
            pairs=lambda p: 1, op=analyze_op, traced_op=analyze_op,
            check=checker.check_report),
        "twist-wide": Workload(
            make=lambda rng: workloads.twist_wide(rng, POOL_PAIRS),
            pairs=lambda p: 1, op=twist_op, traced_op=twist_op,
            check=checker.check_twist),
        "cli-batch": Workload(
            make=write_chunks,
            pairs=lambda item: len(item[1]), op=cli_process_op,
            traced_op=cli_inprocess_op,
            check=lambda item, r: checker.check_batch(item[1], r.returncode,
                                                      r.stdout),
            in_child=True),
    }


# --- measuring -----------------------------------------------------------------

def reference_kernel() -> int:
    """Fixed pure-Python work shaped like the program's (exact rationals in
    tuple-keyed dicts, a small-int reduction stack). It never calls the
    program; its run time tracks how fast this machine is right now."""
    acc: dict = {}
    for i in range(1500):
        k = (i % 7, i % 5)
        v = acc.get(k, Fraction(0)) + Fraction(i % 3 - 1, 2)
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    stack: list[int] = []
    for i in range(6000):
        l = (i * 7919) % 13 - 6
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return len(acc) + len(stack)


def speed_factor() -> float:
    """REFERENCE_NS over the reference kernel's current time (median of 3):
    below 1 while other load on the host slows this process."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        reference_kernel()
        times.append(time.perf_counter_ns() - t0)
    return REFERENCE_NS / statistics.median(times)


def closed_loop(items, op, seconds=None, count=None, min_ops=0, first=0):
    """Run ops back to back over the items, cycling from index `first`, for
    `seconds` (and at least `min_ops` ops) or for exactly `count` ops.
    Returns outputs, per-op latencies in ns and the loop's wall seconds."""
    outs, lat = [], []
    start = time.perf_counter()
    deadline = start + (seconds or 0)
    i = 0
    while (i < count) if count is not None else (
            i < min_ops or time.perf_counter() < deadline):
        item = items[(first + i) % len(items)]
        t0 = time.perf_counter_ns()
        try:
            out = op(item)
        except Exception as exc:  # the op failed; counted, reported, not fatal
            out = exc
        lat.append(time.perf_counter_ns() - t0)
        outs.append(out)
        i += 1
    return outs, lat, time.perf_counter() - start


def spawn_factor(env) -> float:
    """SPAWN_NS over the wall time of starting and ending a bare
    interpreter (`python -c pass`)."""
    t0 = time.perf_counter_ns()
    run_child([sys.executable, "-c", "pass"], env)
    return SPAWN_NS / (time.perf_counter_ns() - t0)


def calibrated_loop(items, op, seconds, min_ops, factor=speed_factor):
    """closed_loop in segments of SEGMENT_S, with `factor()` measured
    between segments. Each op's latency is scaled by the mean factor of the
    two calibrations around its segment. Returns outputs, scaled
    latencies in ns, the loop's wall seconds and the per-segment factors."""
    outs, lat, factors = [], [], []
    start = time.perf_counter()
    before = factor()
    deadline = start + seconds
    while len(outs) < min_ops or time.perf_counter() < deadline:
        seg_outs, seg_lat, _ = closed_loop(items, op, seconds=SEGMENT_S,
                                           min_ops=1, first=len(outs))
        after = factor()
        factors.append((before + after) / 2)
        outs += seg_outs
        lat += [t * factors[-1] for t in seg_lat]
        before = after
    return outs, lat, time.perf_counter() - start, factors


def check_all(w: Workload, items, outs) -> list[str]:
    failures = []
    for i, out in enumerate(outs):
        item = items[i % len(items)]
        if isinstance(out, Exception):
            why = f"raised {type(out).__name__}: {out}"
        else:
            why = w.check(item, out)
        if why is not None:
            failures.append(f"op {i}: {why}")
    return failures


def measure_setup(workload: str, env, chunk_dir: Path) -> list[float]:
    """Scaled set-up seconds of SETUP_REPS fresh interpreters."""
    pairs_file = chunk_dir / "setup.tsv"
    pairs_file.write_text("1\tx1\tx1^-1\n")
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(pairs_file)]
    times = []
    for rep in range(SETUP_REPS + 1):
        before = speed_factor()
        r = run_child(cmd, env)
        if r.returncode != 0:
            sys.exit(f"error: set-up probe exited {r.returncode}")
        if rep:  # the first run fills the bytecode cache and is not timed
            factor = (before + speed_factor()) / 2
            times.append(float(r.stdout.strip().splitlines()[-1]) * factor)
    return times


def end_to_end(name, w: Workload, items, seconds, env, chunk_dir):
    setup = measure_setup(name, env, chunk_dir)
    closed_loop(items, w.op, count=WARMUP_OPS)
    outs, lat, wall, factors = calibrated_loop(
        items, w.op, seconds, MIN_OPS,
        (lambda: spawn_factor(env)) if w.in_child else speed_factor)
    if w.in_child:
        rss_kb = max(getattr(o, "maxrss_kb", 0) for o in outs)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = check_all(w, items, outs)
    ms = [t / 1e6 for t in lat]
    deciles = statistics.quantiles(ms, n=10)
    pairs = sum(w.pairs(items[i % len(items)]) for i in range(len(outs)))
    metrics = {
        "pairs_per_s": pairs / (sum(lat) / 1e9),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": deciles[8],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024,
    }
    detail = {"ops": len(outs), "pairs": pairs, "wall_s": wall,
              "raw_pairs_per_wall_s": pairs / wall,
              "speed_factor_median": statistics.median(factors),
              "samples_beyond_p90": sum(1 for t in ms if t > deciles[8]),
              "setup_runs_s": setup}
    return metrics, len(outs), failures, detail


def traced(w: Workload, items, seconds):
    """Each op runs untraced and then traced, back to back, so that changes
    in host load cancel out of the tracing overhead."""
    closed_loop(items, w.traced_op, count=WARMUP_OPS)
    tracer = spans.Tracer()

    def op(item):
        with tracer.op():
            return w.traced_op(item)

    plain, outs, untraced_ns, traced_ns = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while len(outs) < MIN_TRACED_OPS or time.perf_counter() < deadline:
        item = items[len(outs) % len(items)]
        out, lat, _ = closed_loop([item], w.traced_op, count=1)
        plain += out
        untraced_ns += lat[0]
        with tracer.installed():
            out, lat, _ = closed_loop([item], op, count=1)
        outs += out
        traced_ns += lat[0]
    failures = check_all(w, items, plain) + check_all(w, items, outs)
    metrics = spans.layer_metrics(tracer, traced_ns, untraced_ns)
    detail = {"ops": len(outs), "traced_s": traced_ns / 1e9,
              "untraced_s": untraced_ns / 1e9,
              "module_self_share": spans.module_shares(tracer),
              "missing_spans": tracer.missing}
    return metrics, 2 * len(outs), failures, detail


# --- reporting -----------------------------------------------------------------

def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog=f"Held-out seed for re-checking claims: {HELDOUT_SEED}.")
    parser.add_argument("--workload", required=True, choices=tuple(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    co, cli = import_program()
    env = child_env()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        ws = make_workloads(co, cli, env, Path(tmp))
        w = ws[args.workload]
        items = w.make(random.Random(args.seed))
        if args.trace:
            metrics, attempted, failures, detail = traced(w, items, args.seconds)
            units = {k: layer_unit(k) for k in metrics}
        else:
            metrics, attempted, failures, detail = end_to_end(
                args.workload, w, items, args.seconds, env, Path(tmp))
            units = dict(END_TO_END)

    record = {"workload": args.workload, "why": WHY[args.workload],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "attempted": attempted,
              "failed": len(failures), "failed_share": len(failures) / attempted,
              "failures": failures[:20], **detail,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {WHY[args.workload]}")
    for key in ("ops", "pairs", "samples_beyond_p90", "raw_pairs_per_wall_s",
                "speed_factor_median", "missing_spans", "module_self_share"):
        if key in detail:
            print(f"  {key}: {detail[key]}")
    print(f"  failed_share: {len(failures) / attempted:.4f} "
          f"({len(failures)} of {attempted} ops)")
    for why in failures[:5]:
        print(f"  FAILED {why}")
    for k, v in metrics.items():
        print(f"  {k:34s} {v:12.6g} {units[k]}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
