"""Run one workload of the bolkit benchmark in this interpreter.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Run from the repository root; bolkit is imported from ``src/`` next to this
directory, never from an installed copy.  The run repeats the workload's
job (closed loop, one caller) until ``--seconds`` would be exceeded, checks
every output, prints each metric with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``failed/attempted`` is
the fail ratio.

``--trace 0`` reports the end-to-end metrics, measured untraced; job, op
and set-up times are scaled to the host's fast state by hostspeed.py.
``--trace 1`` alternates an untraced job with a traced set-up and job, and
reports the per-layer metrics of layertrace.py plus the tracing overhead.
README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import hostspeed
import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
WORKLOAD_NAMES = ("verify", "analyze", "iso", "search")
SETUP_SAMPLES = 9  # this process plus eight cold child processes


def cold_setup(name: str, seed: int) -> tuple[Any, Any, float]:
    """Import bolkit and build a workload's inputs; returns (workload, inputs, scaled seconds)."""
    with hostspeed.HostSpeed() as meter:
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import workloads

        workload = workloads.WORKLOADS[name]()
        inputs = workload.setup(seed)
        t1 = time.perf_counter()
    return workload, inputs, meter.scaled(t0, t1)


def setup_seconds(name: str, seed: int, first: float) -> float:
    """Median set-up time over this process and fresh child interpreters."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Tally:
    """Checked op counts across the jobs of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, flags: list[bool]) -> None:
        self.attempted += len(flags)
        self.failed += flags.count(False)


def run_job(workload: Any, inputs: Any, tally: Tally) -> tuple[float, float, list[Any]]:
    """One job, then its check; returns the job's start, end and ops."""
    t0 = time.perf_counter()
    ops = workload.run(inputs)
    t1 = time.perf_counter()
    tally.add(workload.check(inputs, ops))
    return t0, t1, ops


def keep_going(start: float, spans: list[float], seconds: float) -> bool:
    """Start another job only if a typical one still ends within the run."""
    return time.perf_counter() - start + statistics.median(spans) <= seconds


def measure(workload: Any, inputs: Any, seconds: float, tally: Tally) -> dict[str, float]:
    walls: list[float] = []
    jobs: list[float] = []
    p50s: list[float] = []
    p90s: list[float] = []
    spans: list[float] = []
    with hostspeed.HostSpeed() as meter:
        start = time.perf_counter()
        while not spans or keep_going(start, spans, seconds):
            t0, t1, ops = run_job(workload, inputs, tally)
            walls.append(t1 - t0)
            jobs.append(meter.scaled(t0, t1))
            op_ms = [1000 * meter.scaled(op.start, op.end) for op in ops]
            p50s.append(statistics.median(op_ms))
            p90s.append(p90(op_ms))
            del ops  # free this job's outputs before the next job allocates its own
            spans.append(time.perf_counter() - t0)
    print(
        f"jobs: {len(jobs)}  ops per job: {len(op_ms)}"
        f"  unscaled job wall: median {statistics.median(walls)} s, min {min(walls)} s"
    )
    # percentiles are taken per job, so they do not depend on how many jobs fit
    return {
        "job_s": statistics.median(jobs),
        "op_p50_ms": statistics.median(p50s),
        "op_p90_ms": statistics.median(p90s),
    }


def measure_traced(
    workload: Any, inputs: Any, seed: int, seconds: float, tally: Tally
) -> dict[str, float]:
    import workloads  # already imported by cold_setup, once src/ was on the path

    claim_ids = list(workloads.verify_reference())
    rows: list[dict[str, float]] = []
    spans: list[float] = []
    with hostspeed.HostSpeed() as meter:
        start = time.perf_counter()
        while not spans or keep_going(start, spans, seconds):
            t0, t1, ops = run_job(workload, inputs, tally)
            tracer = layertrace.Tracer()
            uninstall = tracer.install()
            try:
                traced_inputs = workload.setup(seed)
                t2, t3, _ = run_job(workload, traced_inputs, tally)
            finally:
                uninstall()
            row = tracer.metrics()
            elapsed = workloads.claim_seconds(ops)
            for claim_id in claim_ids:
                row[f"verify.claim.{claim_id}_s"] = elapsed.get(claim_id, 0.0)
            row["proc.trace_overhead_s"] = meter.scaled(t2, t3) - meter.scaled(t0, t1)
            # the untraced job unscaled and scaled, to set the two side by side
            row["proc.job_wall_s"] = t1 - t0
            row["proc.job_scaled_s"] = meter.scaled(t0, t1)
            del ops
            rows.append(row)
            spans.append(time.perf_counter() - t0)
    print(f"traced jobs: {len(rows)}")
    return {key: statistics.median_low(r[key] for r in rows) for key in rows[0]}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


UNITS = {"job_s": "s", "setup_s": "s", "max_rss_mb": "MB", "op_p50_ms": "ms", "op_p90_ms": "ms"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".calls") or name.endswith(".tables"):
        return "count"
    if name.endswith(".hit_ratio"):
        return "ratio"
    return "s"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bolkit" / "__init__.py").is_file():
        print(f"error: no bolkit sources at {SRC}", file=sys.stderr)
        return 2
    workload, inputs, first_setup = cold_setup(args.workload, args.seed)
    import bolkit

    if SRC not in Path(bolkit.__file__).resolve().parents:
        print(f"error: bolkit imported from {bolkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  trace: {args.trace}")
    print("env: " + json.dumps(environment()))
    tally = Tally()
    if args.trace:
        metrics = measure_traced(workload, inputs, args.seed, args.seconds, tally)
    else:
        metrics = measure(workload, inputs, args.seconds, tally)
        metrics["setup_s"] = setup_seconds(args.workload, args.seed, first_setup)
        metrics["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for name, value in metrics.items():
        print(f"{name}: {value} {unit_of(name)}")
    print(f"fail_ratio: {tally.failed}/{tally.attempted}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
