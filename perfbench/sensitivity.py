"""Check that host-speed scaling keeps a slow-down of the program whole.

    python3 perfbench/sensitivity.py --case extra-work --rounds 8
    python3 perfbench/sensitivity.py --case heap-cache --rounds 8
    python3 perfbench/sensitivity.py --case heap-growth --rounds 40

hostspeed.py measures the host's speed from inside the process it scales,
so whatever the program does to that process's speed could also slow the
calibration and be divided out.  This script injects a regression into
bolkit, by rebinding one public function as layertrace.py does, and runs
the same pieces of work with and without it, back to back, so that both
see the same host state.  It reports by what share the regression raised
the unscaled wall time and the scaled time.  If the scaling keeps the
regression whole, the two shares agree, but the unscaled share carries the
host's noise.  So the script also looks at the calibration directly: after
each regular sample it times one more pass.  The host has not changed in
between, so ``regular/extra - 1`` is what the program's state still adds to
a regular sample.  If it is near 0 with and without the change, the change
has not slowed the calibration, and none of it is divided out.

Cases:
- ``extra-work``: the ops of the ``analyze`` workload.  ``structure_report``
  also checks the Moufang identity once more before its own checks.
- ``heap-cache``: the claims of the ``verify`` suite.  ``generated_subloop``
  keeps a copy of the rows of every other table it works in, a cache that
  is never read and grows through each claim; it is dropped after the claim.
- ``heap-growth``: no bolkit change.  Phases in which the heap grows
  alternate with phases in which it does not, and a fixed bolkit call and
  the calibration are timed in both (see ``heap_growth``).

The last line of output is a JSON object with the totals.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable

import hostspeed
import layertrace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from bolkit import extensions, structure, verify  # noqa: E402

Injection = Callable[[], Callable[[], None]]  # installs a change, returns its undo


def extra_work() -> Callable[[], None]:
    original = structure.structure_report

    def report(Q: Any) -> str:
        structure.check_identity(Q, "moufang")
        return original(Q)

    return layertrace.rebind(original, report)


HELD: list[list[list[int]]] = []


def heap_cache() -> Callable[[], None]:
    original = structure.generated_subloop
    calls = [0]

    def closure(Q: Any, S: Any) -> Any:
        calls[0] += 1
        if calls[0] % 2:
            HELD.append([list(row) for row in Q.cells])
        return original(Q, S)

    undo = layertrace.rebind(original, closure)

    def drop() -> None:
        undo()
        HELD.clear()

    return drop


def analyze_ops(seed: int) -> list[tuple[Callable[[], Any], Callable[[], Any]]]:
    items = workloads.Analyze().setup(seed)
    return [(lambda t=item.text: workloads._check_path(t),) * 2 for item in items]


def verify_claims(seed: int) -> list[tuple[Callable[[], Any], Callable[[], Any]]]:
    # one suite per variant, so each builds and caches its own fixtures
    # in the same claims
    plain, injected = verify.VerificationSuite(), verify.VerificationSuite()
    return [
        (a[2], b[2]) for a, b in zip(plain.claim_definitions(), injected.claim_definitions())
    ]


CASES: dict[str, tuple[Callable[[int], list], Injection]] = {
    "extra-work": (analyze_ops, extra_work),
    "heap-cache": (verify_claims, heap_cache),
}


class PairedMeter(hostspeed.HostSpeed):
    """A HostSpeed that follows each sample with one more timed pass."""

    def __init__(self) -> None:
        super().__init__()
        self.penalties: list[float] = []  # regular / extra - 1 of each sample

    def _sample(self, signum: int, frame: object) -> None:
        super()._sample(signum, frame)
        w0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            c0 = time.thread_time()
            hostspeed._calibrate()
            extra = time.thread_time() - c0
        finally:
            if collecting:
                gc.enable()
        regular = hostspeed.REFERENCE / self.ratios[-1]
        self.penalties.append(regular / extra - 1 if extra > 0 else 0.0)
        self.walls[-1] += time.perf_counter() - w0  # handler time, not the program's

    def penalty(self, t0: float, t1: float) -> tuple[float, int]:
        """Sum and number of the penalties of the samples taken in [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.penalties[lo:hi]), hi - lo


def paired(
    make_tasks: Callable[[int], list], inject: Injection, rounds: int, seed: int
) -> list[dict[str, float]]:
    """Per round, the summed unscaled and scaled seconds and calibration
    penalties of the plain and the injected runs of every task.  The two
    runs of a task follow each other, and which goes first alternates from
    task to task."""
    spans: list[list[tuple[bool, float, float]]] = []
    with PairedMeter() as meter:
        for r in range(rounds):
            spans.append([])
            for i, (plain, injected) in enumerate(make_tasks(seed + r)):
                for with_change in (False, True) if (i + r) % 2 == 0 else (True, False):
                    undo = inject() if with_change else None
                    t0 = time.perf_counter()
                    (injected if with_change else plain)()
                    t1 = time.perf_counter()
                    if undo is not None:
                        undo()
                    spans[-1].append((with_change, t0, t1))
    rows = []
    for round_spans in spans:
        row = dict.fromkeys(
            (
                f"{m}_{kind}"
                for m in ("wall", "scaled", "penalty", "samples")
                for kind in ("plain", "injected")
            ),
            0.0,
        )
        for with_change, t0, t1 in round_spans:
            kind = "injected" if with_change else "plain"
            row[f"wall_{kind}"] += t1 - t0
            row[f"scaled_{kind}"] += meter.scaled(t0, t1)
            total, count = meter.penalty(t0, t1)
            row[f"penalty_{kind}"] += total
            row[f"samples_{kind}"] += count
        rows.append(row)
    return rows


def share(row: dict[str, float], clock: str) -> float:
    return row[f"{clock}_injected"] / row[f"{clock}_plain"] - 1


def mean_penalty(row: dict[str, float], kind: str) -> float:
    return row[f"penalty_{kind}"] / max(1.0, row[f"samples_{kind}"])


def heap_growth(rounds: int, cycles: int = 100, copies: int = 300) -> dict[str, float]:
    """Alternate phases in which the heap grows by about 50 MB with phases
    that make and drop the same objects.  Between allocation bursts, time
    one fixed bolkit call and one calibration sample, both with garbage
    collection held off.  If the two slow by the same share while the heap
    grows, the growth slows every piece of code in the process, and the
    scaling takes that part out along with the host's own slowness."""
    Q = extensions.cyclic_group(12)
    rows = Q.cells
    sums = dict.fromkeys(
        (f"{m}_{kind}" for m in ("work", "calibration") for kind in ("plain", "injected")), 0.0
    )
    held: list[list[list[int]]] = []
    for r in range(rounds):
        for kind in ("plain", "injected") if r % 2 == 0 else ("injected", "plain"):
            for _ in range(cycles):
                for _ in range(copies):
                    copy = [list(row) for row in rows]
                    if kind == "injected":
                        held.append(copy)
                gc.disable()
                try:
                    t0 = time.perf_counter()
                    structure.nuclei(Q)
                    structure.check_identity(Q, "moufang")
                    sums[f"work_{kind}"] += time.perf_counter() - t0
                    hostspeed._calibrate()
                    c0 = time.thread_time()
                    hostspeed._calibrate()
                    sums[f"calibration_{kind}"] += time.thread_time() - c0
                finally:
                    gc.enable()
            held.clear()
    return sums


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", required=True, choices=sorted([*CASES, "heap-growth"]))
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    if args.case == "heap-growth":
        sums = heap_growth(args.rounds)
        result = {"work_share": share(sums, "work"), "calibration_share": share(sums, "calibration")}
        print(
            f"while the heap grows: bolkit call {result['work_share']:+.2%},"
            f" calibration {result['calibration_share']:+.2%}"
        )
        print(json.dumps({"case": args.case, "rounds": args.rounds, **sums, **result}))
        return 0

    rows = paired(*CASES[args.case], args.rounds, args.seed)
    for i, row in enumerate(rows):
        print(
            f"round {i}: wall {row['wall_plain']:.3f} -> {row['wall_injected']:.3f} s"
            f" ({share(row, 'wall'):+.2%}), scaled {row['scaled_plain']:.3f} ->"
            f" {row['scaled_injected']:.3f} s ({share(row, 'scaled'):+.2%}), calibration"
            f" penalty {mean_penalty(row, 'plain'):+.2%} -> {mean_penalty(row, 'injected'):+.2%}"
        )
    total = {k: sum(r[k] for r in rows) for k in rows[0]}
    total["wall_share"] = share(total, "wall")
    total["scaled_share"] = share(total, "scaled")
    total["penalty_plain"] = mean_penalty(total, "plain")
    total["penalty_injected"] = mean_penalty(total, "injected")
    total["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"total: wall {total['wall_share']:+.2%}, scaled {total['scaled_share']:+.2%},"
        f" calibration penalty {total['penalty_plain']:+.2%} -> {total['penalty_injected']:+.2%}"
    )
    print(json.dumps({"case": args.case, "rounds": args.rounds, **total}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
