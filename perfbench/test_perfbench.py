"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""

import dataclasses
import gc
import json
import random
import shutil
import subprocess
import sys
import time

import pytest

from run import HERE, ROOT, SRC, UNITS, WORKLOAD_NAMES, Tally, measure, unit_of

sys.path.insert(0, str(SRC))

import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import sensitivity  # noqa: E402
import workloads  # noqa: E402
from bolkit import extensions, iso, loop_core, verify  # noqa: E402

CHEAP_CLAIMS = ("sec3-example-fixture", "sec5-order12-example", "sec5-order16-semidirect")


class CheapSuite(verify.VerificationSuite):
    def claim_definitions(self):
        return [d for d in super().claim_definitions() if d[0] in CHEAP_CLAIMS]


def replace_output(ops, i, output):
    return ops[:i] + [dataclasses.replace(ops[i], output=output)] + ops[i + 1 :]


def test_verify_reference_is_the_whole_report():
    blocks = workloads.verify_reference()
    lines = [line for block in blocks.values() for line in block]
    assert len(blocks) == 13
    text = "\n".join(lines + ["claims passed: 13/13"]) + "\n"
    assert text == workloads.VERIFY_REFERENCE.read_text(encoding="utf-8")


def cheap_reference(tmp_path, claims=CHEAP_CLAIMS):
    """The recorded report cut down to the given claims."""
    blocks = workloads.verify_reference()
    lines = [line for c in claims for line in blocks[c]]
    lines.append(f"claims passed: {len(claims)}/{len(claims)}")
    path = tmp_path / "verify_report.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_verify_checks_claims_against_reference(tmp_path):
    w = workloads.Verify(CheapSuite, cheap_reference(tmp_path))
    ops = w.run(w.setup(1))
    results = ops[0].output
    assert [r.claim_id for r in results] == list(CHEAP_CLAIMS)
    assert w.check(None, ops) == [True]
    assert set(workloads.claim_seconds(ops)) == set(CHEAP_CLAIMS)
    wrong_text = dataclasses.replace(results[1], details="order 12")
    assert w.check(None, replace_output(ops, 0, [results[0], wrong_text, results[2]])) == [False]
    failed = dataclasses.replace(results[0], passed=False)
    assert w.check(None, replace_output(ops, 0, [failed] + results[1:])) == [False]
    assert w.check(None, replace_output(ops, 0, RuntimeError("crashed"))) == [False]


def test_verify_counts_a_missing_or_reordered_claim_as_failed(tmp_path):
    w = workloads.Verify(CheapSuite, cheap_reference(tmp_path))
    ops = w.run(w.setup(1))
    results = ops[0].output
    assert w.check(None, replace_output(ops, 0, results[:2])) == [False]
    assert w.check(None, replace_output(ops, 0, results[1:])) == [False]
    assert w.check(None, replace_output(ops, 0, results[::-1])) == [False]
    # the three cheap claims against the full 13-claim report
    assert workloads.Verify(CheapSuite).check(None, ops) == [False]


def test_search_counts_and_tables_are_checked():
    w = workloads.Search(orders=(6, 7), sample=1000)
    inputs = w.setup(1)
    ops = w.run(inputs)
    assert w.check(inputs, ops) == [True, True]
    tables = ops[0].output
    assert w.check(inputs, replace_output(ops, 0, tables[:-1])) == [False, True]
    order7 = ops[1].output
    assert w.check(inputs, replace_output(ops, 1, order7[:-1] + order7[:1])) == [True, False]
    assert w.check(inputs, replace_output(ops, 1, tables[:1] + order7[1:])) == [True, False]
    rows = [list(r) for r in tables[5].cells]
    rows[2][1], rows[2][2] = rows[2][2], rows[2][1]
    broken = loop_core.LoopTable(6, tuple(tuple(r) for r in rows))
    assert w.check(inputs, replace_output(ops, 0, tables[:5] + [broken] + tables[6:])) == [False, True]


def test_a_corrupted_result_counts_as_failed():
    class DropsATable(workloads.Search):
        def run(self, inputs):
            return [dataclasses.replace(op, output=op.output[1:]) for op in super().run(inputs)]

    w = DropsATable(orders=(6,), sample=10)
    tally = Tally()
    metrics = measure(w, w.setup(1), 0.0, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert metrics["job_s"] > 0


ISO_BASES = ("order12", "order4n_n3", "Z2xZ2", "Z3xZ3")


def test_iso_partition_and_answers_are_checked():
    w = workloads.Iso(copies=2, bases=ISO_BASES)
    inputs = w.setup(1)
    assert len(inputs.cells) == 8 and len(set(inputs.classes)) == 3
    ops = w.run(inputs)
    assert w.check(inputs, ops) == [True] * 9
    assert w.check(inputs, replace_output(ops, 4, False)) == [True] * 4 + [False] + [True] * 4
    # a wrong partition: the merged order-12 class split apart
    split = [iso.IsoClass(m, (m,)) for c in ops[0].output for m in c.members]
    assert w.check(inputs, replace_output(ops, 0, split))[0] is False
    # classes not ordered by first member
    assert w.check(inputs, replace_output(ops, 0, ops[0].output[::-1]))[0] is False


def test_iso_batch_is_fixed_and_seed_orders_queries():
    w = workloads.Iso(copies=2, bases=ISO_BASES)
    a, b = w.setup(1), w.setup(2)
    assert a == w.setup(1)
    assert a.cells == b.cells and sorted(a.queries) == sorted(b.queries)


ANALYZE_PLAN = (("Z16", 1), ("q9_0", 1), ("order4n_4", 2))


def test_analyze_reports_are_checked_through_the_relabeling():
    w = workloads.Analyze(ANALYZE_PLAN)
    items = w.setup(1)
    assert items == w.setup(1) and items != w.setup(2)
    ops = w.run(items)
    assert w.check(items, ops) == [True] * 4
    k = next(i for i, item in enumerate(items) if item.base == "q9_0")
    report = ops[k].output.replace("commutant_size: 6", "commutant_size: 5")
    assert report != ops[k].output
    assert w.check(items, replace_output(ops, k, report)).count(False) == 1
    # the same report under the identity labeling does not match
    unmapped = dataclasses.replace(items[k], labeling=tuple(range(1, 17)))
    assert w.check(items[:k] + [unmapped] + items[k + 1 :], ops)[k] is False


def test_analyze_reference_covers_every_base():
    reference = json.loads(workloads.ANALYZE_REFERENCE.read_text(encoding="utf-8"))
    assert set(reference) == set(workloads.ANALYZE_BASES)
    assert {base for base, _ in workloads.ANALYZE_PLAN} <= set(reference)


def test_relabel_renames_every_product():
    Q = extensions.build_named_example("order4n", n=4)
    p = workloads.random_labeling(Q.order, random.Random(0))
    T = workloads.relabel(Q.cells, p)
    assert p[0] == 1 and sorted(p) == list(Q.elements())
    assert all(T[p[a] - 1][p[b] - 1] == p[Q.cells[a][b] - 1] for a in range(16) for b in range(16))
    assert workloads.inverse(p)[p[5] - 1] == 6


def test_scaled_time_uses_the_samples_of_its_interval():
    meter = hostspeed.HostSpeed()
    meter.starts = [float(i) for i in range(12)]
    meter.walls = [0.01] * 12
    meter.ratios = [1.0] * 6 + [0.5] * 6
    # six samples inside, all at half the reference speed, their handler time taken out
    assert meter.scaled(6.0, 11.5) == pytest.approx((5.5 - 0.06) * 0.5)
    # a short interval borrows five samples on each side
    assert meter.scaled(0.5, 0.6) == pytest.approx(0.1)


def test_meter_samples_while_active_and_stops():
    with hostspeed.HostSpeed() as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    taken = len(meter.ratios)
    assert taken >= 3 and meter.scaled(t0, t1) > 0
    time.sleep(0.1)
    assert len(meter.ratios) == taken


def test_meter_holds_off_gc_only_inside_a_sample():
    seen = []

    class Probe(hostspeed.HostSpeed):
        def _sample(self, signum, frame):
            hostspeed._calibrate = lambda: seen.append(gc.isenabled())
            try:
                super()._sample(signum, frame)
            finally:
                hostspeed._calibrate = calibrate

    calibrate = hostspeed._calibrate
    with Probe():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
    assert seen and not any(seen)
    assert gc.isenabled()


def test_sensitivity_sees_an_injected_slowdown():
    work = []

    def make_tasks(seed):
        task = lambda: sum(i * i for i in range(100000 * (1 + len(work))))  # noqa: E731
        return [(task, task)] * 4

    def inject():
        work.append(1)
        return work.clear

    rows = sensitivity.paired(make_tasks, inject, rounds=2, seed=1)
    total = {k: sum(r[k] for r in rows) for k in rows[0]}
    # the injected runs do twice the work
    assert sensitivity.share(total, "wall") > 0.5
    assert sensitivity.share(total, "scaled") > 0.5
    assert total["samples_plain"] + total["samples_injected"] > 0


def test_tracer_rebinds_by_name_and_restores():
    original = loop_core.element_order
    tracer = layertrace.Tracer()
    uninstall = tracer.install()
    try:
        assert iso.element_order is loop_core.element_order is not original
        assert iso.isomorphic(extensions.cyclic_group(4), extensions.cyclic_group(4))
    finally:
        uninstall()
    assert iso.element_order is original and loop_core.element_order is original
    m = tracer.metrics()
    assert m["iso.isomorphic.calls"] == 1
    assert m["iso.invariant_profile.calls"] == 2
    assert m["loop_core.element_order.calls"] >= 8
    assert 0 < m["iso.extend_partial_hom.hit_ratio"] <= 1
    # every traced call ran inside isomorphic, so the self times add up to its total
    inner = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert inner == pytest.approx(m["iso.isomorphic.total_s"])


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_printed_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert e2e == UNITS
    names = list(layertrace.Tracer().metrics())
    names += [f"verify.claim.{c}_s" for c in workloads.verify_reference()]
    names += ["proc.trace_overhead_s", "proc.job_wall_s", "proc.job_scaled_s"]
    assert [m["name"] for m in declared["per_layer"]] == names
    assert all(m["unit"] == unit_of(m["name"]) for m in declared["per_layer"])
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS) == list(WORKLOAD_NAMES)
