"""The four workloads of the bolkit benchmark.

A workload builds its inputs from a seed (``setup``), runs one fixed job
through bolkit's public functions (``run``) and checks every output of the
job against knowledge the job does not compute (``check``).  ``run`` returns
one ``Op`` per public call it timed; ``check`` returns one flag per op.

Calls into bolkit go through the module attribute (``iso.classify``, not a
name imported from it), so that the tracer in ``layertrace.py`` sees them.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import difflib
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from bolkit import catalog, extensions, gf2, iso, loop_core, oracle, structure, verify

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
VERIFY_REFERENCE = REFERENCE_DIR / "verify_report.txt"
ANALYZE_REFERENCE = REFERENCE_DIR / "analyze.json"


@dataclass(frozen=True)
class Op:
    """One call into bolkit: its perf_counter start and end, and what it returned."""

    start: float
    end: float
    output: Any


def timed(fn: Callable[..., Any], *args: Any) -> Op:
    """Time fn(*args); an exception is printed and becomes the op's output."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a failed op is counted and the run goes on
        traceback.print_exc()
        out = exc
    return Op(t0, time.perf_counter(), out)


# relabeling -----------------------------------------------------------------


def random_labeling(n: int, rng: random.Random) -> tuple[int, ...]:
    """A uniformly random permutation of 1..n that fixes the identity 1."""
    rest = list(range(2, n + 1))
    rng.shuffle(rest)
    return (1, *rest)


def relabel(cells: tuple[tuple[int, ...], ...], p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The table of the same loop with every element x renamed p[x-1]."""
    n = len(cells)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        row = cells[a]
        new_row = out[p[a] - 1]
        for b in range(n):
            new_row[p[b] - 1] = p[row[b] - 1]
    return tuple(tuple(r) for r in out)


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def is_left_bol_loop(cells) -> bool:
    """Latin square with identity 1 satisfying x(y(xz)) = (x(yx))z, product by product."""
    n = len(cells)
    full = list(range(1, n + 1))
    if list(cells[0]) != full or [row[0] for row in cells] != full:
        return False
    if any(sorted(row) != full for row in cells):
        return False
    if any(sorted(row[j] for row in cells) != full for j in range(n)):
        return False
    for x in range(n):
        rx = cells[x]
        for y in range(n):
            ry = cells[y]
            rxyx = cells[rx[ry[x] - 1] - 1]
            for z in range(n):
                if rx[ry[rx[z] - 1] - 1] != rxyx[z]:
                    return False
    return True


# verify ---------------------------------------------------------------------


def verify_reference() -> dict[str, list[str]]:
    """The recorded ``bolkit verify-paper`` text, as the two lines of each claim."""
    lines = VERIFY_REFERENCE.read_text(encoding="utf-8").splitlines()
    blocks: dict[str, list[str]] = {}
    for head, detail in zip(lines[0:-1:2], lines[1:-1:2]):
        claim_id = head.split()[1].rstrip(":")
        blocks[claim_id] = [head, detail]
    return blocks


class Verify:
    """The full claim suite, ``VerificationSuite().run()``, as one op.

    Most claims take well under 0.1 s, too short to time steadily once per
    run, so per-claim times are per-layer metrics, not ops.  The suite has
    no outside input, so the seed changes nothing here.
    """

    name = "verify"

    def __init__(
        self, make_suite: Callable[[], Any] | None = None, reference: Path = VERIFY_REFERENCE
    ):
        self.make_suite = make_suite or (lambda: verify.VerificationSuite())
        self.reference = reference

    def setup(self, seed: int) -> None:
        return None

    def run(self, inputs: None) -> list[Op]:
        return [timed(lambda: self.make_suite().run())]

    def check(self, inputs: None, ops: list[Op]) -> list[bool]:
        """Every claim passed and the whole report equals the recorded one,
        so a suite that drops, adds or reorders a claim fails too."""
        results = ops[0].output
        if isinstance(results, Exception):
            return [False]
        expected = self.reference.read_text(encoding="utf-8").splitlines()
        lines = verify.report_lines(results)
        failed = [r.claim_id for r in results if not r.passed]
        if failed:
            print("verify: failed claims: " + ", ".join(failed), file=sys.stderr)
        if lines != expected:
            diff = difflib.unified_diff(expected, lines, "reference", "this run", lineterm="")
            print("verify: report differs from the reference:", *diff, sep="\n", file=sys.stderr)
        return [not failed and lines == expected]


def claim_seconds(ops: list[Op]) -> dict[str, float]:
    """ClaimResult.elapsed of each claim, when the ops are a verify job's."""
    results = ops[0].output if ops else None
    if not isinstance(results, list):
        return {}
    return {r.claim_id: r.elapsed for r in results if isinstance(r, verify.ClaimResult)}


# search ---------------------------------------------------------------------

# Identity-normalized left Bol tables of order n.  Every left Bol loop of
# order 6, 7 or 9 is a group, so orbit-stabilizer gives the count as the sum
# of (n-1)!/|Aut G| over the groups G of order n:
#   6: 5!/|Aut Z6| + 5!/|Aut S3| = 60 + 20
#   7: 6!/|Aut Z7| = 120
#   9: 8!/|Aut Z9| + 8!/|Aut Z3^2| = 6720 + 840
# Order 8 has nonassociative loops; 7800 is the sum over its 11 classes.
LABELLED_LEFT_BOL = {6: 80, 7: 120, 8: 7800, 9: 7560}


@dataclass(frozen=True)
class SearchInputs:
    orders: tuple[int, ...]
    seed: int


class Search:
    """``oracle.search_left_bol`` at orders 8 and 9; one op per order.

    The seed picks which found tables the check re-verifies product by product.
    """

    name = "search"

    def __init__(self, orders: tuple[int, ...] = (8, 9), sample: int = 40):
        self.orders = orders
        self.sample = sample
        self.checks_done = 0

    def setup(self, seed: int) -> SearchInputs:
        return SearchInputs(self.orders, seed)

    def run(self, inputs: SearchInputs) -> list[Op]:
        return [timed(oracle.search_left_bol, n) for n in inputs.orders]

    def check(self, inputs: SearchInputs, ops: list[Op]) -> list[bool]:
        # each job re-checks a fresh sample, so a run covers several
        self.checks_done += 1
        flags = []
        for n, op in zip(inputs.orders, ops):
            if isinstance(op.output, Exception):
                flags.append(False)
                continue
            cells = [T.cells for T in op.output]
            rng = random.Random(f"search:{inputs.seed}:{n}:{self.checks_done}")
            sample = rng.sample(cells, min(self.sample, len(cells)))
            flags.append(
                len(cells) == LABELLED_LEFT_BOL[n]
                and len(set(cells)) == len(cells)
                and all(len(c) == n for c in cells)
                and all(is_left_bol_loop(c) for c in sample)
            )
        return flags


# iso ------------------------------------------------------------------------

# Pairs of property-catalog loops that are isomorphic; every other pair of
# the 31 is not, so the catalog has 29 classes.
ISO_SAME_CLASS = {"order4n_n3": "order12", "order4n_n4": "q9_000000111"}

# The iso batch is fixed, not drawn from the run's seed: classify's work on
# 155 random relabelings changes by up to 20% from one draw to the next,
# more than the run-to-run spread that BENCHMARK.json's bounds allow.
ISO_BATCH_SEED = "iso-batch"


@dataclass(frozen=True)
class IsoInputs:
    cells: tuple[tuple[tuple[int, ...], ...], ...]
    classes: tuple[str, ...]  # expected class key of each table
    queries: tuple[tuple[int, int], ...]  # (member, first member of its class)


class Iso:
    """``iso.classify`` of relabeled catalog loops, then ``iso.isomorphic``
    from every member to its class's first member; one op per call.

    The batch is fixed; the seed orders the queries.  README.md says why the
    queries do not call ``find_isomorphism``.
    """

    name = "iso"

    def __init__(self, copies: int = 5, bases: tuple[str, ...] | None = None):
        self.copies = copies
        self.bases = bases

    def setup(self, seed: int) -> IsoInputs:
        loops = [
            Q for Q in catalog.property_catalog() if self.bases is None or Q.name in self.bases
        ]
        rng = random.Random(ISO_BATCH_SEED)
        batch = [
            (relabel(Q.cells, random_labeling(Q.order, rng)), ISO_SAME_CLASS.get(Q.name, Q.name))
            for Q in loops
            for _ in range(self.copies)
        ]
        rng.shuffle(batch)
        first: dict[str, int] = {}
        for i, (_, key) in enumerate(batch):
            first.setdefault(key, i)
        queries = [(i, first[key]) for i, (_, key) in enumerate(batch)]
        random.Random(f"iso:{seed}").shuffle(queries)
        return IsoInputs(
            tuple(c for c, _ in batch), tuple(k for _, k in batch), tuple(queries)
        )

    def run(self, inputs: IsoInputs) -> list[Op]:
        # fresh table objects per job, so nothing cached on them carries over
        tables = [loop_core.LoopTable.from_cells(c) for c in inputs.cells]
        ops = [timed(iso.classify, tables)]
        for src, dst in inputs.queries:
            ops.append(timed(iso.isomorphic, tables[src], tables[dst]))
        return ops

    def check(self, inputs: IsoInputs, ops: list[Op]) -> list[bool]:
        expected: dict[str, list[int]] = {}
        for i, key in enumerate(inputs.classes):
            expected.setdefault(key, []).append(i)
        # every query pairs two relabelings of isomorphic loops
        return [_is_partition(ops[0].output, list(expected.values()))] + [
            op.output is True for op in ops[1:]
        ]


def _is_partition(classes: Any, expected: list[list[int]]) -> bool:
    """classes lists exactly the expected classes, each ordered, ordered by first member."""
    if isinstance(classes, Exception):
        return False
    firsts = [c.members[0] for c in classes]
    return (
        sorted(list(c.members) for c in classes) == sorted(expected)
        and firsts == sorted(firsts)
        and all(c.representative == c.members[0] for c in classes)
    )


# analyze --------------------------------------------------------------------


def _product(k: int, E: loop_core.LoopTable) -> loop_core.LoopTable:
    return catalog.direct_product(extensions.cyclic_group(k), E)


def _q9(i: int) -> loop_core.LoopTable:
    return gf2.build_q9(catalog.Q9_REPRESENTATIVE_TUPLES[i])


def _order4n(n: int) -> loop_core.LoopTable:
    return extensions.build_named_example("order4n", n=n)


def _groups() -> dict[str, Callable[[], loop_core.LoopTable]]:
    C, E = extensions.cyclic_group, extensions.elem_abelian_2
    return {
        "Z16": lambda: C(16),
        "E16": lambda: E(4),
        "Z4xZ4": lambda: _product(4, C(4)),
        "Z32": lambda: C(32),
        "E32": lambda: E(5),
        "Z8xZ4": lambda: _product(8, C(4)),
        "Z2xZ16": lambda: _product(2, C(16)),
        "Z64": lambda: C(64),
        "E64": lambda: E(6),
        "Z8xZ8": lambda: _product(8, C(8)),
        "Z128": lambda: C(128),
    }


def _bol_loops() -> dict[str, Callable[[], loop_core.LoopTable]]:
    bases: dict[str, Callable[[], loop_core.LoopTable]] = {}
    for i in range(len(catalog.Q9_REPRESENTATIVE_TUPLES)):
        bases[f"q9_{i}"] = lambda i=i: _q9(i)
    bases["exceptional"] = gf2.build_exceptional
    for n in (4, 5, 6, 7, 8, 12, 16):
        bases[f"order4n_{n}"] = lambda n=n: _order4n(n)
    for k, picks in ((2, range(0, 6)), (3, range(6, 8)), (4, range(8, 11)), (8, range(18, 19))):
        for i in picks:
            bases[f"Z{k}xq9_{i}"] = lambda k=k, i=i: _product(k, _q9(i))
    for k in (3, 4):
        bases[f"Z{k}xexceptional"] = lambda k=k: _product(k, gf2.build_exceptional())
    return bases


ANALYZE_BASES = {**_groups(), **_bol_loops()}

# (base, copies).  The mix is fixed so that the job's work does not depend on
# the seed; the seed only draws the relabelings and the order.  Sorted by
# cost, about 38% of the ops are cheaper than an order-32 group, the
# order-32 groups sit around the median and the order-64 groups around the
# 90th percentile; the two order-128 tables are the slowest.
ANALYZE_PLAN: tuple[tuple[str, int], ...] = (
    *((f"q9_{i}", 1) for i in range(19)),
    ("exceptional", 2),
    ("order4n_4", 2),
    ("Z16", 1),
    ("E16", 1),
    ("Z4xZ4", 1),
    ("order4n_5", 1),
    ("order4n_6", 2),
    ("order4n_7", 1),
    ("order4n_8", 2),
    *((f"Z2xq9_{i}", 1) for i in range(6)),
    ("Z32", 6),
    ("E32", 6),
    ("Z8xZ4", 6),
    ("Z2xZ16", 6),
    ("Z3xq9_6", 1),
    ("Z3xq9_7", 1),
    ("Z3xexceptional", 2),
    ("order4n_12", 2),
    ("order4n_16", 3),
    ("Z4xq9_8", 1),
    ("Z4xq9_9", 1),
    ("Z4xq9_10", 1),
    ("Z4xexceptional", 2),
    ("Z64", 4),
    ("E64", 3),
    ("Z8xZ8", 3),
    ("Z128", 1),
    ("Z8xq9_18", 1),
)


def report_fields(report: str, inverse_labeling: tuple[int, ...] | None = None) -> dict[str, Any]:
    """The lines of a structure report as a dict, element sets mapped back
    through ``inverse_labeling`` and sorted; the name line is left out."""
    fields: dict[str, Any] = {}
    for line in report.splitlines():
        key, _, value = line.partition(": ")
        if key == "name":
            continue
        if value.startswith("{"):
            members = [int(v) for v in value[1:-1].split(",") if v]
            if inverse_labeling is not None:
                members = [inverse_labeling[v - 1] for v in members]
            fields[key] = sorted(members)
        else:
            fields[key] = value
    return fields


@dataclass(frozen=True)
class AnalyzeItem:
    base: str
    labeling: tuple[int, ...]
    text: str


class Analyze:
    """``parse_table`` then ``structure_report`` on relabeled ``.tbl`` texts of
    order 16-128 (the ``bolkit check`` path); one op per table."""

    name = "analyze"

    def __init__(self, plan: tuple[tuple[str, int], ...] = ANALYZE_PLAN):
        self.plan = plan

    def setup(self, seed: int) -> list[AnalyzeItem]:
        rng = random.Random(f"analyze:{seed}")
        items = []
        for base, copies in self.plan:
            Q = ANALYZE_BASES[base]()
            for _ in range(copies):
                p = random_labeling(Q.order, rng)
                T = loop_core.LoopTable(Q.order, relabel(Q.cells, p))
                items.append(AnalyzeItem(base, p, loop_core.render(T)))
        rng.shuffle(items)
        return items

    def run(self, items: list[AnalyzeItem]) -> list[Op]:
        return [timed(_check_path, item.text) for item in items]

    def check(self, items: list[AnalyzeItem], ops: list[Op]) -> list[bool]:
        reference = json.loads(ANALYZE_REFERENCE.read_text(encoding="utf-8"))
        return [
            isinstance(op.output, str)
            and report_fields(op.output, inverse(item.labeling)) == reference[item.base]
            for item, op in zip(items, ops)
        ]


def _check_path(text: str) -> str:
    return structure.structure_report(loop_core.parse_table(text))


WORKLOADS = {w.name: w for w in (Verify, Analyze, Iso, Search)}
