import math
import random
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

import refcheck
from bolkit import errors, oracle
from bolkit.extensions import automorphism_group
from bolkit.iso import classify
from bolkit.loop_core import MAX_ORDER, LoopTable
from bolkit.oracle import enumerate_all_loops, search_left_bol, witnessed_search
from bolkit.structure import commutant
from bolkit.verify import VerificationSuite

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify_report.txt"


def test_enumerate_all_loops_counts():
    # identity-normalized loops = reduced Latin squares
    assert len(enumerate_all_loops(1)) == 1
    assert len(enumerate_all_loops(2)) == 1
    assert len(enumerate_all_loops(3)) == 1
    assert len(enumerate_all_loops(4)) == 4
    assert len(enumerate_all_loops(5)) == 56


def test_enumerate_all_loops_refuses_order_7_before_backtracking(monkeypatch):
    # order 7 has 16,942,080 loops: the refusal must come before the first is built
    def build(*args):
        raise AssertionError("a table of order 7 was built")

    monkeypatch.setattr(oracle, "LoopTable", build)
    with pytest.raises(errors.TooLarge):
        enumerate_all_loops(7)


def test_search_agrees_with_filtered_enumeration():
    # the propagating search must find exactly the left Bol tables that a
    # plain enumerate-and-filter pass finds
    for n in range(1, 6):
        brute = {Q for Q in enumerate_all_loops(n) if refcheck.holds(Q.cells, "left_bol")}
        fast = set(search_left_bol(n))
        assert fast == brute


def test_search_order6_all_groups():
    tables = search_left_bol(6)
    assert len(tables) == 80
    classes = classify(tables)
    assert len(classes) == 2
    assert all(
        refcheck.holds(tables[c.representative].cells, "associative") for c in classes
    )


def test_search_budget(monkeypatch):
    monkeypatch.setattr(oracle, "SEARCH_BUDGET", 5)
    with pytest.raises(errors.SearchBudgetExceeded):
        search_left_bol(6)


def test_search_budget_is_exact(monkeypatch):
    # the budget counts candidate rows that reach propagation: for row 2
    # only the first candidate of each cycle type, the others are relabeled.
    # Order 6 has three types (2^3, 3^2, 6) and 19 candidates for the rows
    # branched on below them; at order 7 the first 7-cycle forces all of Z7
    for n, k in ((6, 22), (7, 1)):
        full = search_left_bol(n)
        monkeypatch.setattr(oracle, "SEARCH_BUDGET", k)
        assert search_left_bol(n) == full
        monkeypatch.setattr(oracle, "SEARCH_BUDGET", k - 1)
        with pytest.raises(errors.SearchBudgetExceeded):
            search_left_bol(n)
        monkeypatch.undo()


@pytest.mark.parametrize("search", [search_left_bol, enumerate_all_loops])
@pytest.mark.parametrize(
    "n, error",
    [
        (0, errors.BadParams),
        (-3, errors.BadParams),
        (256, errors.TooLarge),
        (MAX_ORDER + 1, errors.TooLarge),
    ],
)
def test_searches_reject_orders_out_of_range(search, n, error):
    with pytest.raises(error):
        search(n)


def test_propagation_alone_completes_exactly_the_left_bol_loops(monkeypatch):
    # offered only a loop's own rows, with no forward check and no
    # relabeling, the search must complete the loop iff it is left Bol, and
    # nothing that is not
    own: list[tuple[int, ...]] = []

    def own_row(rows, r, col_used):
        row = own[r]
        if not any((col_used[z] >> v) & 1 for z, v in enumerate(row)):
            yield row

    def own_row2(n):
        # the identity listing: row 2 is searched as it is, not relabeled
        yield own[1], [tuple(range(n))]

    monkeypatch.setattr(oracle, "_row_candidates", own_row)
    monkeypatch.setattr(oracle, "_row2_classes", own_row2)
    bol = 0
    for n in range(1, 7):
        for Q in enumerate_all_loops(n):
            own[:] = [tuple(v - 1 for v in row) for row in Q.cells]
            found = search_left_bol(n)
            assert all(refcheck.holds(T.cells, "left_bol") for T in found)
            is_bol = refcheck.holds(Q.cells, "left_bol")
            assert (found == [Q]) == is_bol
            bol += is_bol
    assert bol == 93


def _cycle_listing(row):
    """The cycle type of a 0-based permutation and its cycles in normal form.

    The type is the length of the cycle through 0, then the sorted lengths
    of the other cycles.  The listing is the cycle through 0, starting at
    0, then the other cycles by (length, least element), each starting at
    its least element.
    """
    seen = 0
    cycles = []
    for s in range(len(row)):
        if not (seen >> s) & 1:
            cycle = [s]
            z = row[s]
            while z != s:
                cycle.append(z)
                seen |= 1 << z
                z = row[z]
            cycles.append(cycle)
    listing, *rest = cycles
    rest.sort(key=len)  # stable: ties keep the order of least elements
    kind = (len(listing), *map(len, rest))
    for cycle in rest:
        listing += cycle
    return kind, tuple(listing)


def test_row2_classes_are_the_filtered_row2_candidates(monkeypatch):
    # the reference, by brute force: every permutation with 0 -> 1 whose
    # cycles all have one length, grouped by type; the direct classes list
    # exactly those, each led by the lex-least member of its type
    for n in range(2, 10):
        first = {}
        grouped = {}
        for tail in permutations([0, *range(2, n)]):  # lex order
            kind, listing = _cycle_listing((1, *tail))
            if len(set(kind)) == 1:
                first.setdefault(kind, (1, *tail))
                grouped.setdefault(kind, set()).add(listing)
        classes = list(oracle._row2_classes(n))
        kinds = [(m,) * (n // m) for m in range(2, n + 1) if n % m == 0]
        assert [_cycle_listing(rep)[0] for rep, _ in classes] == kinds
        assert sorted(grouped) == sorted(kinds)
        for rep, listings in classes:
            kind, listing = _cycle_listing(rep)
            assert rep == first[kind]
            assert listing == tuple(range(n)) == listings[0]
            assert len(set(listings)) == len(listings)
            assert set(listings) == grouped[kind]

    # the search takes no row-2 candidate from the generator
    rows_asked = []
    generate = oracle._row_candidates

    def spy(rows, r, col_used):
        rows_asked.append(r)
        return generate(rows, r, col_used)

    monkeypatch.setattr(oracle, "_row_candidates", spy)
    for n in range(2, 10):
        search_left_bol(n)
    assert rows_asked and 1 not in rows_asked


def test_search_order7_cyclic_only():
    tables = search_left_bol(7)
    # only Z7: 6!/|Aut(Z7)| = 720/6 labelings
    assert len(tables) == 120
    assert len(classify(tables)) == 1


def test_search_agrees_with_filtered_enumeration_order6():
    brute = {Q for Q in enumerate_all_loops(6) if refcheck.holds(Q.cells, "left_bol")}
    assert set(search_left_bol(6)) == brute


def test_search_is_strictly_lex_increasing(order8_tables):
    # sorted, hence also free of duplicates
    for tables in [search_left_bol(n) for n in range(1, 8)] + [order8_tables]:
        cells = [Q.cells for Q in tables]
        assert all(a < b for a, b in zip(cells, cells[1:]))


def test_search_order9_groups_only():
    # left Bol loops of order p^2 are groups: Z9 and Z3 x Z3, with
    # |Aut| = 6 and |GL(2,3)| = 48
    assert len(search_left_bol(9)) == math.factorial(8) // 6 + math.factorial(8) // 48 == 7560


def test_search_order8_orbit_stabilizer(order8_tables, order8_classes):
    # each class holds 7!/|Aut(Q)| identity-normalized labelings
    counts = [math.factorial(7) // len(automorphism_group(cls[0])) for cls in order8_classes]
    assert [len(cls) for cls in order8_classes] == counts
    assert len(order8_tables) == sum(counts) == 7800
    assert sum(refcheck.holds(cls[0].cells, "associative") for cls in order8_classes) == 5


def test_search_order10_groups_only():
    # Bol loops of order 2p are groups (Burn, 1978): Z10 and D5, with
    # |Aut Z10| = 4 and |Aut D5| = |Hol Z5| = 20
    assert (
        len(search_left_bol(10))
        == math.factorial(9) // 4 + math.factorial(9) // 20
        == 90_720 + 18_144
        == 108_864
    )


def test_search_holds_one_object_per_distinct_row(order8_tables):
    # tables share the object of each distinct row, which keeps the output small
    for tables, distinct in ((order8_tables, 6406), (search_left_bol(9), 42561)):
        rows = [row for Q in tables for row in Q.cells]
        assert len(set(rows)) == len(set(map(id, rows))) == distinct


def test_search_is_closed_under_moving_element_2(order8_tables):
    # the search relabels only by maps that fix 1 and 2, so a transposition
    # (2 k) tests a symmetry it does not use: the found set is closed under it
    rng = random.Random(20)
    for n, tables in ((6, search_left_bol(6)), (7, search_left_bol(7)), (8, order8_tables)):
        found = {Q.cells for Q in tables}
        for Q in rng.sample(tables, 40):
            for k in range(3, n + 1):
                sigma = list(range(1, n + 1))
                sigma[1], sigma[k - 1] = k, 2
                assert refcheck.relabel(Q.cells, sigma) in found


def test_witnesses_relabel_onto_the_search_output():
    # each found table, relabeled by each listing of its class, is one of
    # the output tables, and the images hit every table exactly once
    for n in range(1, 10):
        search = witnessed_search(n)
        assert search.tables == search_left_bol(n)
        images = Counter(
            refcheck.relabel(T, [v + 1 for v in s])
            for cls in search.classes
            for s in cls.listings
            for T in cls.found
        )
        assert set(images.values()) == {1}
        assert set(images) == {Q.cells for Q in search.tables}
        assert oracle._witnesses_cover(search)


def _with_class(search, k, **changes):
    """The search with the fields of its row-2 class k replaced."""
    classes = list(search.classes)
    classes[k] = classes[k]._replace(**changes)
    return search._replace(classes=classes)


def _listing_times_34(search):
    # one listing of the 8-cycle class composed with (3 4), which fixes 1 and 2
    listings = list(search.classes[-1].listings)
    s = listings[1]
    listings[1] = (s[0], s[1], s[3], s[2], *s[4:])
    return _with_class(search, -1, listings=listings)


def _listing_dropped(search):
    return _with_class(search, 1, listings=search.classes[1].listings[:-1])


def _found_table_dropped(search):
    return _with_class(search, 0, found=search.classes[0].found[1:])


def _listing_repeated(search):
    # every table is still hit, but some twice
    listings = search.classes[0].listings
    return _with_class(search, 0, listings=[*listings, listings[-1]])


def _order8_claim(search):
    """The sec5-order8-oracle claim and report of a fresh suite on this search."""
    fresh = VerificationSuite()
    fresh.order8_search = search
    return fresh.claim_sec5_order8_oracle(), fresh.order8_report


@pytest.mark.parametrize(
    "mutate", [_listing_times_34, _listing_dropped, _found_table_dropped, _listing_repeated]
)
def test_order8_claim_fails_on_broken_witnesses(suite, mutate):
    (passed, _), report = _order8_claim(mutate(suite.order8_search))
    # the witness check alone catches each of these
    assert not passed
    assert report.failures() == ["relabeling witnesses"]


def test_order8_claim_fails_on_a_broken_output_table(suite):
    # one output table replaced by its transpose, which is no table of the
    # search: the witnesses are intact, but their images no longer cover the tables
    search = suite.order8_search
    cells = {Q.cells for Q in search.tables}
    tables = list(search.tables)
    k, Q = next((k, Q) for k, Q in enumerate(tables) if tuple(zip(*Q.cells)) not in cells)
    tables[k] = LoopTable(8, tuple(zip(*Q.cells)))
    broken = search._replace(tables=tables)
    assert not oracle._witnesses_cover(broken)
    (passed, _), report = _order8_claim(broken)
    assert not passed
    assert report.failures() == ["relabeling witnesses"]


def _recorded_order8_details():
    """The details line of sec5-order8-oracle in the recorded report."""
    lines = REFERENCE.read_text(encoding="utf-8").splitlines()
    [recorded] = [d for h, d in zip(lines, lines[1:]) if h.startswith("claim sec5-order8-oracle:")]
    return recorded


def test_order8_claim_classifies_only_the_found_tables(suite, monkeypatch):
    # classify sees the 275 tables found below the row-2 representatives,
    # not the 7,800 tables, and the claim's text is the recorded one
    sizes = []

    def counted(loops):
        sizes.append(len(loops))
        return classify(loops)

    monkeypatch.setattr(oracle, "classify", counted)
    (passed, details), report = _order8_claim(suite.order8_search)
    assert passed and report.failures() == []
    assert "  " + details == _recorded_order8_details()
    assert 0 < sum(sizes) <= 275


def test_order8_claim_checks_commutants_on_the_found_tables(suite, monkeypatch):
    # the commutant check runs on the 275 found tables, not on the 7,800;
    # the witness cover carries its answer to every table
    calls = []

    def counted(Q):
        calls.append(Q)
        return commutant(Q)

    monkeypatch.setattr(oracle, "commutant", counted)
    (passed, details), report = _order8_claim(suite.order8_search)
    assert passed and report.failures() == []
    assert "  " + details == _recorded_order8_details()
    assert 0 < len(calls) <= 275


def test_order8_claim_fails_on_a_non_subloop_commutant(suite, monkeypatch):
    # one found table whose commutant is taken not to be a subloop fails the claim
    victim = suite.order8_search.classes[1].found[0]
    real = oracle.is_subloop
    monkeypatch.setattr(oracle, "is_subloop", lambda Q, S: Q.cells != victim and real(Q, S))
    (passed, _), report = _order8_claim(suite.order8_search)
    assert not passed
    assert report.failures() == ["commutants"]
