import math

import pytest

from bolkit import errors, oracle
from bolkit.extensions import automorphism_group
from bolkit.iso import classify
from bolkit.loop_core import MAX_ORDER
from bolkit.oracle import enumerate_all_loops, search_left_bol
from bolkit.structure import check_identity


def test_enumerate_all_loops_counts():
    # identity-normalized loops = reduced Latin squares
    assert len(enumerate_all_loops(1)) == 1
    assert len(enumerate_all_loops(2)) == 1
    assert len(enumerate_all_loops(3)) == 1
    assert len(enumerate_all_loops(4)) == 4
    assert len(enumerate_all_loops(5)) == 56


def test_search_agrees_with_filtered_enumeration():
    # the propagating search must find exactly the left Bol tables that a
    # plain enumerate-and-filter pass finds
    for n in range(1, 6):
        brute = {Q for Q in enumerate_all_loops(n) if check_identity(Q, "left_bol")}
        fast = set(search_left_bol(n))
        assert fast == brute


def test_search_order6_all_groups():
    tables = search_left_bol(6)
    assert len(tables) == 80
    classes = classify(tables)
    assert len(classes) == 2
    assert all(
        check_identity(tables[c.representative], "associative") for c in classes
    )


def test_search_budget(monkeypatch):
    monkeypatch.setattr(oracle, "SEARCH_BUDGET", 5)
    with pytest.raises(errors.SearchBudgetExceeded):
        search_left_bol(6)


def test_search_budget_is_exact(monkeypatch):
    # the budget counts candidate rows that reach propagation; at order 7
    # the cycle test passes only the 120 rows of L_2 that complete to Z7
    for n, k in ((6, 117), (7, 120)):
        full = search_left_bol(n)
        monkeypatch.setattr(oracle, "SEARCH_BUDGET", k)
        assert search_left_bol(n) == full
        monkeypatch.setattr(oracle, "SEARCH_BUDGET", k - 1)
        with pytest.raises(errors.SearchBudgetExceeded):
            search_left_bol(n)
        monkeypatch.undo()


@pytest.mark.parametrize("search", [search_left_bol, enumerate_all_loops])
@pytest.mark.parametrize(
    "n, error", [(0, errors.BadParams), (-3, errors.BadParams), (MAX_ORDER + 1, errors.TooLarge)]
)
def test_searches_reject_orders_out_of_range(search, n, error):
    with pytest.raises(error):
        search(n)


def test_propagation_alone_completes_exactly_the_left_bol_loops(monkeypatch):
    # offered only a loop's own rows, with no forward check, the search
    # must complete the loop iff it is left Bol, and nothing that is not
    own: list[tuple[int, ...]] = []

    def own_row(rows, r, col_used):
        row = own[r]
        if not any((col_used[z] >> v) & 1 for z, v in enumerate(row)):
            yield row

    monkeypatch.setattr(oracle, "_row_candidates", own_row)
    bol = 0
    for n in range(1, 7):
        for Q in enumerate_all_loops(n):
            own[:] = [tuple(v - 1 for v in row) for row in Q.cells]
            found = search_left_bol(n)
            assert all(check_identity(T, "left_bol") for T in found)
            is_bol = check_identity(Q, "left_bol")
            assert (found == [Q]) == is_bol
            bol += is_bol
    assert bol == 93


def test_search_order7_cyclic_only():
    tables = search_left_bol(7)
    # only Z7: 6!/|Aut(Z7)| = 720/6 labelings
    assert len(tables) == 120
    assert len(classify(tables)) == 1


def test_search_agrees_with_filtered_enumeration_order6():
    brute = {Q for Q in enumerate_all_loops(6) if check_identity(Q, "left_bol")}
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
    assert sum(check_identity(cls[0], "associative") for cls in order8_classes) == 5
