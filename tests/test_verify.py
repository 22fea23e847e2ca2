"""The commutant property battery against a product-by-product oracle.

``refcheck.battery`` is the battery written one product at a time, as
the claim first stated it.  The suite's battery compares whole rows and
columns; both must give the same answer on every table below, Bol or
not, and where the suite finds an element of the commutant without an
order, the oracle must answer None.  The battery
checks the power law pair by pair, each equation at the residues of its
exponents modulo the periods of the two elements; further tests give it
tables whose verdict only the power law decides, and give the pair check
pairs that fail only outside a box too small or taken from the wrong
element.

Of the arms (x^3 a)b and (x^3 b)a, either one alone gives the same
answer: a and b commute, so (x^3 b)a = x^3(ab) for the pair (a, b) is
(x^3 a)b = x^3(ab) for the pair (b, a), and every pair is checked.

The q9 claims run the predicates on the 19 class representatives only
and check each member's witness map; the tests at the end break a table
or a map and require the claim to fail.  The non-isomorphism claims read
``q9_classes`` and ``twenty_one_classes``; the last tests merge classes
there and require those claims to fail.
"""

import random
from dataclasses import replace

import pytest

import refcheck
from bolkit import catalog, gf2, structure, verify
from bolkit.errors import NotPeriodicThroughIdentity
from bolkit.extensions import Cocycle, TauMap, build_extension, cyclic_group, group_conditions
from bolkit.gf2 import enumerate_q9
from bolkit.iso import IsoClass
from bolkit.loop_core import LoopTable, compose, identity_perm, power
from bolkit.oracle import enumerate_all_loops, search_left_bol
from bolkit.structure import _opposite, _predicates, commutant
from bolkit.verify import VerificationSuite


def suite_battery(Q: LoopTable) -> bool | None:
    """The suite's verdict, None where an element of C has no order."""
    com, nuc, _ = _predicates(Q)
    try:
        return VerificationSuite._commutant_property_battery(Q, com, nuc)
    except NotPeriodicThroughIdentity:
        return None


def cube_counterexample() -> LoopTable:
    """A central extension of Z6 by Z2 that fails only the x^3 identity.

    The power law, the square criterion and the prime parts hold, and
    (x^3 a)b = (x^3 b)a, but both differ from x^3(ab) for some x and
    commutant elements a, b.  None of the other tables here, and no loop
    of order 6, gets as far as the cube identities and fails them.
    """
    K, E = cyclic_group(2), cyclic_group(6)
    tau = TauMap(E, K, (identity_perm(2),) * 6)
    f = Cocycle(
        E,
        K,
        (
            (1, 1, 1, 1, 1, 1),
            (1, 2, 1, 1, 2, 1),
            (1, 1, 1, 2, 2, 2),
            (1, 1, 2, 2, 2, 1),
            (1, 2, 2, 2, 2, 1),
            (1, 2, 2, 2, 1, 2),
        ),
    )
    return build_extension(tau, f)


def battery_tables():
    tables = [Q for n in range(1, 6) for Q in enumerate_all_loops(n)]
    tables += search_left_bol(6)
    tables += catalog.property_catalog()
    tables += enumerate_q9()[::8]
    tables.append(cube_counterexample())
    return tables


def test_battery_matches_the_product_by_product_oracle():
    tables = battery_tables()
    assert len(tables) == 239
    assert refcheck.battery(tables[-1].cells) is False
    seen = []
    for i, Q in enumerate(tables):
        expected = refcheck.battery(Q.cells)
        assert suite_battery(Q) is expected, (i, Q.name)
        seen.append(expected)
    # both answers occur, so neither a constant True nor a constant False passes
    assert True in seen and False in seen


def commutative_extensions(count: int) -> list[LoopTable]:
    """Seeded Q(Z2, E, 1, f), E in Z3, Z4, Z5, f symmetric and not a cocycle.

    Such a loop is commutative, so every element is in the commutant, and
    not a group, so the power law can fail, among others through elements
    of period 3 and 4.
    """
    rng = random.Random(2006)
    K = cyclic_group(2)
    tables = []
    while len(tables) < count:
        E = cyclic_group(rng.choice((3, 4, 5)))
        values = [[1] * E.order for _ in range(E.order)]
        for a in range(1, E.order):
            for b in range(a, E.order):
                values[a][b] = values[b][a] = rng.randrange(1, 3)
        tau = TauMap(E, K, (identity_perm(2),) * E.order)
        f = Cocycle(E, K, tuple(map(tuple, values)))
        if not group_conditions(tau, f):
            tables.append(build_extension(tau, f))
    return tables


def exponent_four_counterexample() -> LoopTable:
    """Q(Z2, Z10, 1, f) whose power law fails only at an exponent 4.

    In additive labels, f(x, y) is the involution of Z2 exactly when
    x + y = 8 with 2 <= x <= 6, or when y = 9 with 2 <= x <= 8.  The first
    set sends a^i a^(8-i) to the involution times a^8 for a = (0, 1), of
    period 10, so a^4 a^4 != a^8 while every equation with all exponents
    below 4 holds.  The second set breaks f(e, x) = f(x, e) for every e
    outside {0, 1} (at x = 9, or at x = 2 for e = 9), so the commutant is
    Z2 x {0, 1}.
    """
    K, E = cyclic_group(2), cyclic_group(10)
    values = [[1] * 10 for _ in range(10)]
    for x in range(2, 7):
        values[x][8 - x] = 2
    for x in range(2, 9):
        values[x][9] = 2
    return build_extension(
        TauMap(E, K, (identity_perm(2),) * 10), Cocycle(E, K, tuple(map(tuple, values)))
    )


def test_battery_fails_the_power_law_where_the_oracle_does():
    # none of battery_tables() fails the power law, so there a battery
    # without it would pass; here the verdict often hangs on it alone
    tables = commutative_extensions(40) + [exponent_four_counterexample()]
    # per table whose False only the power law gives: the least
    # max(p_a, p_b) over the pairs (a, b) that fail it
    decided = []
    for i, Q in enumerate(tables):
        expected = refcheck.battery(Q.cells)
        assert suite_battery(Q) is expected, (i, Q.name)
        com = refcheck.commutant(Q.cells)
        failing = [(a, b) for a in com for b in com if not refcheck.power_law(Q.cells, a, b)]
        if failing and refcheck.other_arms(Q.cells) is not False:
            period = {a: len(refcheck.powers(Q.cells, a)) for a in com}
            decided.append(min(max(period[a], period[b]) for a, b in failing))
    # the rest of the battery has no order or passes on these, so a battery
    # without the power law answers otherwise; some fail through a pair
    # whose periods are both below 5, where the reduced box applies
    assert any(p < 5 for p in decided)
    # the last table fails only at an exponent 4, on a commutant of 4
    # elements, one of them of period 10
    Q = tables[-1]
    com = refcheck.commutant(Q.cells)
    assert len(com) == 4 and max(len(refcheck.powers(Q.cells, a)) for a in com) == 10
    assert not all(refcheck.power_law(Q.cells, a, b) for a in com for b in com)
    assert all(refcheck.power_law(Q.cells, a, b, box=(4, 4)) for a in com for b in com)


def test_power_law_pair_uses_the_box_of_each_element():
    # the commutant (1, 2, 3, 4) has periods 1, 2, 10, 10, and the power
    # law fails only at an exponent 4 of an element of period 10
    Q = exponent_four_counterexample()
    pw = {a: [power(Q, a, m) for m in range(9)] for a in commutant(Q)}
    assert [len(refcheck.powers(Q.cells, a)) for a in pw] == [1, 2, 10, 10]
    for a, b in ((2, 3), (1, 3)):
        assert not verify._power_law_holds(Q.cells, pw[a], pw[b]), (a, b)
        # with a's box for b as well the pair would pass; the battery
        # still fails Q then, through the pair (b, a)
        ka = len(refcheck.powers(Q.cells, a))
        assert refcheck.power_law(Q.cells, a, b, box=(ka, ka)), (a, b)


def test_power_law_pair_checks_exponents_up_to_four():
    Q = exponent_four_counterexample()
    p3 = [power(Q, 3, m) for m in range(9)]
    assert not verify._power_law_holds(Q.cells, p3, p3)
    # boxes of k - 1 = 4 would pass the pair
    assert refcheck.power_law(Q.cells, 3, 3, box=(4, 4))


def test_commutant_claim_reads_the_commutant_it_is_handed(monkeypatch):
    # the prime parts come from the commutant _predicates found, so the
    # claim never recomputes it
    calls = []
    original = structure.commutant

    def counted(Q):
        calls.append(Q)
        return original(Q)

    monkeypatch.setattr(structure, "commutant", counted)
    assert VerificationSuite().claim_sec2_commutant_props() == (
        True,
        "31 catalog loops; failures=none",
    )
    assert calls == []


Q9_FAILS = "512 loops, 1 violations of Bol/|C|=6/non-subloop/C<=RNuc"


@pytest.fixture(scope="module")
def q9_all():
    return enumerate_q9()


def q9_claim_with_a_table_that_is_not_left_bol(q9_all, index):
    """The claim's result with table ``index`` replaced by its opposite,
    which is right Bol, not left Bol."""
    bad = LoopTable(16, _opposite(q9_all[index].cells))
    assert not _predicates(bad).flags["left_bol"]
    fresh = VerificationSuite()
    fresh.q9_all = q9_all[:index] + [bad] + q9_all[index + 1 :]
    return fresh.claim_sec6_q9_family()


def test_q9_claim_counts_a_table_that_is_not_left_bol(q9_all):
    # 5 is the least member of its coset {5, 22, 32, 51, 133, 150, 160, 179}:
    # it is classified in their place, and their maps onto it fail too
    assert q9_claim_with_a_table_that_is_not_left_bol(q9_all, 5) == (
        False,
        "512 loops, 8 violations of Bol/|C|=6/non-subloop/C<=RNuc",
    )


def test_q9_claim_counts_a_bad_coset_mate_once(q9_all):
    # 32 is not a coset minimum: only its own map, onto table 5, fails
    assert q9_claim_with_a_table_that_is_not_left_bol(q9_all, 32) == (False, Q9_FAILS)


def test_q9_claim_checks_every_witness_map(q9_all, monkeypatch):
    fresh = VerificationSuite()
    fresh.q9_all = q9_all
    classes = list(fresh.q9_classes)
    k = next(k for k, c in enumerate(classes) if len(c.members) > 1)
    swap = (1, 3, 2, *range(4, 17))
    maps = list(classes[k].maps)
    maps[1] = compose(maps[1], swap)
    classes[k] = replace(classes[k], maps=tuple(maps))
    fresh.q9_classes = classes
    assert fresh.claim_sec6_q9_family() == (False, Q9_FAILS)
    # the representatives all pass: the failure is the map's
    monkeypatch.setattr(verify, "is_isomorphism", lambda Q1, Q2, p: True)
    assert fresh.claim_sec6_q9_family()[0]


def test_q9_claims_classify_once_and_check_representatives_only(q9_all, monkeypatch):
    calls = {"_predicates": 0, "classify": 0}
    sizes = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            if name == "classify":
                sizes.append(len(args[0]))
            return original(*args)

        return wrapper

    monkeypatch.setattr(verify, "_predicates", counted(verify, "_predicates"))
    # classify_q9 calls classify on the 64 coset minima
    monkeypatch.setattr(gf2, "classify", counted(gf2, "classify"))
    fresh = VerificationSuite()
    fresh.q9_all = q9_all
    assert fresh.claim_sec6_q9_family()[0]
    assert calls["_predicates"] <= 19
    assert fresh.claim_sec6_19_noniso()[0]
    assert calls["classify"] == 1
    assert sizes == [64]


def merged(a: IsoClass, b: IsoClass) -> IsoClass:
    """One class holding the members of a and b; its maps are not read."""
    return IsoClass(a.representative, tuple(sorted(a.members + b.members)))


def test_noniso_claim_fails_when_two_listed_tuples_share_a_class(suite):
    classes = suite.q9_classes
    fresh = VerificationSuite()
    fresh.q9_classes = [merged(classes[0], classes[1]), *classes[2:]]
    assert fresh.claim_sec6_19_noniso() == (
        False,
        "pairwise non-isomorphic=False, classes=18, one listed tuple per class=False",
    )


def test_21_claims_fail_when_the_exceptional_loop_joins_a_q9_class(suite):
    # the 21 are in catalog order, each its own class: the order-12 loop,
    # the 19 q9 representatives, then the exceptional loop
    classes = suite.twenty_one_classes
    assert [c.members for c in classes] == [(i,) for i in range(21)]
    fresh = VerificationSuite()
    fresh.property_catalog = suite.property_catalog
    fresh.twenty_one_classes = [classes[0], merged(classes[1], classes[20]), *classes[2:20]]
    assert not fresh.claim_sec6_exceptional()[0]
    assert fresh.claim_sec5_21_total() == (
        False,
        "order-16 classes=19, with order-12 loop total=20",
    )
