"""The commutant property battery against a product-by-product oracle.

``reference_battery`` is the battery written with single ``mul`` calls,
one product at a time, as the claim first stated it.  The suite's
battery compares whole rows and columns; both must give the same answer
(or raise the same error) on every table below, Bol or not.

Of the arms (x^3 a)b and (x^3 b)a, either one alone gives the same
answer: a and b commute, so (x^3 b)a = x^3(ab) for the pair (a, b) is
(x^3 a)b = x^3(ab) for the pair (b, a), and every pair is checked.

The q9 claims run the predicates on the 19 class representatives only
and check each member's witness map; the tests at the end break a table
or a map and require the claim to fail.
"""

from dataclasses import replace

import pytest

from bolkit import catalog, structure, verify
from bolkit.extensions import Cocycle, TauMap, build_extension, cyclic_group
from bolkit.gf2 import enumerate_q9
from bolkit.loop_core import LoopTable, compose, identity_perm, mul, power
from bolkit.oracle import enumerate_all_loops, search_left_bol
from bolkit.structure import (
    _opposite,
    _predicates,
    commutant,
    commutant_prime_part,
    is_subloop,
    nuclei,
)
from bolkit.verify import VerificationSuite


def reference_battery(Q: LoopTable) -> bool:
    com = commutant(Q)
    nuc = nuclei(Q)
    lnuc, rnuc = set(nuc.left), set(nuc.right)
    pw = {a: [power(Q, a, m) for m in range(9)] for a in com}
    for a in com:
        for b in com:
            for k in range(5):
                for l in range(5):
                    left = mul(Q, pw[a][k], pw[b][l])
                    for m in range(5):
                        for nn in range(5):
                            rhs = mul(Q, pw[a][k + m], pw[b][l + nn])
                            if mul(Q, left, mul(Q, pw[a][m], pw[b][nn])) != rhs:
                                return False
    for c in com:
        if (mul(Q, c, c) in lnuc) != (c in rnuc):
            return False
    for m in (1, 2, 3):
        if not is_subloop(Q, commutant_prime_part(Q, 2 * m)):
            return False
    for a in com:
        a3 = pw[a][3]
        for b in com:
            a3b = mul(Q, a3, b)
            ab = mul(Q, a, b)
            for x in Q.elements():
                xb = mul(Q, x, b)
                xa3 = mul(Q, x, a3)
                if not (
                    mul(Q, xb, a3) == mul(Q, xa3, b) == mul(Q, x, a3b)
                ):
                    return False
                x3 = power(Q, x, 3)
                if not (
                    mul(Q, mul(Q, x3, a), b)
                    == mul(Q, mul(Q, x3, b), a)
                    == mul(Q, x3, ab)
                ):
                    return False
    return True


def suite_battery(Q: LoopTable) -> bool:
    com, nuc, _ = _predicates(Q)
    return VerificationSuite._commutant_property_battery(Q, com, nuc)


def outcome(battery, Q):
    try:
        return battery(Q)
    except Exception as exc:
        return type(exc)


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
    assert reference_battery(tables[-1]) is False
    seen = []
    for i, Q in enumerate(tables):
        expected = outcome(reference_battery, Q)
        assert outcome(suite_battery, Q) == expected, (i, Q.name)
        seen.append(expected)
    # both answers occur, so neither a constant True nor a constant False passes
    assert True in seen and False in seen



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


def test_q9_claim_counts_a_table_that_is_not_left_bol(q9_all):
    # the opposite of a q9 loop is right Bol, not left Bol; it is alone in
    # its class, so it is checked as a representative
    bad = LoopTable(16, _opposite(q9_all[5].cells))
    assert not _predicates(bad).flags["left_bol"]
    fresh = VerificationSuite()
    fresh.q9_all = q9_all[:5] + [bad] + q9_all[6:]
    assert fresh.claim_sec6_q9_family() == (False, Q9_FAILS)


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

    def counted(name):
        original = getattr(verify, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name))
    fresh = VerificationSuite()
    fresh.q9_all = q9_all
    assert fresh.claim_sec6_q9_family()[0]
    assert calls["_predicates"] <= 19
    assert fresh.claim_sec6_19_noniso()[0]
    assert calls["classify"] == 1
