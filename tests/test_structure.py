import functools
import itertools
import math
import random
import re
from typing import Callable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import refcheck
from bolkit import errors, structure
from bolkit.catalog import (
    FIXTURE_ORDER8,
    FIXTURE_ORDER16,
    dihedral_group,
    direct_product,
    load_fixture,
    property_catalog,
    q9_representatives,
)
from bolkit.extensions import (
    bol_conditions,
    build_extension,
    build_named_example,
    commutant_members,
    cyclic_group,
    elem_abelian_2,
    group_conditions,
    named_extension,
    pair_index,
    right_nucleus_members,
)
from bolkit.gf2 import build_exceptional
from bolkit.iso import is_isomorphism
from bolkit.loop_core import LoopTable, compose, inverse, mul, parse_table
from bolkit.oracle import enumerate_all_loops
from bolkit.structure import (
    IDENTITY_NAMES,
    Nuclei,
    _opposite,
    _predicates,
    _subloop_where,
    check_identity,
    commutant,
    commutant_prime_part,
    generated_subloop,
    involution_count,
    is_subloop,
    nuclei,
    right_regular_is_homomorphism,
    structure_report,
    subloop_table,
)


@pytest.fixture(scope="module")
def T8():
    return load_fixture(FIXTURE_ORDER8)


@pytest.fixture(scope="module")
def X16():
    return load_fixture(FIXTURE_ORDER16)


@pytest.fixture(scope="module")
def catalog_loops():
    return property_catalog()


def test_identities_on_groups():
    z6 = cyclic_group(6)
    assert all(check_identity(z6, name) for name in IDENTITY_NAMES)
    from bolkit.catalog import dihedral_group

    s3 = dihedral_group(3)
    assert check_identity(s3, "associative")
    assert check_identity(s3, "left_bol") and check_identity(s3, "right_bol")
    assert check_identity(s3, "moufang")
    assert not check_identity(s3, "commutative")


def test_identities_on_fixtures(T8, X16):
    assert check_identity(T8, "left_bol") and not check_identity(T8, "associative")
    assert check_identity(X16, "left_bol") and not check_identity(X16, "commutative")


# a loop of order 5 whose powers of 2 do not form a group
NPA_TEXT = "5\n1 2 3 4 5\n2 1 4 5 3\n3 4 5 1 2\n4 5 2 3 1\n5 3 1 2 4"


def test_left_power_alternative_fails_on_npa_loop():
    npa = parse_table(NPA_TEXT)
    assert not check_identity(npa, "left_power_alternative")


def test_check_identity_is_one_predicate_pass(monkeypatch, catalog_loops):
    # every flag has one code path: check_identity makes exactly one
    # _predicates call and returns its flag
    loops = [catalog_loops[0], catalog_loops[20], catalog_loops[21]]
    loops += [dihedral_group(3), parse_table(NPA_TEXT)]
    passes = []

    def counted(Q):
        passes.append(Q)
        return _predicates(Q)

    monkeypatch.setattr(structure, "_predicates", counted)
    for Q in loops:
        flags = _predicates(Q).flags
        for name in IDENTITY_NAMES:
            passes.clear()
            assert check_identity(Q, name) == flags[name]
            assert passes == [Q], name
        with pytest.raises(errors.BadParams):
            check_identity(Q, "bol")


def test_commutant(T8, X16):
    z6 = cyclic_group(6)
    assert commutant(z6) == tuple(z6.elements())
    assert commutant(T8) == (1, 2, 3, 4)
    assert commutant(X16) == (1, 2, 5, 7)


def test_nuclei(T8, X16):
    z6 = cyclic_group(6)
    nz = nuclei(z6)
    full = tuple(z6.elements())
    assert nz.left == nz.middle == nz.right == nz.nucleus == nz.center == full

    from bolkit.catalog import dihedral_group

    s3 = dihedral_group(3)
    assert nuclei(s3).center == (1,)

    n8 = nuclei(T8)
    assert n8.left == (1, 2)
    assert n8.right == (1, 2, 3, 4)
    assert n8.center == (1, 2)

    n16 = nuclei(X16)
    assert n16.left == (1,)
    assert n16.right == tuple(range(1, 9))
    assert n16.center == (1,)


def test_commutant_prime_part(T8):
    # elements 2,3,4 of the fixture are involutions
    assert commutant_prime_part(T8, 2) == (1,)
    # the order-12 loop's commutant consists of the identity and two
    # involutions, so its coprime-to-2 part is trivial while the
    # coprime-to-3 part is the whole (non-subloop) commutant
    q12 = build_named_example("order12")
    assert commutant_prime_part(q12, 2) == (1,)
    assert commutant_prime_part(q12, 3) == commutant(q12)
    assert len(commutant_prime_part(q12, 3)) == 3
    with pytest.raises(errors.BadParams):
        commutant_prime_part(T8, 1)


def test_generated_subloop(T8, X16):
    assert generated_subloop(T8, (1,)) == (1,)
    assert generated_subloop(T8, (4, 5)) == tuple(range(1, 9))
    assert generated_subloop(X16, commutant(X16)) == tuple(range(1, 9))


def test_subloop_functions_reject_elements_outside_the_loop():
    Z4 = cyclic_group(4)
    # equal to an element (True == 1, 2.0 == 2) is not enough: it must be an int
    for S in ((2, 0), (2, -1), (2, 5), (True,), (1.0,), (2, 2.0)):
        for fn in (generated_subloop, is_subloop, subloop_table):
            with pytest.raises(errors.BadParams, match=f"element {re.escape(repr(S[-1]))} "):
                fn(Z4, S)


@functools.cache
def _catalog() -> tuple[LoopTable, ...]:
    return tuple(property_catalog())


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    index=st.integers(0, len(_catalog()) - 1),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 2**16), max_size=3),
    with_one=st.booleans(),
    repeat=st.booleans(),
)
@example(index=0, seed=0, picks=[], with_one=False, repeat=False)  # empty set
@example(index=20, seed=1, picks=[4, 4], with_one=True, repeat=True)  # exceptional16
def test_generated_subloop_matches_brute_force(index, seed, picks, with_one, repeat):
    Q = LoopTable.from_cells(refcheck.shuffled(_catalog()[index].cells, random.Random(seed)))
    S = [1 + v % Q.order for v in picks]
    if with_one:
        S.insert(len(S) // 2, 1)
    if repeat and S:
        S.append(S[0])
    S = tuple(S)
    assert generated_subloop(Q, S) == refcheck.closure(Q.cells, S)


def test_generated_subloop_every_pair_matches_brute_force():
    # every two-element subset of each catalog loop of order <= 16
    for index, Q in enumerate(_catalog()):
        if Q.order > 16:
            continue
        R = LoopTable.from_cells(refcheck.shuffled(Q.cells, random.Random(index)))
        for S in itertools.combinations(R.elements(), 2):
            assert generated_subloop(R, S) == refcheck.closure(R.cells, S), (Q.name, S)


def _assert_kernel_matches_oracle(Q: LoopTable, right_regular: bool = True) -> None:
    expected = tuple(refcheck.holds(Q.cells, name) for name in IDENTITY_NAMES)
    assert tuple(check_identity(Q, name) for name in IDENTITY_NAMES) == expected, Q.cells
    nuc = Nuclei(*refcheck.nuclei(Q.cells))
    assert nuclei(Q) == nuc, Q.cells
    com = refcheck.commutant(Q.cells)
    assert commutant(Q) == com, Q.cells
    assert _predicates(Q) == (com, nuc, dict(zip(IDENTITY_NAMES, expected))), Q.cells
    if not right_regular:
        return
    for s in Q.elements():
        H = refcheck.closure(Q.cells, (s,))
        hom = refcheck.right_regular_is_homomorphism(Q.cells, H)
        assert right_regular_is_homomorphism(Q, H) == hom, (Q.cells, H)


# a nonassociative loop of order 6 whose middle nucleus {1,3,5} has index 2
# and whose left and right nuclei are trivial
MIDDLE3_TEXT = "6\n1 2 3 4 5 6\n2 1 4 5 6 3\n3 4 5 6 1 2\n4 5 6 3 2 1\n5 6 1 2 3 4\n6 3 2 1 4 5"


def _chein_loop(G: LoopTable) -> LoopTable:
    """M(G, 2) on G and Gu, u = element n + 1: gh, g(hu) = (hg)u,
    (gu)h = (gh^-1)u, (gu)(hu) = h^-1 g.  Moufang; a group iff G is abelian."""
    n = G.order
    cells = [[0] * 2 * n for _ in range(2 * n)]
    for g in G.elements():
        for h in G.elements():
            hi = inverse(G, h)
            cells[g - 1][h - 1] = mul(G, g, h)
            cells[g - 1][n + h - 1] = n + mul(G, h, g)
            cells[n + g - 1][h - 1] = n + mul(G, g, hi)
            cells[n + g - 1][n + h - 1] = mul(G, hi, g)
    return LoopTable.from_cells(cells)


def _steiner_loop_ag23() -> LoopTable:
    """The Steiner loop of the affine plane AG(2,3): element 2 + 3a + b is
    the point (a, b) of Z3^2, x*x = 1 and x*y = -(x+y), the third point of
    the line through x and y."""
    points = [(a, b) for a in range(3) for b in range(3)]
    cells = [list(range(1, 11))]
    for x in points:
        row = [2 + points.index(x)]
        for y in points:
            z = ((-x[0] - y[0]) % 3, (-x[1] - y[1]) % 3)
            row.append(1 if x == y else 2 + points.index(z))
        cells.append(row)
    return LoopTable.from_cells(cells)


# nonassociative loops of order 6 that are not left Bol, in which
# L_x L_y L_x = L_{x(yx)} holds for every y exactly when x is in {1,2,3,6}
# (resp. {1,2,3,5}): the Bol closure passes elements before one fails, and
# since those elements generate the loop under *, a closure under x*w in
# place of x*(w*x) would call the loop left Bol
PARTIAL_BOL_TEXTS = (
    "6\n1 2 3 4 5 6\n2 1 4 3 6 5\n3 5 1 6 2 4\n4 3 6 5 1 2\n5 6 2 1 4 3\n6 4 5 2 3 1",
    "6\n1 2 3 4 5 6\n2 1 4 3 6 5\n3 6 1 5 4 2\n4 3 5 6 2 1\n5 4 6 2 1 3\n6 5 2 1 3 4",
)


def test_kernel_matches_oracle_on_all_small_loops():
    answers = set()
    tables = [*enumerate_all_loops(1), *enumerate_all_loops(4), *enumerate_all_loops(5)]
    chein, steiner = _chein_loop(dihedral_group(3)), _steiner_loop_ag23()
    partial = [parse_table(text) for text in PARTIAL_BOL_TEXTS]
    # Z2 x a partial one: N_lambda & N_mu = {1, 2}, the center, seeds the closure of the flags
    partial.append(direct_product(cyclic_group(2), partial[0]))
    for Q in [*tables, parse_table(NPA_TEXT), parse_table(MIDDLE3_TEXT), chein, steiner, *partial]:
        _assert_kernel_matches_oracle(Q)
        answers.update((name, check_identity(Q, name)) for name in IDENTITY_NAMES)
    # every identity both holds and fails somewhere, so no comparison is vacuous
    assert answers == {(name, b) for name in IDENTITY_NAMES for b in (True, False)}
    assert nuclei(parse_table(MIDDLE3_TEXT)).middle == (1, 3, 5)
    # Moufang but not a group, so Moufang is not read off the middle nucleus
    flags = [check_identity(chein, name) for name in IDENTITY_NAMES]
    assert flags == [True, True, True, False, False, True] and commutant(chein) == (1,)
    # commutative with center {1}, left power alternative but not Bol
    flags = [check_identity(steiner, name) for name in IDENTITY_NAMES]
    assert flags == [False, False, False, False, True, True]
    assert nuclei(steiner).center == (1,)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(index=st.integers(0, len(_catalog()) - 1), seed=st.integers(0, 2**32 - 1))
@example(index=0, seed=0)  # order12: left and right nuclei differ
def test_kernel_matches_oracle_on_relabeled_catalog(index, seed):
    rows = refcheck.shuffled(_catalog()[index].cells, random.Random(seed))
    _assert_kernel_matches_oracle(LoopTable.from_cells(rows))


WIDE_TABLES: dict[str, Callable[[], LoopTable]] = {
    "Z32": lambda: cyclic_group(32),
    "Z2^5": lambda: elem_abelian_2(5),
    "Z8xZ4": lambda: direct_product(cyclic_group(8), cyclic_group(4)),
    "Z64": lambda: cyclic_group(64),
    # nonabelian groups: associative but not commutative
    "D3": lambda: dihedral_group(3),
    "D8": lambda: dihedral_group(8),
    "Z3xD4": lambda: direct_product(cyclic_group(3), dihedral_group(4)),
    **{
        f"order4n:{n}": functools.partial(build_named_example, "order4n", n=n)
        for n in range(8, 17)
    },
    # nuclei proper and nontrivial: Z_k times a nucleus of the factor
    "Z2xq9_1": lambda: direct_product(cyclic_group(2), q9_representatives()[1]),
    "Z3xq9_0": lambda: direct_product(cyclic_group(3), q9_representatives()[0]),
    "Z4xq9_9": lambda: direct_product(cyclic_group(4), q9_representatives()[9]),
    "Z2xexceptional": lambda: direct_product(cyclic_group(2), build_exceptional()),
    "Z3xexceptional": lambda: direct_product(cyclic_group(3), build_exceptional()),
    # right Bol but not left Bol: the opposites of two left Bol loops
    "order4n:8^op": lambda: LoopTable.from_cells(
        refcheck.opposite(build_named_example("order4n", n=8).cells)
    ),
    "Z2xq9_1^op": lambda: LoopTable.from_cells(
        refcheck.opposite(direct_product(cyclic_group(2), q9_representatives()[1]).cells)
    ),
}


@pytest.mark.parametrize("name", WIDE_TABLES)
def test_kernel_matches_oracle_on_wide_tables(name):
    Q = LoopTable.from_cells(refcheck.shuffled(WIDE_TABLES[name]().cells, random.Random(1)))
    _assert_kernel_matches_oracle(Q, right_regular=False)


def _relabeled(P: LoopTable, seed: int) -> tuple[LoopTable, tuple[int, ...]]:
    """P relabeled by ``refcheck.fixing_one``, and the map p: P -> the copy."""
    p = refcheck.fixing_one(P.order, random.Random(seed))
    return LoopTable.from_cells(refcheck.relabel(P.cells, p)), p


def _image(p, S) -> tuple[int, ...]:
    return tuple(sorted(p[s - 1] for s in S))


# Z_k x B across the 255/256 split of the structure kernel: rows of up to
# 255 elements are bytes, longer ones tuples composed by itemgetter
WIDE_PRODUCTS = {
    "Z15xq9_1": (15, lambda: q9_representatives()[1]),  # 240
    "Z17xq9_1": (17, lambda: q9_representatives()[1]),  # 272
    "Z31xorder8": (31, lambda: load_fixture(FIXTURE_ORDER8)),  # 248
    "Z32xorder8": (32, lambda: load_fixture(FIXTURE_ORDER8)),  # 256
}


@pytest.mark.parametrize("name", WIDE_PRODUCTS)
def test_kernel_on_products_across_the_byte_limit(name):
    # Z_k is an abelian group, so the identities hold in Z_k x B exactly
    # when they hold in B, and each nucleus and the commutant of Z_k x B is
    # Z_k times that of B: the expected values come from refcheck on B.
    # B is not associative, so a composition taken in the wrong order
    # breaks some nucleus
    k, make = WIDE_PRODUCTS[name]
    B = make()
    P = direct_product(cyclic_group(k), B)
    Q, p = _relabeled(P, k)

    def times_zk(S):  # Z_k x S in the pair encoding of direct_product, relabeled by p
        return _image(p, [u + k * (a - 1) for a in S for u in range(1, k + 1)])

    flags = {ident: refcheck.holds(B.cells, ident) for ident in IDENTITY_NAMES}
    assert not flags["associative"]
    nuc = Nuclei(*map(times_zk, refcheck.nuclei(B.cells)))
    assert _predicates(Q) == (times_zk(refcheck.commutant(B.cells)), nuc, flags)
    for S in (nuc.right, times_zk(B.elements()), _image(p, [1 + k * (a - 1) for a in B.elements()])):
        assert right_regular_is_homomorphism(Q, S) == refcheck.right_regular_is_homomorphism(Q.cells, S)
    assert is_isomorphism(P, Q, p)
    assert not is_isomorphism(P, Q, (1, p[2], p[1], *p[3:]))


def test_kernel_on_order4n_64_above_the_byte_limit():
    # order4n:64, of order 256, is left Bol but not right Bol.  left Bol,
    # associativity, the right nucleus and the commutant come from the
    # Section 4 condition equations, the rest from refcheck; a left Bol
    # loop is left power alternative (oracle module docstring) and a
    # Moufang loop is right Bol
    tau, f = named_extension("order4n", n=64)
    Q, p = _relabeled(build_extension(tau, f), 4)
    assert Q.order == 256
    left_bol = bol_conditions(tau, f)
    right_bol = refcheck.holds(Q.cells, "right_bol")
    flags = {
        "left_bol": left_bol,
        "right_bol": right_bol,
        "moufang": left_bol and right_bol,
        "associative": group_conditions(tau, f),
        "commutative": refcheck.holds(Q.cells, "commutative"),
        "left_power_alternative": left_bol,
    }
    assert flags == {**dict.fromkeys(IDENTITY_NAMES, False), "left_bol": True, "left_power_alternative": True}
    K = tau.K
    com = _image(p, [pair_index(K, u, a) for u, a in commutant_members(tau, f)])
    rnuc = _image(p, [pair_index(K, w, c) for w, c in right_nucleus_members(tau, f)])
    nuc = refcheck.nuclei(Q.cells)
    assert (nuc.right, refcheck.commutant(Q.cells)) == (rnuc, com)
    assert _predicates(Q) == (com, Nuclei(*nuc), flags)


def test_nucleus_closure_tests_only_outside_the_span():
    # a member found outside the span at least doubles it (N is a group here),
    # and a failure rules out its coset of the span, so on a group of order
    # 64 at most 6 members and about one element per coset of N are tested
    for G in (cyclic_group(64), elem_abelian_2(6)):
        Q = LoopTable.from_cells(refcheck.shuffled(G.cells, random.Random(3)))
        for S in ((2,), (2, 3), tuple(Q.elements())):
            N = generated_subloop(Q, S)
            tested = []

            def refute(a: int, w: int) -> int | None:
                tested.append(a + 1)
                return None if a + 1 in N else w

            assert _subloop_where(Q, refute) == N
            assert len(tested) == len(set(tested)) <= 6 + Q.order // len(N)


class _KernelSides:
    """Names the table each ``structure._kernel`` was built from, by the
    identity of its rows: "Q" for ``Q.cells``, "op" for Q's opposite.  A
    commutative Q and its opposite have equal rows, so values cannot tell
    them apart."""

    def __init__(self, monkeypatch):
        self.Q: LoopTable | None = None
        self.built: dict[int, tuple[list, str]] = {}  # keeps the rows alive, so ids stay unique
        kernel = structure._kernel

        def tagging(cells):
            rows, tabs = kernel(cells)
            op = refcheck.opposite(self.Q.cells)
            side = "Q" if cells is self.Q.cells else "op" if cells == op else "?"
            self.built[id(rows)] = (rows, side)
            return rows, tabs

        monkeypatch.setattr(structure, "_kernel", tagging)

    def __call__(self, rows) -> str:
        return self.built[id(rows)][1]


def test_structure_report_scans_only_left_and_right_bol(monkeypatch):
    # every other identity flag is derived: none on a group, and on a
    # nonassociative loop one left Bol closure of Q, seeded with
    # N_lambda & N_mu, and one of its opposite, seeded with the center.
    # N_lambda = N_mu in a left Bol loop, so there the left-nucleus test on
    # Q's own table runs only for N_lambda & N_mu, on elements of N_mu.
    # The loop of MIDDLE3_TEXT is neither left nor right Bol, and its
    # N_lambda & N_mu = {1} is smaller than N_mu = {1,3,5}
    side = _KernelSides(monkeypatch)
    scanned = []
    left_bol = structure._left_bol

    def counted(rows, tabs, seed):
        scanned.append((side(rows), seed))
        return left_bol(rows, tabs, seed)

    tested = []
    left_refuter = structure._left_refuter

    def recording(rows, tabs):
        refute = left_refuter(rows, tabs)

        def counted_refute(a, w):
            tested.append((side(rows), a + 1))
            return refute(a, w)

        return counted_refute

    monkeypatch.setattr(structure, "_left_bol", counted)
    monkeypatch.setattr(structure, "_left_refuter", recording)
    for Q in (cyclic_group(12), dihedral_group(4), elem_abelian_2(3)):
        side.Q = Q
        structure_report(Q)
    assert scanned == [] and tested == []
    left_only = [load_fixture(FIXTURE_ORDER8)]
    for P in (build_named_example("order4n", n=8), direct_product(cyclic_group(2), q9_representatives()[1])):
        left_only.append(LoopTable.from_cells(refcheck.shuffled(P.cells, random.Random(2))))
    chein, middle3 = _chein_loop(dihedral_group(3)), parse_table(MIDDLE3_TEXT)
    for Q in (*left_only, chein, middle3):
        scanned.clear()
        tested.clear()
        side.Q = Q
        report = structure_report(Q)
        nuc = refcheck.nuclei(Q.cells)
        lm = tuple(a for a in nuc.left if a in nuc.middle)
        assert scanned == [("Q", lm), ("op", nuc.center)]
        own = {a for scan, a in tested if scan == "Q"}
        if Q is not middle3:
            assert own <= set(nuc.middle), Q.cells
        # the right nucleus is scanned exactly when Q is not right Bol
        not_right_bol = Q is not chein
        assert ("right_bol: false" in report) == not_right_bol
        assert any(scan == "op" for scan, _ in tested) == not_right_bol
        assert all(scan in ("Q", "op") for scan, _ in tested)


@pytest.mark.parametrize("n", [16, 32])
def test_right_nucleus_scan_tries_the_last_witness_first(monkeypatch, n):
    # order4n:n (order 4n) is left Bol but not right Bol, so its report
    # scans the right nucleus, seeded with the center: two members at about
    # n row compositions each, and about one composition per refuted element
    # when the x that refuted the last one is tried first.  Measured: 2.2 to
    # 2.62 * order (3.3 to 3.75 * order from the seed {1}).  In index order,
    # without the witness, the unrelabeled tables take 699 and 2427 from {1}.
    # Each composition is one ``translate`` of a kernel row, counted here
    side = _KernelSides(monkeypatch)
    checks = 0
    left_refuter = structure._left_refuter

    class Counted(bytes):
        def translate(self, table):
            nonlocal checks
            checks += 1
            return bytes.translate(self, table)

    def counting(rows, tabs):
        if side(rows) == "Q":  # the test for N_lambda & N_mu, not the right nucleus
            return left_refuter(rows, tabs)
        assert side(rows) == "op"
        return left_refuter([Counted(row) for row in rows], tabs)

    monkeypatch.setattr(structure, "_left_refuter", counting)
    base = build_named_example("order4n", n=n)
    relabeled = [LoopTable.from_cells(refcheck.shuffled(base.cells, random.Random(seed))) for seed in range(3)]
    for Q in (base, *relabeled):
        checks = 0
        side.Q = Q
        assert "right_bol: false" in structure_report(Q)
        assert 2 * Q.order < checks <= 3 * Q.order, checks


@pytest.mark.parametrize(
    "name, make, most",
    [
        pytest.param(name, make, most, id=name)
        for name, make, most in (
            ("Z2xq9_0", lambda: direct_product(cyclic_group(2), q9_representatives()[0]), 7),
            ("Z4xexceptional", lambda: direct_product(cyclic_group(4), build_exceptional()), 9),
            ("order4n:16", lambda: build_named_example("order4n", n=16), 4),
        )
    ],
)
def test_bol_closure_seeded_with_lm_tests_few_elements(monkeypatch, name, make, most):
    # these left Bol loops are not right Bol; seeded with LM = N_lambda &
    # N_mu, the closure reaches all of Q after at most ``most`` membership
    # tests, and the first test on the opposite fails.  Measured over six
    # relabelings: 7, 7 to 9, and 3 tests; seeded with the center,
    # order4n:16 needed 7 to 9.  Seeded with {1} alone, Z2xq9_0 needs about
    # 21 tests: x*(w*x) = w for 7/8 of its pairs
    side = _KernelSides(monkeypatch)
    tested = []
    at = structure._left_bol_at

    def counted(rows, tabs, x):
        tested.append(side(rows))
        return at(rows, tabs, x)

    monkeypatch.setattr(structure, "_left_bol_at", counted)
    for seed in range(3):
        Q = LoopTable.from_cells(refcheck.shuffled(make().cells, random.Random(seed)))
        tested.clear()
        side.Q = Q
        assert "left_bol: true\nright_bol: false\n" in structure_report(Q)
        left = tested.count("Q")
        assert 1 <= left <= most and len(tested) - left == 1, (name, seed, len(tested))


def _seeds_bol_closure(rows, S: set[int], seed) -> bool:
    """Whether S holds the seed and x*m and m*x for every x in S and m in it."""
    return all(m in S and rows[x - 1][m - 1] in S and rows[m - 1][x - 1] in S for m in seed for x in S)


def test_left_bol_elements_are_closed_under_the_left_middle_nucleus():
    # the lemma behind the seed of the left Bol closure (structure module
    # docstring), checked with refcheck alone on every loop of order <= 6
    # and on the catalog loops of order <= 16 and their opposites: for m in
    # N_lambda & N_mu and x in S, m, x*m and m*x are in S.  Neither nucleus
    # alone is enough: each fails on 840 loops of order <= 6
    catalog = [Q.cells for Q in _catalog() if Q.order <= 16]
    small = [Q.cells for n in range(1, 7) for Q in enumerate_all_loops(n)]
    seeded = 0
    fails = {"middle": 0, "left": 0}
    for rows in (*small, *catalog, *map(refcheck.opposite, catalog)):
        nuc = refcheck.nuclei(rows)
        lm = [a for a in nuc.left if a in nuc.middle]
        S = refcheck.left_bol_elements(rows)
        assert _seeds_bol_closure(rows, S, lm), rows
        seeded += len(lm) > 1
        if len(rows) <= 6:
            fails["middle"] += not _seeds_bol_closure(rows, S, nuc.middle)
            fails["left"] += not _seeds_bol_closure(rows, S, nuc.left)
    assert seeded > 0
    assert fails == {"middle": 840, "left": 840}


def _abelian_report(Q: LoopTable, involutions: int) -> str:
    whole = "{" + ",".join(map(str, Q.elements())) + "}"
    return "".join(
        f"{key}: {value}\n"
        for key, value in [
            ("name", Q.name),
            ("order", Q.order),
            *((name, "true") for name in IDENTITY_NAMES),
            ("commutant", whole),
            ("commutant_size", Q.order),
            ("commutant_is_subloop", "true"),
            ("commutant_in_rnuc", "true"),
            *((key, whole) for key in ("lnuc", "mnuc", "rnuc", "nucleus", "center")),
            ("involutions", involutions),
        ]
    )


@pytest.mark.parametrize("n", [*range(1, 17), 31, 64, 97, 128, 243, 256, 500, 512, 1024])
def test_structure_report_on_cyclic_groups(n):
    # Z_n has one involution when n is even, none when n is odd
    Q = cyclic_group(n)
    assert structure_report(Q) == _abelian_report(Q, 1 - n % 2)


@pytest.mark.parametrize("k", range(11))
def test_structure_report_on_elementary_abelian_2_groups(k):
    Q = elem_abelian_2(k)
    assert structure_report(Q) == _abelian_report(Q, Q.order - 1)


def test_is_subloop_and_normal(T8):
    assert is_subloop(T8, (1,))
    assert is_subloop(T8, commutant(T8))
    q12 = build_named_example("order12")
    assert not is_subloop(q12, commutant(q12))


def test_right_regular_homomorphism(T8):
    assert right_regular_is_homomorphism(T8, (1,))
    # the commutant of the fixture is a subgroup of its right nucleus
    assert right_regular_is_homomorphism(T8, commutant(T8))
    with pytest.raises(errors.NotSubloop):
        right_regular_is_homomorphism(T8, (1, 4, 5))


def test_involution_count(T8):
    assert involution_count(cyclic_group(2)) == 1
    assert involution_count(T8) == 5  # elements 2,3,4,5,6 of the fixture
    assert involution_count(cyclic_group(4)) == 1
    assert involution_count(elem_abelian_2(2)) == 3


def test_structure_report(T8):
    rep = structure_report(T8)
    assert "commutant: {1,2,3,4}" in rep
    assert "left_bol: true" in rep
    assert "associative: false" in rep
    assert "involutions:" in rep
    assert rep == structure_report(T8)  # deterministic


def test_subloop_table(T8):
    sub = subloop_table(T8, commutant(T8))
    assert sub.order == 4
    assert check_identity(sub, "associative")
    assert check_identity(sub, "commutative")


# invariants of left Bol tables across the whole catalog -----------------


def test_bol_nuclei_coincide(catalog_loops):
    for Q in catalog_loops:
        assert check_identity(Q, "left_bol")
        nuc = nuclei(Q)
        assert nuc.left == nuc.middle
        assert nuc.center == tuple(sorted(set(commutant(Q)) & set(nuc.left)))


def test_commutant_subloop_iff_closed(catalog_loops):
    for Q in catalog_loops:
        com = commutant(Q)
        closed = all(mul(Q, a, b) in com for a in com for b in com)
        assert is_subloop(Q, com) == closed


def test_order_2k_commutant_subloop():
    # left Bol loops of order 2k, k odd: Z2, Z6, D3, Z10, D5, Z14, D7
    loops = [cyclic_group(2)]
    for k in (3, 5, 7):
        loops += [cyclic_group(2 * k), dihedral_group(k)]
    for Q in loops:
        assert Q.order in (2, 6, 10, 14)
        assert check_identity(Q, "left_bol")
        assert is_subloop(Q, commutant(Q))


def test_commuting_right_translations_compose(catalog_loops):
    for Q in catalog_loops:
        op = _opposite(Q.cells)  # row a is the right translation R_a
        for a in commutant(Q):
            ra = op[a - 1]
            for b in commutant(Q):
                rb = op[b - 1]
                if compose(ra, rb) == compose(rb, ra):
                    assert compose(ra, rb) == op[mul(Q, a, b) - 1]


def test_coprime_to_three_commutant_is_abelian_group(catalog_loops):
    for Q in catalog_loops:
        if math.gcd(Q.order, 3) != 1:
            continue
        H = generated_subloop(Q, commutant(Q))
        sub = subloop_table(Q, H)
        assert check_identity(sub, "associative")
        assert check_identity(sub, "commutative")
        assert Q.order % len(H) == 0
        assert right_regular_is_homomorphism(Q, H)


def test_commutant_in_right_nucleus_predicate(T8):
    # the inclusion structure_report prints as commutant_in_rnuc
    assert set(commutant(T8)) <= set(nuclei(T8).right)


def test_order16_commutant_size_split():
    # among the twenty order-16 loops with non-subloop commutant, nineteen
    # have commutant of size 6 and exactly one (the exceptional loop) size 4
    from bolkit.catalog import order16_twenty

    sizes = sorted(len(commutant(Q)) for Q in order16_twenty())
    assert sizes == [4] + [6] * 19


def test_all_odd_commutant_forces_center_equality(catalog_loops):
    # when every commutant element has odd order, the center is exactly
    # the commutant's intersection with the right nucleus
    for Q in catalog_loops:
        com = commutant(Q)
        if commutant_prime_part(Q, 2) != com:
            continue
        nuc = nuclei(Q)
        assert set(nuc.center) == set(com) & set(nuc.right)


def test_commutant_squares_in_lnuc_generate_abelian_rnuc_subgroup(catalog_loops):
    for Q in catalog_loops:
        nuc = nuclei(Q)
        lnuc = set(nuc.left)
        S = tuple(c for c in commutant(Q) if mul(Q, c, c) in lnuc)
        H = generated_subloop(Q, S)
        assert set(H) <= set(nuc.right)
        sub = subloop_table(Q, H)
        assert check_identity(sub, "associative")
        assert check_identity(sub, "commutative")
