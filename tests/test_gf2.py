import itertools
import random

import pytest

import refcheck
from bolkit import errors
from bolkit.catalog import FIXTURE_ORDER16, Q9_REPRESENTATIVE_TUPLES, load_fixture
from bolkit.extensions import (
    Cocycle,
    automorphism_group,
    bol_conditions,
    cyclic_group,
    elem_abelian_2,
    trivial_cocycle,
    trivial_tau,
)
from bolkit.gf2 import (
    CMap,
    associated_cocycle,
    build_exceptional,
    build_q9,
    classify_q9,
    cocycle_loop,
    count_constrained_cmaps,
    enumerate_q9,
    free_parameter_count,
    q9_cmap,
    q9_relabelings,
)
from bolkit.iso import classify, find_isomorphism, is_isomorphism
from bolkit.loop_core import mul
from bolkit.structure import check_identity, commutant, generated_subloop, is_subloop, nuclei


def random_cmap(dim: int, rng: random.Random) -> CMap:
    rows = [tuple(0 for _ in range(dim))]
    rows += [
        tuple(rng.randrange(2) for _ in range(dim)) for _ in range((1 << dim) - 1)
    ]
    return CMap(dim, tuple(rows))


def as_bits(f: Cocycle) -> list[list[int]]:
    """f's values as bits: element v of Z_2 is the bit v - 1."""
    return [[v - 1 for v in row] for row in f.values]


def is_left_bol(f: Cocycle) -> bool:
    """The condition equations of Q(Z_2, E, 1, f), checked against the built table."""
    general = bol_conditions(trivial_tau(f.K, f.E), f)
    assert general == check_identity(cocycle_loop(f), "left_bol")
    return general


def test_associated_cocycle_all_zero():
    c = CMap(2, ((0, 0),) * 4)
    f = associated_cocycle(c)
    assert all(v == 0 for row in as_bits(f) for v in row)


def test_associated_cocycle_restricts_and_is_right_additive():
    rng = random.Random(97)
    for _ in range(100):
        c = random_cmap(3, rng)
        f = as_bits(associated_cocycle(c))
        # f(a, b ^ d) = f(a, b) ^ f(a, d)
        assert all(fa[b ^ d] == fa[b] ^ fa[d] for fa in f for b in range(8) for d in range(8))
        for e in range(8):
            for i in range(3):
                assert f[e][1 << i] == c.values[e][i]
        # right additivity on a sum of basis vectors
        for a in range(8):
            assert f[a][0b011] == c.values[a][0] ^ c.values[a][1]


def test_associated_cocycle_unique():
    # any right-additive cocycle agreeing with c on basis columns is forced:
    # rebuilding a CMap from f's basis columns reproduces f
    rng = random.Random(98)
    for _ in range(100):
        c = random_cmap(3, rng)
        f = associated_cocycle(c)
        fb = as_bits(f)
        c2 = CMap(3, tuple(tuple(fb[e][1 << i] for i in range(3)) for e in range(8)))
        assert associated_cocycle(c2) == f


def test_bol_conditions_right_additive_and_zero():
    rng = random.Random(100)
    K, E = cyclic_group(2), elem_abelian_2(2)
    assert is_left_bol(trivial_cocycle(K, E))
    for _ in range(20):
        assert is_left_bol(associated_cocycle(random_cmap(3, rng)))


def test_q9_cmap_constraints():
    rng = random.Random(102)
    bits = tuple(rng.randrange(2) for _ in range(9))
    c = q9_cmap(bits)
    f = associated_cocycle(c).values
    # rows e1, e2 are symmetric; the (e1+e2, e3) slot breaks additivity
    for e in range(8):
        assert f[1][e] == f[e][1]
        assert f[2][e] == f[e][2]
    assert c.values[3][2] == c.values[1][2] ^ c.values[2][2] ^ 1


def test_build_q9_zero():
    Q = build_q9((0,) * 9)
    assert Q.order == 16
    assert check_identity(Q, "left_bol")
    assert not check_identity(Q, "associative")
    com = commutant(Q)
    assert len(com) == 6 and not is_subloop(Q, com)


def test_build_q9_commuting_pair_breaks():
    rng = random.Random(103)
    for bits in ((0,) * 9, (1,) * 9, tuple(rng.randrange(2) for _ in range(9))):
        Q = build_q9(bits)
        com = set(commutant(Q))
        # pairs with vector part e1 resp. e2 commute with everything
        assert {3, 4, 5, 6} <= com
        assert mul(Q, 3, 5) not in com
        assert set(commutant(Q)) <= set(nuclei(Q).right)


def test_build_q9_rejects_bad_bits():
    with pytest.raises(errors.BadParams):
        build_q9((0,) * 8)
    with pytest.raises(errors.BadParams):
        build_q9((0, 1, 2, 0, 0, 0, 0, 0, 0))


def test_build_q9_rejects_bool_bits():
    # True == 1, and the table's name would read q9_TrueTrue...
    with pytest.raises(errors.BadParams):
        build_q9((True,) * 9)
    with pytest.raises(errors.BadParams):
        CMap(1, ((0,), (True,)))


def test_build_q9_rejects_float_bits():
    with pytest.raises(errors.BadParams):
        build_q9((0.0,) * 9)
    with pytest.raises(errors.BadParams):
        CMap(1, ((0,), (1.0,)))


def test_build_q9_matches_the_general_extension_route():
    for bits in itertools.product((0, 1), repeat=9):
        general = cocycle_loop(associated_cocycle(q9_cmap(bits)))
        assert build_q9(bits).cells == general.cells, bits


def test_enumerate_q9_equals_build_q9():
    loops = enumerate_q9()
    for Q, bits in zip(loops, itertools.product((0, 1), repeat=9), strict=True):
        one = build_q9(bits)
        assert (Q.name, Q.cells) == (one.name, one.cells)


def test_enumerate_q9_builds_each_distinct_row_once():
    loops = enumerate_q9()
    rows = [row for Q in loops for row in Q.cells]
    objects = {id(row) for row in rows}
    # a row depends on (u, a, m_a) only: at most 2 * 8 * 8 of them
    assert len(objects) <= 128
    assert len(objects) == len(set(rows))  # no row value built twice
    # the rows live only as long as one call
    assert enumerate_q9()[0].cells[0] is not loops[0].cells[0]


def test_enumerate_q9_order_and_tags():
    loops = enumerate_q9()
    assert len(loops) == 512
    assert loops[0].name == "q9_000000000"
    assert loops[1].name == "q9_000000001"
    assert loops[-1].name == "q9_111111111"
    # pairwise distinct tables: every bit reaches the table, b2 included,
    # which enters only through c(e2, e1), read by column 2 from row e2
    assert len(set(loops)) == 512


# the bits each alternating form flips, b1 the most significant of nine
FORM_FLIPS = {"B12": (2,), "B13": (4, 7, 9), "B23": (5, 8, 9)}


def form_masks() -> list[tuple[tuple[int, int, int], int]]:
    """((B12, B13, B23), index mask) for the eight forms, B12 slowest."""
    out = []
    for form in itertools.product((0, 1), repeat=3):
        mask = 0
        for on, flips in zip(form, FORM_FLIPS.values()):
            for k in flips if on else ():
                mask ^= 1 << (9 - k)
        out.append((form, mask))
    return out


def test_q9_relabelings_are_the_eight_forms_in_order():
    relabelings = q9_relabelings()
    assert [mask for mask, _ in relabelings] == [mask for _, mask in form_masks()]
    assert relabelings[0][1] == tuple(range(1, 17))
    # 64 cosets of eight
    cosets = {frozenset(i ^ mask for mask, _ in relabelings) for i in range(512)}
    assert len(cosets) == 64 and {len(c) for c in cosets} == {8}


def test_coboundary_adds_the_form_to_the_cmap():
    for (b12, b13, b23), mask in form_masks():
        B = ((0, b12, b13), (b12, 0, b23), (b13, b23, 0))

        def form(e: int, i: int) -> int:  # B(e, e_i)
            return sum((e >> j & 1) * B[j][i] for j in range(3)) % 2

        for t in range(512):
            bits = tuple(t >> (8 - k) & 1 for k in range(9))
            moved = tuple((t ^ mask) >> (8 - k) & 1 for k in range(9))
            expected = tuple(
                tuple(c ^ form(e, i) for i, c in enumerate(row))
                for e, row in enumerate(q9_cmap(bits).values)
            )
            assert q9_cmap(moved).values == expected, (t, mask)


def test_q9_relabelings_are_isomorphisms_between_coset_mates():
    loops = enumerate_q9()
    relabelings = q9_relabelings()
    for i, Q in enumerate(loops):
        for mask, phi in relabelings:
            assert is_isomorphism(Q, loops[i ^ mask], phi), (i, mask)
    # a sample checked product by product, with refcheck alone
    rng = random.Random(38)
    for i in rng.sample(range(512), 24):
        for mask, phi in relabelings:
            assert refcheck.relabel(loops[i].cells, phi) == loops[i ^ mask].cells, (i, mask)


def test_classify_q9_equals_classify_of_the_family():
    classes = classify_q9(enumerate_q9())
    expected = classify(enumerate_q9())
    assert len(classes) == len(expected) == 19
    for got, want in zip(classes, expected, strict=True):
        assert got.representative == want.representative
        assert got.members == want.members
        assert got.maps == want.maps
    with pytest.raises(errors.BadParams):
        classify_q9(enumerate_q9()[:511])


def test_right_nucleus_criterion_for_right_additive():
    # (w,c) lies in the right nucleus iff a -> f(a,c) is additive in a
    f = associated_cocycle(q9_cmap((0, 1, 1, 0, 1, 0, 1, 0, 1)))
    Q = cocycle_loop(f)
    fb = as_bits(f)
    rnuc = set(nuclei(Q).right)
    for cvec in range(8):
        additive = all(
            fb[a ^ b][cvec] == fb[a][cvec] ^ fb[b][cvec]
            for a in range(8)
            for b in range(8)
        )
        for u in range(2):
            assert ((1 + u + 2 * cvec) in rnuc) == additive


def test_equivalent_cocycles_give_isomorphic_loops():
    # relabel E by an element of GL(3,2) = Aut((Z_2)^3): g(phi a, phi b) = f(a, b)
    f = associated_cocycle(q9_cmap((0,) * 9))
    phi = automorphism_group(f.E)[5]
    g_vals = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            g_vals[phi[a] - 1][phi[b] - 1] = f.values[a][b]
    g = Cocycle(f.E, f.K, tuple(tuple(r) for r in g_vals))
    assert g != f
    assert find_isomorphism(cocycle_loop(f), cocycle_loop(g)) is not None


def test_exceptional_matches_fixture_bit_for_bit():
    X = build_exceptional()
    fixture = load_fixture(FIXTURE_ORDER16)
    assert X == fixture
    assert mul(X, 5, 9) == 13
    assert mul(X, 6, 9) == 16
    # equal tables: the lex-least isomorphism is the identity
    from bolkit.loop_core import identity_perm

    assert find_isomorphism(X, fixture) == identity_perm(16)


def test_exceptional_structure():
    X = build_exceptional()
    assert check_identity(X, "left_bol")
    assert all(mul(X, a, a) == 1 for a in X.elements())  # involutory
    assert commutant(X) == (1, 2, 5, 7)
    nuc = nuclei(X)
    assert nuc.left == (1,) and nuc.center == (1,)
    assert nuc.right == tuple(range(1, 9))
    assert generated_subloop(X, commutant(X)) == nuc.right


def test_exceptional_not_in_q9_family():
    # every family member embeds K = Z_2 inside its left nucleus; the
    # exceptional loop's left nucleus is trivial
    X = build_exceptional()
    assert len(nuclei(X).left) == 1
    for bits in Q9_REPRESENTATIVE_TUPLES:
        Q = build_q9(bits)
        assert len(nuclei(Q).left) >= 2


def test_free_parameter_count():
    assert free_parameter_count(3) == 9
    assert free_parameter_count(4) == 32
    assert count_constrained_cmaps() == 512


def test_dim2_right_additive_exhaustive():
    # every dim-2 CMap yields a right-additive cocycle whose loop is left Bol
    for bits in itertools.product((0, 1), repeat=6):
        rows = ((0, 0), bits[0:2], bits[2:4], bits[4:6])
        f = associated_cocycle(CMap(2, rows))
        assert all(
            fa[b ^ d] == fa[b] ^ fa[d] for fa in as_bits(f) for b in range(4) for d in range(4)
        )
        assert is_left_bol(f)


def random_bordered_cocycle(rng: random.Random) -> Cocycle:
    """A random cocycle from (Z_2)^3 to Z_2 that is 1 on the borders."""
    rows = [(1,) * 8]
    rows += [(1, *(rng.randrange(1, 3) for _ in range(7))) for _ in range(7)]
    return Cocycle(elem_abelian_2(3), cyclic_group(2), tuple(rows))


def test_e2k2_bol_check_cross_validation():
    # random bit matrices with zero borders: the condition equations must
    # agree with the direct Bol check of the built table
    rng = random.Random(101)
    for _ in range(50):
        is_left_bol(random_bordered_cocycle(rng))


def test_gf2_conditions_agree_with_general_extension_conditions():
    # a bit matrix is a trivial-action extension cocycle over Z_2; its
    # condition equations must agree with the direct Bol check of the table
    rng = random.Random(104)
    for _ in range(25):
        is_left_bol(random_bordered_cocycle(rng))
