import itertools

import pytest

from bolkit import errors
from bolkit.catalog import dihedral_group, dihedral_inputs, direct_product, extension_catalog
from bolkit.extensions import (
    Cocycle,
    GroupTable,
    TauMap,
    automorphism_group,
    bol_conditions,
    build_extension,
    build_named_example,
    build_semidirect,
    commutant_members,
    cyclic_group,
    elem_abelian_2,
    group_conditions,
    is_semihomomorphism,
    is_tau_homomorphism,
    ker_fix,
    named_extension,
    pair_index,
    right_nucleus_members,
    trivial_cocycle,
    trivial_tau,
)
from bolkit.iso import find_isomorphism, isomorphic
from bolkit.loop_core import LoopTable, identity_perm, inverse, mul, parse_table
from bolkit.structure import (
    check_identity,
    commutant,
    involution_count,
    is_subloop,
    nuclei,
    quotient,
)


def test_group_table_rejects_nonassociative():
    npa = parse_table("5\n1 2 3 4 5\n2 1 4 5 3\n3 4 5 1 2\n4 5 2 3 1\n5 3 1 2 4")
    with pytest.raises(errors.NotAssociative):
        GroupTable.from_table(npa)
    GroupTable.from_table(cyclic_group(4))


def _brute_force_automorphisms(G):
    """Every automorphism of G, by trying all bijections that fix 1."""
    n, c = G.order, G.cells
    return sorted(
        img
        for img in ((1, *rest) for rest in itertools.permutations(range(2, n + 1)))
        if all(img[c[x][y] - 1] == c[img[x] - 1][img[y] - 1] for x in range(n) for y in range(n))
    )


def test_automorphism_groups():
    assert len(automorphism_group(cyclic_group(3))) == 2
    assert len(automorphism_group(cyclic_group(4))) == 2
    assert len(automorphism_group(elem_abelian_2(2))) == 6
    auts = automorphism_group(cyclic_group(5))
    assert len(auts) == 4
    assert auts[0] == identity_perm(5)  # canonical sort puts the identity first
    # the whole sorted list, against brute force; sizes are the known |Aut|
    for G, size in (
        (cyclic_group(6), 2),
        (dihedral_group(3), 6),
        (cyclic_group(8), 4),
        (elem_abelian_2(3), 168),
        (dihedral_group(4), 8),
        (direct_product(cyclic_group(2), cyclic_group(4)), 8),
    ):
        auts = automorphism_group(GroupTable.from_table(G))
        assert auts == _brute_force_automorphisms(G)
        assert len(auts) == size
    assert len(automorphism_group(elem_abelian_2(4))) == 20160  # |GL(4,2)|


def test_automorphism_group_too_large():
    with pytest.raises(errors.TooLarge):
        automorphism_group(cyclic_group(65))


def test_tau_and_cocycle_validation():
    K = cyclic_group(3)
    E = elem_abelian_2(2)
    with pytest.raises(errors.BadParams):
        TauMap(E, K, (identity_perm(3),) * 3)  # wrong length
    inv = tuple(inverse(K, u) for u in K.elements())
    with pytest.raises(errors.BadParams):
        TauMap(E, K, (inv,) + (identity_perm(3),) * 3)  # tau_1 not identity
    with pytest.raises(errors.BadParams):
        TauMap(E, K, (identity_perm(3),) * 3 + ((1, 2, 3, 4),))  # not an Aut(K) member
    with pytest.raises(errors.BadParams):
        Cocycle(E, K, ((1, 2, 1, 1),) + ((1, 1, 1, 1),) * 3)  # bad border


def test_trivial_extension_is_direct_product():
    K = cyclic_group(3)
    E = elem_abelian_2(2)
    Q = build_semidirect(K, E, trivial_tau(K, E))
    for a in range(1, 5):
        for b in range(1, 5):
            for u in range(1, 4):
                for v in range(1, 4):
                    got = mul(Q, pair_index(K, u, a), pair_index(K, v, b))
                    want = pair_index(K, mul(K, u, v), mul(E, a, b))
                    assert got == want
    assert check_identity(Q, "associative")


def test_embedded_k_in_left_and_middle_nuclei():
    for entry in extension_catalog():
        Q = entry.build()
        nuc = nuclei(Q)
        embedded = {pair_index(entry.K, u, 1) for u in entry.K.elements()}
        assert embedded <= set(nuc.left)
        assert embedded <= set(nuc.middle)


def test_order12_example_properties():
    Q = build_named_example("order12")
    assert Q.order == 12
    assert check_identity(Q, "left_bol")
    assert not check_identity(Q, "associative")
    com = commutant(Q)
    assert len(com) == 3 and not is_subloop(Q, com)
    K, E, tau, f = named_extension("order12")
    kf = ker_fix(tau)
    assert len(kf.ker) == 3 and len(kf.fix) == 1
    assert is_semihomomorphism(E, tau)
    assert not is_tau_homomorphism(E, tau)


def test_order16_examples():
    Qc = build_named_example("order16cyclic")
    Qe = build_named_example("order16elem")
    assert involution_count(Qc) == 9
    assert involution_count(Qe) == 13
    assert len(commutant(Qc)) == len(commutant(Qe)) == 6
    for Q in (Qc, Qe):
        assert Q.order == 16
        assert check_identity(Q, "left_bol")
        assert not check_identity(Q, "associative")
        assert not is_subloop(Q, commutant(Q))
    assert not isomorphic(Qc, Qe)
    K, E, tau, _ = named_extension("order16cyclic")
    kf = ker_fix(tau)
    assert len(kf.ker) == 3 and len(kf.fix) == 2


def test_ker_fix_trivial():
    K = cyclic_group(4)
    E = elem_abelian_2(2)
    kf = ker_fix(trivial_tau(K, E))
    assert kf.ker == tuple(E.elements())
    assert kf.fix == tuple(K.elements())


def test_bol_conditions_cross_validation():
    # the stated tau and a deliberately different one: the predicate must
    # agree with the direct table check either way
    K, E, tau, f = named_extension("order12")
    assert bol_conditions(K, E, tau, f)
    phi = tau.at(4)
    modified = TauMap(E, K, (identity_perm(3), phi, identity_perm(3), phi))
    Qm = build_extension(K, E, modified, f)
    assert bol_conditions(K, E, modified, f) == check_identity(Qm, "left_bol")


def test_condition_oracle_agreement_on_catalog():
    for entry in extension_catalog():
        Q = entry.build()
        assert bol_conditions(entry.K, entry.E, entry.tau, entry.f) == check_identity(
            Q, "left_bol"
        )
        assert group_conditions(entry.K, entry.E, entry.tau, entry.f) == check_identity(
            Q, "associative"
        )
        rn = sorted(
            pair_index(entry.K, w, c)
            for w, c in right_nucleus_members(entry.K, entry.E, entry.tau, entry.f)
        )
        assert tuple(rn) == nuclei(Q).right
        cm = sorted(
            pair_index(entry.K, u, a)
            for u, a in commutant_members(entry.K, entry.E, entry.tau, entry.f)
        )
        assert tuple(cm) == commutant(Q)


def test_right_nucleus_members_order12():
    K, E, tau, f = named_extension("order12")
    members = right_nucleus_members(K, E, tau, f)
    # tau is not a homomorphism, so only the fixed points of phi survive
    assert members == {(1, c) for c in E.elements()}


def test_commutant_members_counts():
    K, E, tau, f = named_extension("order12")
    assert len(commutant_members(K, E, tau, f)) == 3
    K2, E2, tau2, f2 = named_extension("order16elem")
    assert len(commutant_members(K2, E2, tau2, f2)) == 6
    # direct product of abelian groups: everything commutes
    K3 = cyclic_group(3)
    E3 = cyclic_group(3)
    assert len(commutant_members(K3, E3, trivial_tau(K3, E3), trivial_cocycle(K3, E3))) == 9


def test_semihomomorphism_cases():
    K = cyclic_group(3)
    E = elem_abelian_2(2)
    assert is_semihomomorphism(E, trivial_tau(K, E))
    # a homomorphism into {1, phi} with involutory image is a semihomomorphism
    phi = tuple(inverse(K, u) for u in K.elements())
    hom = TauMap(E, K, (identity_perm(3), identity_perm(3), phi, phi))
    assert is_tau_homomorphism(E, hom)
    assert is_semihomomorphism(E, hom)


def test_semidirect_bol_iff_semihomomorphism():
    K = cyclic_group(3)
    E = elem_abelian_2(2)
    phi = tuple(inverse(K, u) for u in K.elements())
    ident = identity_perm(3)
    for images in itertools.product((ident, phi), repeat=3):
        tau = TauMap(E, K, (ident,) + images)
        Q = build_semidirect(K, E, tau)
        assert check_identity(Q, "left_bol") == is_semihomomorphism(E, tau)


def test_semidirect_commutant_size_is_fix_times_ker():
    for entry in extension_catalog():
        if entry.f.values != trivial_cocycle(entry.K, entry.E).values:
            continue
        if not (
            check_identity(entry.E, "commutative")
            and check_identity(entry.K, "commutative")
        ):
            continue
        Q = entry.build()
        kf = ker_fix(entry.tau)
        assert len(commutant(Q)) == len(kf.ker) * len(kf.fix)


def test_semidirects_with_factor_of_order_two_are_groups():
    # |E| = 2 or |K| = 2: a semihomomorphic tau always yields a group
    cases = []
    for K in (cyclic_group(3), cyclic_group(4), elem_abelian_2(2)):
        cases.append((K, cyclic_group(2)))
    for E in (cyclic_group(3), cyclic_group(4), elem_abelian_2(2)):
        cases.append((cyclic_group(2), E))
    for K, E in cases:
        auts = automorphism_group(K)
        ident = identity_perm(K.order)
        for images in itertools.product(auts, repeat=E.order - 1):
            tau = TauMap(E, K, (ident,) + images)
            if not is_semihomomorphism(E, tau):
                continue
            Q = build_semidirect(K, E, tau)
            assert check_identity(Q, "associative")


def test_semidirect_commutant_in_rnuc_iff_base():
    # the inclusion C <= RNuc transfers between a semidirect product and
    # its base; exercised on a nonassociative Bol base (the order-12 loop)
    Q12 = build_named_example("order12")
    assert set(commutant(Q12)) <= set(nuclei(Q12).right)
    K = cyclic_group(3)
    E = Q12
    Q = build_semidirect(K, E, trivial_tau(K, E))
    base_holds = set(commutant(E)) <= set(nuclei(E).right)
    built_holds = set(commutant(Q)) <= set(nuclei(Q).right)
    assert built_holds == base_holds
    assert built_holds


def test_quotient_by_embedded_k_recovers_e():
    for entry in extension_catalog()[:6]:
        Q = entry.build()
        embedded = tuple(pair_index(entry.K, u, 1) for u in entry.K.elements())
        Qbar = quotient(Q, embedded)
        assert find_isomorphism(Qbar, entry.E) is not None


def test_dihedral_builder():
    s3 = dihedral_inputs(3)
    Q = build_extension(*s3, name="D3")
    assert Q.order == 6
    assert check_identity(Q, "associative")
    assert not check_identity(Q, "commutative")


def test_order4n_family():
    for n in (3, 4, 5):
        Q = build_named_example("order4n", n=n)
        assert Q.order == 4 * n
        assert check_identity(Q, "left_bol")
        assert not check_identity(Q, "associative")
        assert not is_subloop(Q, commutant(Q))


def test_commutant_order_family():
    for k in (3, 4, 5, 6, 8):
        Q = build_named_example("commutant_order", k=k)
        assert check_identity(Q, "left_bol")
        assert not check_identity(Q, "associative")
        com = commutant(Q)
        assert len(com) == k
        assert not is_subloop(Q, com)
    # at k = 3 the construction coincides with the order-12 example
    assert build_named_example("commutant_order", k=3) == build_named_example("order12")


def test_named_example_bad_params():
    with pytest.raises(errors.BadParams):
        build_named_example("order4n", n=2)
    with pytest.raises(errors.BadParams):
        build_named_example("commutant_order", k=2)
    with pytest.raises(errors.BadParams):
        build_named_example("nonsense")


def test_direct_product_helper():
    Q = direct_product(cyclic_group(2), cyclic_group(3))
    assert Q.order == 6
    assert check_identity(Q, "associative")
    assert isomorphic(Q, cyclic_group(6))


def test_order16_semidirects_appear_in_gf2_family():
    # every order-16 loop with non-subloop commutant other than the
    # exceptional one is in the nine-parameter family, so the two
    # semidirect examples must each match exactly one representative
    from bolkit.catalog import q9_representatives

    reps = q9_representatives()
    for name, expected_rep in (("order16cyclic", 4), ("order16elem", 1)):
        Q = build_named_example(name)
        hits = [i for i, R in enumerate(reps) if isomorphic(Q, R)]
        assert hits == [expected_rep]
