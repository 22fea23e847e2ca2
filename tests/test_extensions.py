import itertools
import random

import pytest

import refcheck
from bolkit import errors, extensions
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
from bolkit.iso import is_isomorphism, isomorphic
from bolkit.loop_core import MAX_ORDER, LoopTable, identity_perm, inverse, mul, parse_table
from bolkit.oracle import enumerate_all_loops
from bolkit.structure import (
    _predicates,
    check_identity,
    commutant,
    involution_count,
    is_subloop,
    nuclei,
)


def test_group_table_rejects_nonassociative():
    npa = parse_table("5\n1 2 3 4 5\n2 1 4 5 3\n3 4 5 1 2\n4 5 2 3 1\n5 3 1 2 4")
    with pytest.raises(errors.NotAssociative):
        GroupTable.from_table(npa)
    GroupTable.from_table(cyclic_group(4))


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
        assert auts == refcheck.isomorphisms(G.cells, G.cells)
        assert len(auts) == size
    assert len(automorphism_group(elem_abelian_2(4))) == 20160  # |GL(4,2)|


def test_automorphism_group_too_large():
    with pytest.raises(errors.TooLarge):
        automorphism_group(cyclic_group(65))


def test_builders_reject_orders_above_max_order():
    # each check comes before the table is allocated; Z2^64 would not fit in memory
    with pytest.raises(errors.TooLarge):
        cyclic_group(MAX_ORDER + 1)
    with pytest.raises(errors.TooLarge):
        elem_abelian_2(64)
    K, E = cyclic_group(65), cyclic_group(64)  # |K||E| = 4160
    with pytest.raises(errors.TooLarge):
        build_extension(trivial_tau(K, E), trivial_cocycle(K, E))
    with pytest.raises(errors.TooLarge):
        build_semidirect(trivial_tau(K, E))
    with pytest.raises(errors.TooLarge):
        named_extension("order4n", n=MAX_ORDER // 4 + 1)
    with pytest.raises(errors.TooLarge):
        named_extension("commutant_order", k=5000)  # E = Z2^13, order 3 * 8192


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


def _first_non_bol_loop_of_order_5():
    return next(L for L in enumerate_all_loops(5) if not check_identity(L, "left_bol"))


def test_bol_conditions_need_a_left_bol_e():
    # Q/K is E, so Q is not left Bol when E is not, whatever tau and f are
    K, E = cyclic_group(2), _first_non_bol_loop_of_order_5()
    tau, f = trivial_tau(K, E), trivial_cocycle(K, E)
    assert not check_identity(build_extension(tau, f), "left_bol")
    assert not bol_conditions(tau, f)


def test_tau_needs_k_to_be_a_group_table():
    # K lies in the left and middle nuclei of Q, so it must be a group: over
    # a plain loop K the condition equations would pass a table that is
    # neither left Bol nor a group
    K, E = _first_non_bol_loop_of_order_5(), cyclic_group(2)
    with pytest.raises(errors.BadParams, match="GroupTable"):
        trivial_tau(K, E)
    z2 = LoopTable(2, E.cells)  # a group, but not checked as one
    with pytest.raises(errors.BadParams, match="GroupTable"):
        TauMap(E, z2, (identity_perm(2),) * 2)
    assert trivial_tau(GroupTable.from_table(z2), E).K == z2


def test_tau_checks_each_distinct_map_once(monkeypatch):
    calls = []

    def counted(Q1, Q2, p):
        calls.append(p)
        return is_isomorphism(Q1, Q2, p)

    monkeypatch.setattr(extensions, "is_isomorphism", counted)
    trivial_tau(cyclic_group(2), elem_abelian_2(3))
    assert calls == [(1, 2)]
    K = cyclic_group(3)
    swap = (1, 3, 2)  # inversion: an automorphism of Z3
    bad = (2, 1, 3)  # does not fix the identity
    calls.clear()
    with pytest.raises(errors.BadParams, match=r"\(2, 1, 3\)"):
        TauMap(elem_abelian_2(2), K, (identity_perm(3), bad, swap, bad))
    assert calls == [identity_perm(3), bad]  # the first bad map is reported


def test_tau_rejects_float_entries():
    K, E = cyclic_group(2), elem_abelian_2(1)
    # (1.0, 2.0) equals the identity (1, 2) and would be skipped as a repeat
    with pytest.raises(errors.BadParams):
        TauMap(E, K, ((1, 2), (1.0, 2.0)))
    with pytest.raises(errors.BadParams):
        TauMap(E, K, ((1.0, 2.0), (1, 2)))


def test_cocycle_rejects_float_values():
    K, E = cyclic_group(2), elem_abelian_2(1)
    with pytest.raises(errors.BadParams):
        Cocycle(E, K, ((1, 1), (1, 2.0)))


def test_trivial_extension_is_direct_product():
    K = cyclic_group(3)
    E = elem_abelian_2(2)
    Q = build_semidirect(trivial_tau(K, E))
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
        K = entry.tau.K
        embedded = {pair_index(K, u, 1) for u in K.elements()}
        assert embedded <= set(nuc.left)
        assert embedded <= set(nuc.middle)


def test_order12_example_properties():
    Q = build_named_example("order12")
    assert Q.order == 12
    assert check_identity(Q, "left_bol")
    assert not check_identity(Q, "associative")
    com = commutant(Q)
    assert len(com) == 3 and not is_subloop(Q, com)
    tau, f = named_extension("order12")
    kf = ker_fix(tau)
    assert len(kf.ker) == 3 and len(kf.fix) == 1
    assert is_semihomomorphism(tau)
    assert not is_tau_homomorphism(tau)


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
    tau, _ = named_extension("order16cyclic")
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
    tau, f = named_extension("order12")
    assert bol_conditions(tau, f)
    phi = tau.at(4)
    modified = TauMap(tau.E, tau.K, (identity_perm(3), phi, identity_perm(3), phi))
    Qm = build_extension(modified, f)
    assert bol_conditions(modified, f) == check_identity(Qm, "left_bol")


def test_condition_oracle_agreement_on_catalog():
    for entry in extension_catalog():
        Q = entry.build()
        tau, f, K = entry.tau, entry.f, entry.tau.K
        assert bol_conditions(tau, f) == check_identity(Q, "left_bol")
        assert group_conditions(tau, f) == check_identity(Q, "associative")
        rn = sorted(pair_index(K, w, c) for w, c in right_nucleus_members(tau, f))
        assert tuple(rn) == nuclei(Q).right
        cm = sorted(pair_index(K, u, a) for u, a in commutant_members(tau, f))
        assert tuple(cm) == commutant(Q)


def test_condition_equations_agree_with_built_tables_on_random_inputs():
    # 300 seeded (tau, f) over K, E in {Z2, Z3, Z4, Z2^2}, a third of them
    # with the trivial cocycle so that a real share are left Bol; each
    # condition function must agree with the predicates of the built table
    rng = random.Random(5_200_026)  # not verify.RANDOM_SEED
    small = [cyclic_group(2), cyclic_group(3), cyclic_group(4), elem_abelian_2(2)]
    auts = [automorphism_group(G) for G in small]
    involutions = [[x for x in range(2, G.order + 1) if mul(G, x, x) == 1] for G in small]
    bol = skew_bol = 0
    for t in range(300):
        k = rng.randrange(len(small))
        K, E = small[k], rng.choice(small)
        rest = [rng.choice(auts[k]) for _ in range(E.order - 1)]
        tau = TauMap(E, K, (identity_perm(K.order), *rest))
        if t % 3 == 0:
            f = trivial_cocycle(K, E)
        elif t % 3 == 1 and E.name == "Z2^2" and involutions[k]:
            # f(a, b) = z^beta(a, b), beta a GF(2) bilinear form on the masks
            # with beta(e1, e2) = 1 != beta(e2, e1) and z an involution: a
            # cocycle that is not symmetric, so that f(a, b) and f(b, a) are
            # told apart in Bol extensions
            z = rng.choice(involutions[k])
            m = [rng.randrange(2), 1, 0, rng.randrange(2)]
            pairs = [(i, j) for i in (0, 1) for j in (0, 1)]
            beta = [
                [sum(m[2 * i + j] & x >> i & y >> j for i, j in pairs) % 2 for y in range(4)]
                for x in range(4)
            ]
            f = Cocycle(E, K, tuple(tuple(z if bit else 1 for bit in row) for row in beta))
        else:
            border = (1,) * E.order
            inner = [
                (1, *(rng.randrange(1, K.order + 1) for _ in range(E.order - 1)))
                for _ in range(E.order - 1)
            ]
            f = Cocycle(E, K, (border, *inner))
        com, nuc, flags = _predicates(build_extension(tau, f))
        assert bol_conditions(tau, f) == flags["left_bol"]
        assert group_conditions(tau, f) == flags["associative"]
        rn = sorted(pair_index(K, w, c) for w, c in right_nucleus_members(tau, f))
        assert tuple(rn) == nuc.right
        cm = sorted(pair_index(K, u, a) for u, a in commutant_members(tau, f))
        assert tuple(cm) == com
        bol += flags["left_bol"]
        skew_bol += flags["left_bol"] and f.values != tuple(zip(*f.values))
    assert bol / 300 > 0.1
    assert skew_bol > 0


def _products(tau, f):
    """The cells of Q(K, E, tau, f) product by product: row idx(u, a),
    column idx(v, b) holds idx(u * tau_a(v) * f(a, b), ab)."""
    kc, ec, ts, fv = tau.K.cells, tau.E.cells, tau.assignment, f.values
    nk, ne = tau.K.order, tau.E.order
    return tuple(
        tuple(
            kc[kc[u][ts[a][v] - 1] - 1][fv[a][b] - 1] + nk * (ec[a][b] - 1)
            for b in range(ne)
            for v in range(nk)
        )
        for a in range(ne)
        for u in range(nk)
    )


def test_build_extension_matches_the_products():
    for entry in extension_catalog():
        Q = entry.build()
        assert (Q.cells, Q.name) == (_products(entry.tau, entry.f), entry.name)
    for n in range(3, 71):  # orders 12 to 280, across the byte limit at 255
        Q = build_named_example("order4n", n=n)
        assert (Q.cells, Q.name) == (_products(*named_extension("order4n", n=n)), f"order4n_n{n}")
    # seeded (tau, f): every K with every E, E of order 1 and a loop that
    # is not a group among them; K of order 1 reads a single index per block
    rng = random.Random(3_900_039)
    Ks = [cyclic_group(1), cyclic_group(2), cyclic_group(3), cyclic_group(4), elem_abelian_2(2), cyclic_group(5)]
    Es = [cyclic_group(1), cyclic_group(2), cyclic_group(3), elem_abelian_2(2), _first_non_bol_loop_of_order_5()]
    names = {1: "Z1", 2: "Z2", 3: "Z3", 4: "Z2^2", 5: "5"}
    auts = [automorphism_group(K) for K in Ks]
    for t in range(50):
        K, E = Ks[t % 6], Es[t // 6 % 5]
        ne, nk = E.order, K.order
        tau = TauMap(E, K, (identity_perm(nk), *(rng.choice(auts[t % 6]) for _ in range(ne - 1))))
        inner = [(1, *(rng.randrange(1, nk + 1) for _ in range(ne - 1))) for _ in range(ne - 1)]
        f = Cocycle(E, K, ((1,) * ne, *inner))
        Q = build_extension(tau, f)
        assert (Q.cells, Q.name) == (_products(tau, f), f"ext({K.name},{names[ne]})")


def test_built_tables_of_order_512_hold_one_int_object_per_element():
    for Q in (build_named_example("order4n", n=128), elem_abelian_2(9)):
        assert Q.order == 512
        assert len({id(v) for row in Q.cells for v in row}) <= Q.order + 1


def test_right_nucleus_members_order12():
    tau, f = named_extension("order12")
    members = right_nucleus_members(tau, f)
    # tau is not a homomorphism, so only the fixed points of phi survive
    assert members == {(1, c) for c in tau.E.elements()}


def test_commutant_members_counts():
    assert len(commutant_members(*named_extension("order12"))) == 3
    assert len(commutant_members(*named_extension("order16elem"))) == 6
    # direct product of abelian groups: everything commutes
    K3 = cyclic_group(3)
    E3 = cyclic_group(3)
    assert len(commutant_members(trivial_tau(K3, E3), trivial_cocycle(K3, E3))) == 9


def test_semihomomorphism_cases():
    K = cyclic_group(3)
    E = elem_abelian_2(2)
    assert is_semihomomorphism(trivial_tau(K, E))
    # a homomorphism into {1, phi} with involutory image is a semihomomorphism
    phi = tuple(inverse(K, u) for u in K.elements())
    hom = TauMap(E, K, (identity_perm(3), identity_perm(3), phi, phi))
    assert is_tau_homomorphism(hom)
    assert is_semihomomorphism(hom)


def test_tau_homomorphism_composes_right_to_left():
    # E = D3 acting on K = Z2^2, whose automorphism group is S3 too: the
    # pointwise inverses of the isomorphisms E -> Aut(K) are
    # anti-homomorphisms, so only the order tau_a tau_b = tau_a after tau_b
    # tells them from homomorphisms
    E, K = dihedral_group(3), elem_abelian_2(2)
    ident = identity_perm(4)

    def is_hom(t):
        # tau_{a*b}(v) = tau_a(tau_b(v)) for every v in K
        return all(
            t[mul(E, a, b) - 1] == tuple(t[a - 1][v - 1] for v in t[b - 1])
            for a in E.elements()
            for b in E.elements()
        )

    homs = [
        (ident,) + images
        for images in itertools.product(automorphism_group(K), repeat=5)
        if is_hom((ident,) + images)
    ]
    isos = [h for h in homs if len(set(h)) == 6]
    assert (len(homs), len(isos)) == (10, 6)
    inverses = [tuple(tuple(p.index(v) + 1 for v in K.elements()) for p in h) for h in isos]
    verdicts = []
    for assignment in homs + inverses:
        tau = TauMap(E, K, assignment)
        verdicts.append(is_tau_homomorphism(tau))
        assert verdicts[-1] == check_identity(build_semidirect(tau), "associative")
    assert verdicts == [True] * 10 + [False] * 6


def test_semidirect_bol_iff_semihomomorphism():
    K = cyclic_group(3)
    E = elem_abelian_2(2)
    phi = tuple(inverse(K, u) for u in K.elements())
    ident = identity_perm(3)
    for images in itertools.product((ident, phi), repeat=3):
        tau = TauMap(E, K, (ident,) + images)
        Q = build_semidirect(tau)
        assert check_identity(Q, "left_bol") == is_semihomomorphism(tau)


def test_semidirect_commutant_size_is_fix_times_ker():
    for entry in extension_catalog():
        K, E = entry.tau.K, entry.tau.E
        if entry.f.values != trivial_cocycle(K, E).values:
            continue
        if not (check_identity(E, "commutative") and check_identity(K, "commutative")):
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
            if not is_semihomomorphism(tau):
                continue
            Q = build_semidirect(tau)
            assert check_identity(Q, "associative")


def test_semidirect_commutant_in_rnuc_iff_base():
    # the inclusion C <= RNuc transfers between a semidirect product and
    # its base; exercised on a nonassociative Bol base (the order-12 loop)
    Q12 = build_named_example("order12")
    assert set(commutant(Q12)) <= set(nuclei(Q12).right)
    K = cyclic_group(3)
    E = Q12
    Q = build_semidirect(trivial_tau(K, E))
    base_holds = set(commutant(E)) <= set(nuclei(E).right)
    built_holds = set(commutant(Q)) <= set(nuclei(Q).right)
    assert built_holds == base_holds
    assert built_holds


def test_pair_projection_is_a_homomorphism_onto_e():
    # idx(u, a) -> a maps Q onto E multiplicatively; its fibre over 1 is
    # the embedded K
    for entry in extension_catalog():
        Q = entry.build()
        K, E = entry.tau.K, entry.tau.E
        proj = [(idx - 1) // K.order + 1 for idx in Q.elements()]
        assert sorted(set(proj)) == list(E.elements())
        assert all(
            proj[mul(Q, x, y) - 1] == mul(E, proj[x - 1], proj[y - 1])
            for x in Q.elements()
            for y in Q.elements()
        )
        fibre = [idx for idx in Q.elements() if proj[idx - 1] == 1]
        assert fibre == [pair_index(K, u, 1) for u in K.elements()]


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
    # a parameter the family does not take is named, not ignored
    for name, params, unexpected in (
        ("order12", {"n": 5}, "n"),
        ("order4n", {"n": 5, "k": 3}, "k"),
        ("order4n", {"k": 5}, "k"),
    ):
        with pytest.raises(errors.BadParams, match=f"takes no parameter {unexpected}$"):
            build_named_example(name, **params)


def test_tau_and_cocycle_over_different_groups_are_rejected():
    # order16elem acts on K = E = Z2^2; a cocycle over Z4 in place of
    # either group is refused, not built into a table that is not left Bol
    tau, f = named_extension("order16elem")
    z4 = cyclic_group(4)
    for g in (trivial_cocycle(z4, tau.E), trivial_cocycle(tau.K, z4)):
        with pytest.raises(errors.BadParams, match="same K and E"):
            build_extension(tau, g)
        with pytest.raises(errors.BadParams, match="same K and E"):
            bol_conditions(tau, g)


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
