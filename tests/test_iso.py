import functools
import hashlib
import itertools
import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

import refcheck
from bolkit import iso
from bolkit.catalog import dihedral_group, property_catalog, q9_representatives, twenty_one
from bolkit.extensions import automorphism_group, build_named_example, cyclic_group, elem_abelian_2
from bolkit.gf2 import build_exceptional, build_q9, enumerate_q9
from bolkit.iso import (
    ORDER_UNDEFINED,
    _element_data,
    brute_force_isomorphic,
    classification_report,
    classify,
    find_isomorphism,
    invariant_profile,
    is_isomorphism,
    isomorphic,
)
from bolkit.loop_core import LoopTable, identity_perm, inverse, mul, parse_table
from bolkit.oracle import enumerate_all_loops, search_left_bol


def test_profile_z4_spectrum():
    prof = invariant_profile(cyclic_group(4))
    assert prof.order_spectrum == (1, 2, 4, 4)
    assert prof.commutant_size == 4


def test_profile_separates_semidirect_examples():
    pc = invariant_profile(build_named_example("order16cyclic"))
    pe = invariant_profile(build_named_example("order16elem"))
    assert pc.involutions == 9
    assert pe.involutions == 13
    assert pc != pe


def test_profile_exceptional_lnuc():
    assert invariant_profile(build_exceptional()).lnuc_size == 1
    for Q in q9_representatives()[:4]:
        assert invariant_profile(Q).lnuc_size >= 2


def test_self_isomorphism_is_identity():
    for Q in (cyclic_group(5), build_named_example("order12"), build_exceptional()):
        assert find_isomorphism(Q, Q) == identity_perm(Q.order)


def test_isomorphism_soundness_and_symmetry():
    z6 = cyclic_group(6)
    shuffled = LoopTable.from_cells(refcheck.relabel(z6.cells, (1, 4, 6, 2, 5, 3)))
    phi = find_isomorphism(z6, shuffled)
    assert phi is not None
    assert refcheck.relabel(z6.cells, phi) == shuffled.cells
    assert find_isomorphism(shuffled, z6) is not None
    # profiles of isomorphic loops agree
    assert invariant_profile(z6) == invariant_profile(shuffled)


def test_find_isomorphism_returns_lex_least(order8_classes):
    # against the least map of an explicit enumeration of every isomorphism
    rng = random.Random(2006)
    loops = (
        [Q for n in range(1, 6) for Q in enumerate_all_loops(n)]
        + search_left_bol(6)
        + [cls[0] for cls in order8_classes]
    )
    answers = set()
    for Q in loops:
        phis = refcheck.isomorphisms(Q.cells, Q.cells)
        # the search lists every automorphism, in the same order
        assert automorphism_group(Q) == phis
        assert find_isomorphism(Q, Q) == min(phis) == identity_perm(Q.order)
        R = LoopTable.from_cells(refcheck.shuffled(Q.cells, rng))
        phis = refcheck.isomorphisms(Q.cells, R.cells)
        assert phis and find_isomorphism(Q, R) == min(phis)
        # a random loop of the same order: None exactly when no map exists
        P = rng.choice([P for P in loops if P.order == Q.order])
        S = LoopTable.from_cells(refcheck.shuffled(P.cells, rng))
        phis = refcheck.isomorphisms(Q.cells, S.cells)
        phi = find_isomorphism(Q, S)
        assert phi == (min(phis) if phis else None)
        answers.add(phi is None)
    assert answers == {True, False}
    assert len(refcheck.isomorphisms(elem_abelian_2(2).cells, elem_abelian_2(2).cells)) == 6  # Aut((Z2)^2)


def test_non_isomorphic():
    assert find_isomorphism(cyclic_group(4), elem_abelian_2(2)) is None
    assert not isomorphic(cyclic_group(4), elem_abelian_2(2))
    assert find_isomorphism(cyclic_group(4), cyclic_group(5)) is None


def test_classify_duplicates():
    z2 = cyclic_group(2)
    classes = classify([z2, z2])
    assert len(classes) == 1
    assert classes[0].representative == 0
    assert classes[0].members == (0, 1)


def test_classify_representatives_plus_exceptional():
    loops = q9_representatives() + [build_exceptional()]
    classes = classify(loops)
    assert len(classes) == 20


def test_classify_matches_brute_force_order4():
    loops = enumerate_all_loops(4)
    assert len(loops) == 4
    classes = classify(loops)
    fast = {frozenset(c.members) for c in classes}
    slow: list[set[int]] = []
    for i in range(len(loops)):
        for part in slow:
            if refcheck.isomorphisms(loops[i].cells, loops[min(part)].cells):
                part.add(i)
                break
        else:
            slow.append({i})
    assert fast == {frozenset(p) for p in slow}
    assert len(classes) == 2  # Z4 and the Klein group


def test_classify_relabeled_catalog_batch():
    from bolkit.catalog import property_catalog

    # of the 31 catalog bases exactly two pairs are isomorphic
    same = {"order4n_n3": "order12", "order4n_n4": "q9_000000111"}
    rng = random.Random(2006)
    batch = []
    for Q in property_catalog():
        for _ in range(2):
            batch.append((LoopTable.from_cells(refcheck.shuffled(Q.cells, rng)), same.get(Q.name, Q.name)))
    rng.shuffle(batch)
    expected: dict[str, list[int]] = {}
    for i, (_, key) in enumerate(batch):
        expected.setdefault(key, []).append(i)
    loops = [Q for Q, _ in batch]
    classes = classify(loops)
    assert len(classes) == 29
    # classes in first-member order, each listing its members in order
    assert [list(c.members) for c in classes] == list(expected.values())
    assert all(c.representative == c.members[0] for c in classes)
    # each member's witness is the lex-least map onto its representative
    for c in classes:
        R = loops[c.representative]
        assert c.maps[0] == identity_perm(R.order)
        for m, p in zip(c.members, c.maps, strict=True):
            assert is_isomorphism(loops[m], R, p)
            assert p == find_isomorphism(loops[m], R)


def test_classify_witnesses_on_the_q9_family(monkeypatch):
    attempts = []
    original = iso.extend_partial_hom

    def counted(*args):
        attempts.append(None)
        return original(*args)

    monkeypatch.setattr(iso, "extend_partial_hom", counted)
    loops = enumerate_q9()
    classes = classify(loops)
    assert len(classes) == 19
    assert sum(len(c.maps) for c in classes) == 512
    for c in classes:
        R = loops[c.representative]
        assert all(
            is_isomorphism(loops[m], R, p) for m, p in zip(c.members, c.maps, strict=True)
        )
    # the closure ends a branch at the first element it maps onto one with
    # another (order, commuting-partner count) pair: 5,220 attempts, where
    # closing such branches to the end takes 8,164
    assert len(attempts) <= 5300
    # and it prunes no map: members, witnesses and class order are pinned
    digest = hashlib.sha256(
        repr([(c.representative, c.members, c.maps) for c in classes]).encode()
    ).hexdigest()
    assert digest == "e21fa86f6fe4c1ca8b999f60d2de42ca4c523e8f1e1f8e91738f5cb5f4c5de63"


def test_extend_partial_hom_cuts_an_image_with_another_record():
    """The documented contract of one call: None once the closure maps an
    element onto an image with another (order, commuting-partner count)
    record, even when the closure is an injective homomorphism.

    No search can pin this cut, nor the injectivity test that shares its
    ``elif``: with both tests weakened to "used and another record", every
    search yields the same maps in the same order.  A non-injective loop
    homomorphism sends some k != 1 to the identity (phi(a\\b) = 1 when
    phi(a) = phi(b)), and no other element has the identity's record
    (1, n), so its closure is still cut there.  A closure that keeps a
    wrong record only grows maps that can never be completed: a bijective
    homomorphism is an isomorphism, which keeps every record.  So the
    contract is tested on this call from the search of q9_000000000 onto
    itself, one of those where the weakened test returns a state.
    """
    Q = q9_representatives()[0]
    assert Q.name == "q9_000000000"
    local = ((0, 0), *_element_data(Q).local)
    # 2 -> 3, 3 -> 2, 4 -> 4 is an automorphism of the subloop {1, 2, 3, 4}
    img = [0, 1, 3, 2, 4] + [0] * 12
    used = [v in (1, 2, 3, 4) for v in range(17)]
    state = (img, used, [1, 2, 3, 4])
    assert iso.extend_partial_hom(Q, Q, local, local, state, 5, 5) is None
    assert state == (img, used, [1, 2, 3, 4])  # the state is not modified
    # its extension by 5 -> 5 closes to an injective homomorphism of the
    # subloop {1..8}, found here by brute force; it sends 6 to 7, whose
    # records differ
    H = refcheck.closure(Q.cells, (2, 3, 4, 5))
    phi = {1: 1, 2: 3, 3: 2, 4: 4, 5: 5, 6: 7, 7: 6, 8: 8}
    assert H == tuple(phi) and sorted(phi.values()) == list(H)
    assert all(phi[mul(Q, a, b)] == mul(Q, phi[a], phi[b]) for a in H for b in H)
    assert [a for a in H if local[a] != local[phi[a]]] == [6, 7]
    # without the wrong record the same closure is kept: 2 -> 2, 3 -> 3 on {1..4}
    identity = ([0, 1, 2, 3, 4] + [0] * 12, used, [1, 2, 3, 4])
    kept = iso.extend_partial_hom(Q, Q, local, local, identity, 5, 5)
    assert kept is not None and kept[0][1:9] == [1, 2, 3, 4, 5, 6, 7, 8]


def test_is_isomorphism_rejects_what_is_not_one():
    Z4, K4 = cyclic_group(4), elem_abelian_2(2)
    assert is_isomorphism(Z4, Z4, (1, 4, 3, 2))  # x -> x^-1
    assert is_isomorphism(K4, K4, (1, 3, 4, 2))
    assert not is_isomorphism(Z4, Z4, (1, 3, 2, 4))  # a bijection, not a homomorphism
    assert not is_isomorphism(K4, K4, (1, 2, 2, 3))  # not a bijection
    assert not is_isomorphism(K4, K4, (1, 2, 3, 5))  # not onto 1..4
    assert not is_isomorphism(K4, K4, (2, 1, 3, 4))  # moves the identity
    assert not is_isomorphism(K4, K4, (1, 2, 3))  # wrong length
    assert not is_isomorphism(Z4, K4, (1, 2, 3, 4))
    assert not is_isomorphism(Z4, cyclic_group(5), (1, 2, 3, 4))
    assert is_isomorphism(cyclic_group(1), cyclic_group(1), (1,))
    Z3 = cyclic_group(3)
    assert is_isomorphism(Z3, Z3, (1, 3, 2))
    assert not is_isomorphism(Z3, Z3, (True, 3, 2))  # entries must be exact ints
    assert not is_isomorphism(Z3, Z3, (1, 3.0, 2))
    assert not is_isomorphism(cyclic_group(1), cyclic_group(1), (True,))
    # on a nonabelian group x -> x^-1 reverses products: an anti-automorphism,
    # not an automorphism; a conjugation is an automorphism
    D3 = dihedral_group(3)
    assert not is_isomorphism(D3, D3, tuple(inverse(D3, x) for x in D3.elements()))
    g = 4  # a reflection: g^-1 = g
    assert inverse(D3, g) == g and mul(D3, g, 2) != mul(D3, 2, g)
    assert is_isomorphism(D3, D3, tuple(mul(D3, mul(D3, g, x), g) for x in D3.elements()))


def test_is_isomorphism_agrees_with_brute_force_on_small_loops():
    # the reference lists every isomorphism; is_isomorphism must accept
    # exactly those maps, and the brute force of the tiny-iso-oracle claim
    # must find one exactly when the list is not empty
    for n in range(1, 5):
        loops = enumerate_all_loops(n)
        maps = [(1, *rest) for rest in itertools.permutations(range(2, n + 1))]
        for Q1 in loops:
            for Q2 in loops:
                expected = refcheck.isomorphisms(Q1.cells, Q2.cells)
                assert [p for p in maps if is_isomorphism(Q1, Q2, p)] == expected
                assert brute_force_isomorphic(Q1, Q2) == bool(expected)


def test_classification_report_format():
    loops = [cyclic_group(2), cyclic_group(2)]
    classes = classify(loops)
    text = classification_report(loops, classes)
    assert text.startswith("class 1: size 2 representative Z2 profile order=2")
    assert "flags=" in text


def test_profile_invariant_under_relabeling():
    from bolkit.gf2 import build_q9

    rng = random.Random(11)
    for Q in (cyclic_group(6), build_named_example("order12"), build_q9((1, 1, 0, 0, 1, 0, 1, 1, 0))):
        shuffled = LoopTable.from_cells(refcheck.shuffled(Q.cells, rng))
        assert invariant_profile(shuffled) == invariant_profile(Q)


def test_find_isomorphism_on_relabeled_order16_loops():
    from bolkit.gf2 import build_exceptional, build_q9

    rng = random.Random(23)
    for Q in (build_q9((0,) * 9), build_exceptional()):
        shuffled = LoopTable.from_cells(refcheck.shuffled(Q.cells, rng))
        phi = find_isomorphism(Q, shuffled)
        assert phi is not None
        assert refcheck.relabel(Q.cells, phi) == shuffled.cells
        assert len(classify([Q, shuffled])) == 1


def test_isomorphism_existence_is_symmetric():
    reps = q9_representatives()
    pairs = [(0, 1), (3, 7), (12, 18)]
    for i, j in pairs:
        assert isomorphic(reps[i], reps[j]) == isomorphic(reps[j], reps[i]) == False
    Q12 = build_named_example("order12")
    assert not isomorphic(Q12, reps[0]) and not isomorphic(reps[0], Q12)


@functools.cache
def _catalog():
    return tuple(property_catalog())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(index=st.integers(0, len(_catalog()) - 1), seed=st.integers(0, 2**32 - 1))
def test_element_data_follows_relabeling(index, seed):
    Q = _catalog()[index]
    sigma = refcheck.fixing_one(Q.order, random.Random(seed))
    R = LoopTable.from_cells(refcheck.relabel(Q.cells, sigma))
    d, e = _element_data(Q), _element_data(R)
    for a in Q.elements():
        assert e.local[sigma[a - 1] - 1] == d.local[a - 1]
    assert e.key == d.key
    # and the entries are what they claim: the element order, then the commuting partners
    for a in R.elements():
        commuting = sum(R.cells[a - 1][b - 1] == R.cells[b - 1][a - 1] for b in R.elements())
        assert e.local[a - 1] == (refcheck.order(R.cells, a), commuting)
    assert e.key == (R.order, tuple(sorted(e.local)))


# test_structure's loop of order 5 in which 3, 4 and 5 have no order: the
# walk 1, 3, 5, 2, 4 of 3 under L_3 is not a group
NPA_TEXT = "5\n1 2 3 4 5\n2 1 4 5 3\n3 4 5 1 2\n4 5 2 3 1\n5 3 1 2 4"


def test_element_data_derives_orders_as_one_walk_per_element_would():
    # the orders read off a's walk, in the record and in the profile's
    # spectrum, must agree with each element's order by its definition,
    # also where some elements have no order
    loops = [*(Q for n in range(1, 6) for Q in enumerate_all_loops(n)), *_catalog()]
    loops.append(parse_table(NPA_TEXT))
    undefined = 0
    for Q in loops:
        orders = [order for order, _ in _element_data(Q).local]
        expected = [refcheck.order(Q.cells, a) or ORDER_UNDEFINED for a in Q.elements()]
        assert orders == expected, Q.cells
        assert invariant_profile(Q).order_spectrum == tuple(sorted(expected)), Q.cells
        undefined += orders.count(ORDER_UNDEFINED)
    assert undefined > 0


def test_classify_key_separates_every_profile_difference(order8_classes):
    # a shared key with a different profile means a search classify could
    # have skipped; between Z2^2xZ2^2 and q9_000000000 it takes up to 80 ms
    loops = [*_catalog(), *twenty_one()]
    loops = [loops[c.representative] for c in classify(loops)]
    for n in range(1, 6):
        small = enumerate_all_loops(n)
        loops += [small[c.representative] for c in classify(small)]
    loops += [cls[0] for cls in order8_classes]
    keyed = [(Q, invariant_profile(Q), _element_data(Q).key) for Q in loops]
    for (P, p_prof, p_key), (Q, q_prof, q_key) in itertools.combinations(keyed, 2):
        if p_prof != q_prof:
            assert p_key != q_key, (P.name, Q.name)


def test_isomorphic_computes_profiles_only_for_equal_keys(monkeypatch):
    # the O(n^2) key is compared before the cubic profiles: Z2^4 and
    # q9_000000000 share their order statistics but not their commuting
    # counts, so no profile is computed; equal keys compute both profiles
    profiled = []
    profile = iso.invariant_profile

    def counted(Q):
        profiled.append(Q)
        return profile(Q)

    monkeypatch.setattr(iso, "invariant_profile", counted)
    Z, P = elem_abelian_2(4), build_q9((0,) * 9)
    assert profile(Z).order_spectrum == profile(P).order_spectrum
    assert _element_data(Z).key != _element_data(P).key
    assert not isomorphic(Z, P) and not isomorphic(P, Z)
    assert profiled == []
    R = LoopTable.from_cells(refcheck.relabel(P.cells, (1, *range(16, 1, -1))))
    assert isomorphic(P, R)
    assert profiled == [P, R]


def test_classify_order8_matches_invariant_grouping(order8_tables, order8_classes):
    index = {id(Q): i for i, Q in enumerate(order8_tables)}
    expected = [[index[id(Q)] for Q in cls] for cls in order8_classes]
    # fresh objects: other tests query the shared tables and fill their memos
    tables = [LoopTable(Q.order, Q.cells, Q.name) for Q in order8_tables]
    classes = classify(tables)
    assert [list(c.members) for c in classes] == expected
    # only the 11 representatives keep a record; the rest of the batch keeps none
    memoized = [i for i, Q in enumerate(tables) if Q._iso is not None]
    assert memoized == sorted(c.representative for c in classes)
    assert all(tables[i]._iso.profile is None for i in memoized)


def _counting(monkeypatch, name):
    """Replace ``iso.<name>`` with a wrapper that lists its arguments."""
    calls = []
    original = getattr(iso, name)

    def counted(Q):
        calls.append(Q)
        return original(Q)

    monkeypatch.setattr(iso, name, counted)
    return calls


def test_repeated_queries_compute_each_record_and_profile_once(monkeypatch):
    records = _counting(monkeypatch, "_element_data")
    profiles = _counting(monkeypatch, "invariant_profile")
    P = build_q9((0,) * 9)
    R = LoopTable.from_cells(refcheck.relabel(P.cells, (1, *range(16, 1, -1))))
    for _ in range(3):
        assert isomorphic(P, R) and isomorphic(R, P)
        assert find_isomorphism(P, R) is not None
    assert records == [P, R] and profiles == [P, R]
    # classify, the report and automorphism_group read the same memo
    classes = classify([P, R])
    classification_report([P, R], classes)
    assert automorphism_group(P)
    assert records == [P, R] and profiles == [P, R]


def test_content_equal_tables_do_not_share_a_memo():
    P = build_exceptional()
    Q = LoopTable.from_cells(P.cells)
    assert P == Q and P._iso is None and Q._iso is None
    assert isomorphic(P, P)
    assert P._iso is not None and Q._iso is None
    assert isomorphic(Q, Q)
    assert Q._iso is not P._iso


def test_memo_leaves_equality_hash_and_repr_alone():
    P = build_exceptional()
    Q = LoopTable.from_cells(P.cells, name=P.name)
    before = (hash(P), repr(P))
    assert isomorphic(P, P) and P._iso.profile is not None and Q._iso is None
    assert (hash(P), repr(P)) == before == (hash(Q), repr(Q))
    assert P == Q and Q == P and len({P, Q}) == 1


def test_threads_sharing_tables_fill_consistent_memos():
    # more threads than cores, switching often, all querying the same fresh
    # tables: every answer stays right and every memo equals a cold compute
    loops = property_catalog()[:8]
    expected = [[isomorphic(P, Q) for Q in loops] for P in loops]
    left = [LoopTable.from_cells(refcheck.relabel(Q.cells, (1, *range(Q.order, 1, -1)))) for Q in loops]
    right = [LoopTable.from_cells(Q.cells) for Q in loops]
    answers, errors = [], []

    def worker(seed):
        pairs = list(itertools.product(range(len(loops)), repeat=2))
        random.Random(seed).shuffle(pairs)
        try:
            answers.append(all(isomorphic(left[i], right[j]) == expected[i][j] for i, j in pairs))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and answers == [True] * 4
    assert True in itertools.chain(*expected) and False in itertools.chain(*expected)
    for Q in left + right:
        assert Q._iso == (_element_data(Q), invariant_profile(Q))
