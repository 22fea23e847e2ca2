import itertools
import random

from bolkit.catalog import q9_representatives
from bolkit.extensions import build_named_example, cyclic_group, elem_abelian_2
from bolkit.gf2 import build_exceptional
from bolkit.iso import (
    brute_force_isomorphic,
    classification_report,
    classify,
    find_isomorphism,
    invariant_profile,
    isomorphic,
)
from bolkit.loop_core import element_order, identity_perm, mul, parse_table
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


def _relabel(Q, sigma):
    n = Q.order
    cells = [[0] * n for _ in range(n)]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            cells[sigma[a - 1] - 1][sigma[b - 1] - 1] = sigma[mul(Q, a, b) - 1]
    from bolkit.loop_core import LoopTable

    return LoopTable.from_cells(cells)


def test_isomorphism_soundness_and_symmetry():
    z6 = cyclic_group(6)
    shuffled = _relabel(z6, (1, 4, 6, 2, 5, 3))
    phi = find_isomorphism(z6, shuffled)
    assert phi is not None
    for a in z6.elements():
        for b in z6.elements():
            assert phi[mul(z6, a, b) - 1] == mul(shuffled, phi[a - 1], phi[b - 1])
    assert find_isomorphism(shuffled, z6) is not None
    # profiles of isomorphic loops agree
    assert invariant_profile(z6) == invariant_profile(shuffled)


def _all_isomorphisms(A, B):
    """Every isomorphism A -> B, by trying all bijections that fix 1."""
    n = A.order
    if B.order != n:
        return []
    return [
        img
        for img in ((1, *rest) for rest in itertools.permutations(range(2, n + 1)))
        if all(
            img[mul(A, x, y) - 1] == mul(B, img[x - 1], img[y - 1])
            for x in A.elements()
            for y in A.elements()
        )
    ]


def _order8_class_representatives():
    """One table per isomorphism class of the order-8 left Bol loops.

    Tables are grouped by an isomorphism invariant written here (per
    element: order, orders along its row, commuting partners, right
    alternative partners).  Order 8 has exactly 11 classes, so 11 groups
    means the invariant separates them and each group is one class.
    """
    groups = {}
    for Q in search_left_bol(8):
        c, n = Q.cells, Q.order
        orders = [element_order(Q, a) for a in Q.elements()]
        key = tuple(
            sorted(
                (
                    orders[a],
                    tuple(sorted(orders[v - 1] for v in c[a])),
                    sum(c[a][b] == c[b][a] for b in range(n)),
                    sum(c[c[b][a] - 1][a] == c[b][c[a][a] - 1] for b in range(n)),
                )
                for a in range(n)
            )
        )
        groups.setdefault(key, Q)
    assert len(groups) == 11
    return list(groups.values())


def _random_relabel(Q, rng):
    rest = list(range(2, Q.order + 1))
    rng.shuffle(rest)
    return _relabel(Q, (1, *rest))


def test_find_isomorphism_returns_lex_least():
    # against the least map of an explicit enumeration of every isomorphism
    rng = random.Random(2006)
    loops = (
        enumerate_all_loops(4)
        + enumerate_all_loops(5)
        + search_left_bol(6)
        + _order8_class_representatives()
    )
    answers = set()
    for Q in loops:
        phis = _all_isomorphisms(Q, Q)
        assert find_isomorphism(Q, Q) == min(phis) == identity_perm(Q.order)
        R = _random_relabel(Q, rng)
        phis = _all_isomorphisms(Q, R)
        assert phis and find_isomorphism(Q, R) == min(phis)
        # a random loop of the same order: None exactly when no map exists
        S = _random_relabel(rng.choice([P for P in loops if P.order == Q.order]), rng)
        phis = _all_isomorphisms(Q, S)
        phi = find_isomorphism(Q, S)
        assert phi == (min(phis) if phis else None)
        answers.add(phi is None)
    assert answers == {True, False}
    assert len(_all_isomorphisms(elem_abelian_2(2), elem_abelian_2(2))) == 6  # Aut((Z2)^2)


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
            if brute_force_isomorphic(loops[i], loops[min(part)]):
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
            rest = list(range(2, Q.order + 1))
            rng.shuffle(rest)
            batch.append((_relabel(Q, (1, *rest)), same.get(Q.name, Q.name)))
    rng.shuffle(batch)
    expected: dict[str, list[int]] = {}
    for i, (_, key) in enumerate(batch):
        expected.setdefault(key, []).append(i)
    classes = classify([Q for Q, _ in batch])
    assert len(classes) == 29
    # classes in first-member order, each listing its members in order
    assert [list(c.members) for c in classes] == list(expected.values())
    assert all(c.representative == c.members[0] for c in classes)


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
        rest = list(range(2, Q.order + 1))
        rng.shuffle(rest)
        sigma = (1, *rest)
        shuffled = _relabel(Q, sigma)
        assert invariant_profile(shuffled) == invariant_profile(Q)


def test_find_isomorphism_on_relabeled_order16_loops():
    from bolkit.gf2 import build_exceptional, build_q9

    rng = random.Random(23)
    for Q in (build_q9((0,) * 9), build_exceptional()):
        rest = list(range(2, 17))
        rng.shuffle(rest)
        shuffled = _relabel(Q, (1, *rest))
        phi = find_isomorphism(Q, shuffled)
        assert phi is not None
        for a in Q.elements():
            for b in Q.elements():
                assert phi[mul(Q, a, b) - 1] == mul(shuffled, phi[a - 1], phi[b - 1])
        assert len(classify([Q, shuffled])) == 1


def test_isomorphism_existence_is_symmetric():
    reps = q9_representatives()
    pairs = [(0, 1), (3, 7), (12, 18)]
    for i, j in pairs:
        assert isomorphic(reps[i], reps[j]) == isomorphic(reps[j], reps[i]) == False
    Q12 = build_named_example("order12")
    assert not isomorphic(Q12, reps[0]) and not isomorphic(reps[0], Q12)
