"""Isomorphism testing and classification of loop tables.

One search engine, ``_isomorphisms``, lists the isomorphisms between two
tables in lexicographic image order.  It maps the least unmapped element
to each candidate image (same element order and local invariant) in
increasing order and closes the partial map under products with
``extend_partial_hom``.  ``find_isomorphism`` takes its first map, which
is the lexicographically least; ``isomorphic`` and ``classify`` ask
whether a first map exists; ``extensions.automorphism_group`` takes all
of them.  Invariant profiles screen pairs before any search.  There are
no canonical forms: tables of order <= 16 and batches of a few hundred
are the intended scale.  ``classify`` computes each table's profile and
element data once and reuses them across its pairwise comparisons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import NotPeriodicThroughIdentity
from .loop_core import LoopTable, Permutation, element_order
from .structure import check_identity, commutant, involution_count, nuclei

# order_spectrum sentinel for elements whose powers do not form a group
ORDER_UNDEFINED = 0

PROFILE_FLAGS = ("left_bol", "right_bol", "moufang", "associative", "commutative")


@dataclass(frozen=True)
class IsoProfile:
    """Isomorphism-invariant fingerprint; equal for isomorphic loops."""

    order: int
    order_spectrum: tuple[int, ...]
    commutant_size: int
    lnuc_size: int
    mnuc_size: int
    rnuc_size: int
    center_size: int
    involutions: int
    flags: int  # bit i set iff PROFILE_FLAGS[i] holds


def _safe_order(Q: LoopTable, a: int) -> int:
    try:
        return element_order(Q, a)
    except NotPeriodicThroughIdentity:
        return ORDER_UNDEFINED


def invariant_profile(Q: LoopTable) -> IsoProfile:
    nuc = nuclei(Q)
    flags = 0
    for i, name in enumerate(PROFILE_FLAGS):
        if check_identity(Q, name):
            flags |= 1 << i
    return IsoProfile(
        order=Q.order,
        order_spectrum=tuple(sorted(_safe_order(Q, a) for a in Q.elements())),
        commutant_size=len(commutant(Q)),
        lnuc_size=len(nuc.left),
        mnuc_size=len(nuc.middle),
        rnuc_size=len(nuc.right),
        center_size=len(nuc.center),
        involutions=involution_count(Q),
        flags=flags,
    )


def profile_flag_names(profile: IsoProfile) -> tuple[str, ...]:
    return tuple(
        name for i, name in enumerate(PROFILE_FLAGS) if profile.flags >> i & 1
    )


class _ElementData(NamedTuple):
    """Per-table data the iso search reads, indexed by element - 1."""

    orders: tuple[int, ...]  # element orders, ORDER_UNDEFINED if aperiodic
    local: tuple[tuple[int, ...], ...]  # sorted multiset {order(a*b) : b in Q}


def _element_data(Q: LoopTable) -> _ElementData:
    """Element orders and per-element local invariants, computed together."""
    orders = tuple(_safe_order(Q, a) for a in Q.elements())
    local = tuple(tuple(sorted(orders[v - 1] for v in row)) for row in Q.cells)
    return _ElementData(orders, local)


# (img, used, known): see extend_partial_hom
_HomState = tuple[list[int], list[bool], list[int]]


def extend_partial_hom(
    Q1: LoopTable, Q2: LoopTable, state: _HomState, x: int, y: int
) -> _HomState | None:
    """Extend a partial homomorphism by x -> y and close it under products.

    ``state`` is ``(img, used, known)``: the image list (index 0 unused, 0
    for unmapped), the used-image flags of Q2, and the mapped elements of
    Q1 in the order they were mapped, the identity first.  The state is
    not modified.  Returns the extended state, or None when x is already
    mapped, y already used, or the closure stops being an injective
    homomorphism.  Every product of two mapped elements is checked once,
    when the later of the two is mapped, so a closure that covers Q1 is a
    verified isomorphism.
    """
    img, used, known = state
    if img[x] or used[y]:
        return None
    img, used, known = img[:], used[:], known + [x]
    img[x] = y
    used[y] = True
    c1, c2 = Q1.cells, Q2.cells
    i = len(known) - 1
    while i < len(known):
        p = known[i]
        fp = img[p]
        row1, row2 = c1[p - 1], c2[fp - 1]
        for z in known[1 : i + 1]:  # known[0] is the identity
            fz = img[z]
            # p*z, then z*p unless z is p; the two blocks are inlined for speed
            r, q = row1[z - 1], row2[fz - 1]
            if img[r]:
                if img[r] != q:
                    return None
            elif used[q]:
                return None
            else:
                img[r] = q
                used[q] = True
                known.append(r)
            if z == p:
                break
            r, q = c1[z - 1][p - 1], c2[fz - 1][fp - 1]
            if img[r]:
                if img[r] != q:
                    return None
            elif used[q]:
                return None
            else:
                img[r] = q
                used[q] = True
                known.append(r)
        i += 1
    return img, used, known


def _isomorphisms(
    Q1: LoopTable, Q2: LoopTable, d1: _ElementData, d2: _ElementData
) -> Iterator[Permutation]:
    """Every isomorphism Q1 -> Q2, in lexicographic image order (phi(2), phi(3), ...).

    Depth-first search that maps the least unmapped element to each
    candidate image in increasing order and closes the map under products.
    Elements below the branch element are already mapped, so sibling
    subtrees differ first at that element and the maps come out sorted.
    Candidates share the element order and local invariant.
    """
    n = Q1.order
    if Q2.order != n:
        return
    images: dict[tuple, list[int]] = {}
    for y in range(2, n + 1):
        images.setdefault((d2.orders[y - 1], d2.local[y - 1]), []).append(y)
    candidates = [images.get((d1.orders[x - 1], d1.local[x - 1]), []) for x in range(1, n + 1)]
    img = [0] * (n + 1)
    img[1] = 1
    used = [False] * (n + 1)
    used[1] = True

    def search(state: _HomState, x: int) -> Iterator[Permutation]:
        img, used, _ = state
        while x <= n and img[x]:
            x += 1
        if x > n:
            yield tuple(img[1:])
            return
        for y in candidates[x - 1]:
            if not used[y]:
                extended = extend_partial_hom(Q1, Q2, state, x, y)
                if extended is not None:
                    yield from search(extended, x + 1)

    yield from search((img, used, [1]), 2)


def _screen(Q1: LoopTable, Q2: LoopTable) -> tuple[_ElementData, _ElementData] | None:
    """Per-table data of both loops, or None when an invariant tells them apart."""
    if Q1.order != Q2.order:
        return None
    if invariant_profile(Q1) != invariant_profile(Q2):
        return None
    d1, d2 = _element_data(Q1), _element_data(Q2)
    if sorted(d1.local) != sorted(d2.local):
        return None
    return d1, d2


def find_isomorphism(Q1: LoopTable, Q2: LoopTable) -> Permutation | None:
    """A loop isomorphism Q1 -> Q2, or None.

    When one exists, the returned permutation is the lexicographically
    least in image order, so repeated runs are reproducible.
    """
    data = _screen(Q1, Q2)
    return None if data is None else next(_isomorphisms(Q1, Q2, *data), None)


def isomorphic(Q1: LoopTable, Q2: LoopTable) -> bool:
    """Whether an isomorphism Q1 -> Q2 exists."""
    return find_isomorphism(Q1, Q2) is not None


@dataclass(frozen=True)
class IsoClass:
    representative: int  # index into the classified list
    members: tuple[int, ...]


def classify(loops: list[LoopTable]) -> list[IsoClass]:
    """Partition the list under isomorphism; classes ordered by first member.

    Each table's profile and element data are computed once, and kept
    only while it is a representative.
    """
    reps: list[tuple[int, tuple, _ElementData]] = []  # (index, key, data)
    members: dict[int, list[int]] = {}
    for i, Q in enumerate(loops):
        data = _element_data(Q)
        key = (invariant_profile(Q), tuple(sorted(data.local)))
        home = None
        for r, r_key, r_data in reps:
            if r_key != key:
                continue
            if next(_isomorphisms(Q, loops[r], data, r_data), None) is not None:
                home = r
                break
        if home is None:
            reps.append((i, key, data))
            members[i] = [i]
        else:
            members[home].append(i)
    return [IsoClass(r, tuple(members[r])) for r, _, _ in reps]


def brute_force_isomorphic(Q1: LoopTable, Q2: LoopTable) -> bool:
    """All-bijections oracle; loop isomorphisms fix the identity."""
    n = Q1.order
    if Q2.order != n:
        return False
    c1, c2 = Q1.cells, Q2.cells
    for rest in itertools.permutations(range(2, n + 1)):
        img = (1,) + rest
        if all(
            img[c1[x][y] - 1] == c2[img[x] - 1][img[y] - 1]
            for x in range(n)
            for y in range(n)
        ):
            return True
    return False


def classification_report(loops: list[LoopTable], classes: list[IsoClass]) -> str:
    """One line per class: size, representative name, profile fields."""
    lines = []
    for k, cls in enumerate(classes, start=1):
        rep = loops[cls.representative]
        prof = invariant_profile(rep)
        fields = (
            f"order={prof.order}"
            f" spectrum={','.join(str(v) for v in prof.order_spectrum)}"
            f" commutant={prof.commutant_size}"
            f" lnuc={prof.lnuc_size} mnuc={prof.mnuc_size} rnuc={prof.rnuc_size}"
            f" center={prof.center_size}"
            f" involutions={prof.involutions}"
            f" flags={'+'.join(profile_flag_names(prof)) or '-'}"
        )
        name = rep.name or f"#{cls.representative}"
        lines.append(
            f"class {k}: size {len(cls.members)} representative {name} profile {fields}"
        )
    return "\n".join(lines) + "\n"
