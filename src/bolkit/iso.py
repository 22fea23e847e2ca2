"""Isomorphism testing and classification of loop tables.

Pairwise backtracking with invariant pruning; no canonical forms.  Tables
of order <= 16 and batches of a few hundred are the intended scale.
``classify`` computes each table's invariant profile, element orders and
local invariants once, and its generating sequence at most once, and
reuses them across all of its pairwise comparisons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NotPeriodicThroughIdentity
from .loop_core import LoopTable, Permutation, element_order
from .structure import (
    check_identity,
    commutant,
    generating_sequence,
    involution_count,
    nuclei,
)

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


def extend_partial_hom(
    Q1: LoopTable, Q2: LoopTable, assignment: dict[int, int]
) -> list[int] | None:
    """Close a partial map under products; None on any conflict.

    Returns the image list (index 0 unused) when the closure of the
    assigned elements covers all of Q1 and is injective; every product of
    known elements is checked along the way, so a successful closure over
    a generating set is a verified isomorphism.
    """
    n = Q1.order
    if Q2.order != n:
        return None
    img = [0] * (n + 1)
    img[1] = 1
    used = {1}
    known = [1]
    for x, y in assignment.items():
        if img[x]:
            if img[x] != y:
                return None
            continue
        if y in used:
            return None
        img[x] = y
        used.add(y)
        known.append(x)
    c1, c2 = Q1.cells, Q2.cells
    pending = []
    for i, x in enumerate(known):
        for y in known[: i + 1]:
            pending.append((x, y))
            if x != y:
                pending.append((y, x))
    while pending:
        x, y = pending.pop()
        p = c1[x - 1][y - 1]
        q = c2[img[x] - 1][img[y] - 1]
        if img[p]:
            if img[p] != q:
                return None
            continue
        if q in used:
            return None
        img[p] = q
        used.add(q)
        for z in known:
            pending.append((p, z))
            pending.append((z, p))
        pending.append((p, p))
        known.append(p)
    if len(known) < n:
        return None
    return img


def _exists_iso(
    Q1: LoopTable,
    Q2: LoopTable,
    d1: _ElementData,
    d2: _ElementData,
    gens: tuple[int, ...],
) -> bool:
    """Backtracking existence test over the images of gens in Q2.

    gens is a generating sequence of Q1; the two tables have equal order.
    """
    if not gens:
        return True
    ord1, loc1 = d1
    ord2, loc2 = d2
    candidates = [
        [
            y
            for y in Q2.elements()
            if ord2[y - 1] == ord1[g - 1] and loc2[y - 1] == loc1[g - 1]
        ]
        for g in gens
    ]

    def rec(i: int, assignment: dict[int, int]) -> bool:
        if i == len(gens):
            return extend_partial_hom(Q1, Q2, assignment) is not None
        for y in candidates[i]:
            if y in assignment.values():
                continue
            assignment[gens[i]] = y
            if rec(i + 1, assignment):
                del assignment[gens[i]]
                return True
            del assignment[gens[i]]
        return False

    return rec(0, {})


def _lex_least_iso(
    Q1: LoopTable, Q2: LoopTable, d1: _ElementData, d2: _ElementData
) -> Permutation | None:
    """First isomorphism in lexicographic image order (phi(2), phi(3), ...)."""
    n = Q1.order
    c1, c2 = Q1.cells, Q2.cells
    ord1, loc1 = d1
    ord2, loc2 = d2
    # triples (x, y, x*y) grouped by the largest element they mention;
    # with a contiguous domain 1..k this checks each product exactly once
    trips_at: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            p = c1[x - 1][y - 1]
            trips_at[max(x, y, p)].append((x, y, p))

    img = [0] * (n + 1)
    img[1] = 1
    used = [False] * (n + 1)
    used[1] = True

    def rec(k: int) -> bool:
        if k > n:
            return True
        for y in range(2, n + 1):
            if used[y] or ord2[y - 1] != ord1[k - 1] or loc2[y - 1] != loc1[k - 1]:
                continue
            img[k] = y
            used[y] = True
            ok = all(
                c2[img[x] - 1][img[yy] - 1] == img[p] for x, yy, p in trips_at[k]
            )
            if ok and rec(k + 1):
                return True
            used[y] = False
            img[k] = 0
        return False

    if rec(2):
        return tuple(img[1:])
    return None


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
    if data is None or not _exists_iso(Q1, Q2, *data, generating_sequence(Q1)):
        return None
    phi = _lex_least_iso(Q1, Q2, *data)
    assert phi is not None  # existence was just established
    return phi


def isomorphic(Q1: LoopTable, Q2: LoopTable) -> bool:
    """Existence-only test (cheaper than find_isomorphism)."""
    data = _screen(Q1, Q2)
    return data is not None and _exists_iso(Q1, Q2, *data, generating_sequence(Q1))


@dataclass(frozen=True)
class IsoClass:
    representative: int  # index into the classified list
    members: tuple[int, ...]


def classify(loops: list[LoopTable]) -> list[IsoClass]:
    """Partition the list under isomorphism; classes ordered by first member.

    Each table's profile and element data are computed once, and kept
    only while it is a representative; its generating sequence is computed
    on its first comparison with a representative and reused after that.
    """
    reps: list[tuple[int, tuple, _ElementData]] = []  # (index, key, data)
    members: dict[int, list[int]] = {}
    for i, Q in enumerate(loops):
        data = _element_data(Q)
        key = (invariant_profile(Q), tuple(sorted(data.local)))
        gens = None
        home = None
        for r, r_key, r_data in reps:
            if r_key != key:
                continue
            if gens is None:
                gens = generating_sequence(Q)
            if _exists_iso(Q, loops[r], data, r_data, gens):
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
