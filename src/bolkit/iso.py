"""Isomorphism testing and classification of loop tables.

One search engine, ``_isomorphisms``, lists the isomorphisms between two
tables in lexicographic image order.  It maps the least unmapped element
to each candidate image (same element order and commuting-partner count)
in increasing order and closes the partial map under products with
``extend_partial_hom``.  The closure holds every element it maps to the
same rule: a branch ends at the first element whose image has another
(order, count) pair.  An isomorphism preserves both, so this removes no
map and changes no order.  ``find_isomorphism`` takes its first map,
which is the lexicographically least; ``isomorphic`` asks whether a first map
exists; ``classify`` keeps each member's first map onto its class
representative as the class's witness; ``extensions.automorphism_group``
takes all of them.  ``is_isomorphism`` checks a given map product by
product, a whole row at a time on the ``structure`` row kernel, and
shares no code with the search, so a caller can check a witness without
trusting the engine that found it.

Each table gets one record, ``_element_data``: per element its order and
its number of commuting partners, and the table's key, its order and the
sorted pairs.  The key is O(n^2) to compute and an isomorphism
invariant.  ``classify`` searches only between tables with equal keys.
``isomorphic`` and ``find_isomorphism`` screen a pair by its orders,
then its keys, and only then by invariant profiles (identity flags,
nuclei, commutant: cubic scans); in a batch the profiles would cost more
than the searches they save.  The commuting-partner count keeps the key
as sharp as the profile on the catalog: without it, Z2^2xZ2^2 (20160
automorphisms) shares a key with q9_000000000 and exceptional16, and a
failed search between them takes 10 to 80 ms, where a profile of order
16 takes under 1 ms.

The record and the profile are memoized on the table object, in its
``_iso`` slot (a ``_Memo``), so that many queries against a few fixed
representatives compute each representative's once.  Only this module
writes the slot: ``_screen`` and ``classification_report`` fill it, and
``extensions.automorphism_group`` fills it through ``_record``.
``classify`` reads it but writes it only on its representatives, so a
batch held by its caller, such as the 275 order-8 tables that
``oracle.summarize_order8`` classifies, does not keep a record per
table.  The memo depends only on
the cells; equality, hashing and ``repr`` ignore it, and content-equal
tables built as separate objects each start empty.  A fill is
idempotent (two threads that race store equal values), so concurrent
use stays safe.

There are no canonical forms: tables of order <= 16 and batches of a few
thousand are the intended scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import eq
from typing import Iterator, NamedTuple

from .errors import NotPeriodicThroughIdentity
from .loop_core import LoopTable, Permutation, element_order, identity_perm
from .structure import IDENTITY_NAMES, _kernel, _opposite, _predicates, involution_count

# order_spectrum sentinel for elements whose powers do not form a group
ORDER_UNDEFINED = 0

PROFILE_FLAGS = IDENTITY_NAMES[:5]  # all but left_power_alternative


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
    flags: tuple[str, ...]  # the PROFILE_FLAGS that hold, in that order


def invariant_profile(Q: LoopTable) -> IsoProfile:
    com, nuc, flags = _predicates(Q)
    return IsoProfile(
        order=Q.order,
        order_spectrum=tuple(sorted(_element_orders(Q))),
        commutant_size=len(com),
        lnuc_size=len(nuc.left),
        mnuc_size=len(nuc.middle),
        rnuc_size=len(nuc.right),
        center_size=len(nuc.center),
        involutions=involution_count(Q),
        flags=tuple(name for name in PROFILE_FLAGS if flags[name]),
    )


class _ElementData(NamedTuple):
    """The per-table record the iso search reads."""

    # (element order, #{b : a*b = b*a}) for each a, indexed by a - 1; the
    # order is ORDER_UNDEFINED when the powers of a do not form a group
    local: tuple[tuple[int, int], ...]
    key: tuple[int, tuple[tuple[int, int], ...]]  # (order, sorted local)


def _element_orders(Q: LoopTable) -> list[int]:
    """Each element's order, indexed by a - 1; ORDER_UNDEFINED where it has none.

    Once ``element_order(Q, a) = m`` has verified that the powers of a form
    a cyclic group of order m, the j-th element on a's walk from 1 under
    L_a is a^j, of order m/gcd(j, m), so it needs no walk of its own.
    """
    orders = [ORDER_UNDEFINED] * Q.order  # until a walk through the element
    for a, row in enumerate(Q.cells, start=1):
        if orders[a - 1] != ORDER_UNDEFINED:
            continue
        try:
            m = element_order(Q, a)
        except NotPeriodicThroughIdentity:
            continue
        x = 1
        for j in range(m):
            orders[x - 1] = m // math.gcd(j, m)
            x = row[x - 1]
    return orders


def _element_data(Q: LoopTable) -> _ElementData:
    local = tuple(
        (order, sum(map(eq, row, col)))
        for order, row, col in zip(_element_orders(Q), Q.cells, _opposite(Q.cells))
    )
    return _ElementData(local, (Q.order, tuple(sorted(local))))


class _Memo(NamedTuple):
    """What this module keeps on a table, in ``LoopTable._iso``."""

    data: _ElementData
    profile: IsoProfile | None  # None until a screen or a report needs it


def _record(Q: LoopTable) -> _ElementData:
    """Q's record, computed on first use and memoized on Q."""
    memo = Q._iso
    if memo is None:
        memo = Q._iso = _Memo(_element_data(Q), None)
    return memo.data


def _profile(Q: LoopTable) -> IsoProfile:
    """Q's invariant profile, computed on first use and memoized on Q."""
    data = _record(Q)
    profile = Q._iso.profile
    if profile is None:
        # the public function, so a wrapper bound in its place sees each computation
        profile = invariant_profile(Q)
        Q._iso = _Memo(data, profile)
    return profile


# (img, used, known): see extend_partial_hom
_HomState = tuple[list[int], list[bool], list[int]]


def extend_partial_hom(
    Q1: LoopTable,
    Q2: LoopTable,
    local1: tuple[tuple[int, int], ...],
    local2: tuple[tuple[int, int], ...],
    state: _HomState,
    x: int,
    y: int,
) -> _HomState | None:
    """Extend a partial homomorphism by x -> y and close it under products.

    ``local1`` and ``local2`` are the ``local`` entries of the two
    records, padded with one leading entry so that element a reads index
    a; the caller picks y with the same entry as x.  ``state`` is
    ``(img, used, known)``: the image list (index 0 unused, 0 for
    unmapped), the used-image flags of Q2, and the mapped elements of Q1
    in the order they were mapped, the identity first.  The state is not
    modified.  Returns the extended state, or None when x is already
    mapped, y already used, or the closure stops being an injective
    homomorphism or maps an element r to an image q whose (order,
    commuting-partner count) differs from r's; no isomorphism does the
    latter.  Every product of two mapped elements is checked once, when
    the later of the two is mapped, so a closure that covers Q1 is a
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
            elif used[q] or local1[r] != local2[q]:
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
            elif used[q] or local1[r] != local2[q]:
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
    Candidates share the element's entry in ``local``, and the closure
    cuts a branch at the first element it maps onto a different entry;
    the two records have equal keys.
    """
    n = Q1.order
    images: dict[tuple[int, int], list[int]] = {}
    for y in range(2, n + 1):
        images.setdefault(d2.local[y - 1], []).append(y)
    candidates = [images.get(v, []) for v in d1.local]
    local1, local2 = ((0, 0), *d1.local), ((0, 0), *d2.local)
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
                extended = extend_partial_hom(Q1, Q2, local1, local2, state, x, y)
                if extended is not None:
                    yield from search(extended, x + 1)

    yield from search((img, used, [1]), 2)


def _screen(Q1: LoopTable, Q2: LoopTable) -> tuple[_ElementData, _ElementData] | None:
    """Records of both loops, or None when an invariant tells them apart.

    Cheapest first: the orders, then the keys, then the cubic profiles.
    Records and profiles come from the tables' memos; a profile is
    computed only for a table that has none yet, and only when the keys
    are equal.
    """
    if Q1.order != Q2.order:
        return None
    d1, d2 = _record(Q1), _record(Q2)
    if d1.key != d2.key or _profile(Q1) != _profile(Q2):
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


def is_isomorphism(Q1: LoopTable, Q2: LoopTable, p: Permutation) -> bool:
    """Whether p is an isomorphism Q1 -> Q2: a permutation of 1..n, each
    entry an exact int, with p(1) = 1 and Q2[p(a)][p(b)] = p(Q1[a][b])
    for all a, b.

    Two row compositions per a, on the ``structure`` kernel: p then
    L_{p(a)} of Q2 is compared with L_a of Q1 then p.  Shares no code
    with the search.
    """
    n = Q1.order
    if (
        Q2.order != n
        or len(p) != n
        or not {int}.issuperset(map(type, p))  # True and 3.0 are not elements
        or p[0] != 1
        or sorted(p) != list(range(1, n + 1))
    ):
        return False
    rows1, _ = _kernel(Q1.cells)
    _, tabs2 = _kernel(Q2.cells)
    (row_p,), (tab_p,) = _kernel((p,))
    return all(row_p.translate(tabs2[row_p[a]]) == rows1[a].translate(tab_p) for a in range(n))


@dataclass(frozen=True)
class IsoClass:
    """Indices into the classified list: the representative, the members
    in list order, and per member the map that sends it onto the
    representative (``maps[i]`` belongs to ``members[i]``; the
    representative's own is the identity).  ``classify`` fills ``maps``;
    a class built without witnesses has none."""

    representative: int
    members: tuple[int, ...]
    maps: tuple[Permutation, ...] = ()


def classify(loops: list[LoopTable]) -> list[IsoClass]:
    """Partition the list under isomorphism; classes ordered by first member.

    Each table's record (``_element_data``) is computed once, and a table
    is searched only against the representatives with the same key, its
    order and sorted (element order, commuting-partner count) pairs.
    Cubic invariant profiles are not part of it; they screen only
    ``isomorphic`` and ``find_isomorphism``.  The commuting-partner
    counts keep abelian groups such as Z2^2xZ2^2 apart from the
    nonassociative loops whose order statistics they share.

    A record already memoized on a table is read, not recomputed.  Only
    the representatives get a memo written, the tables later queries are
    most likely to name; every other record is dropped with the call, so
    a large batch costs no memory after it is classified.

    Each member keeps the map that put it in its class: the first map of
    the search from the member to the representative, so the
    lexicographically least isomorphism, as ``find_isomorphism`` returns
    it; the representative keeps the identity.  ``is_isomorphism`` checks
    such a map without the search.
    """
    reps: dict[tuple, list[tuple[int, _ElementData]]] = {}  # key -> (index, record)
    # representative -> (members, maps), by first member
    members: dict[int, tuple[list[int], list[Permutation]]] = {}
    for i, Q in enumerate(loops):
        memo = Q._iso
        data = _element_data(Q) if memo is None else memo.data
        same_key = reps.setdefault(data.key, [])
        for r, r_data in same_key:
            p = next(_isomorphisms(Q, loops[r], data, r_data), None)
            if p is not None:
                members[r][0].append(i)
                members[r][1].append(p)
                break
        else:
            same_key.append((i, data))
            members[i] = ([i], [identity_perm(Q.order)])
            if memo is None:
                Q._iso = _Memo(data, None)
    return [IsoClass(r, tuple(m), tuple(maps)) for r, (m, maps) in members.items()]


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
        prof = _profile(rep)
        fields = (
            f"order={prof.order}"
            f" spectrum={','.join(str(v) for v in prof.order_spectrum)}"
            f" commutant={prof.commutant_size}"
            f" lnuc={prof.lnuc_size} mnuc={prof.mnuc_size} rnuc={prof.rnuc_size}"
            f" center={prof.center_size}"
            f" involutions={prof.involutions}"
            f" flags={'+'.join(prof.flags) or '-'}"
        )
        name = rep.name or f"#{cls.representative}"
        lines.append(
            f"class {k}: size {len(cls.members)} representative {name} profile {fields}"
        )
    return "\n".join(lines) + "\n"
