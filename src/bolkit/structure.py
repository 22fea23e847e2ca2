"""Structural analysis of loop tables.

Identity checking, commutant, nuclei, generated subloops, and the
homomorphism test for restricted right translations.  Element sets are
returned as sorted tuples.  All functions are pure.

The row predicates (the identity checks, the nuclei and the
right-regular homomorphism test) share one kernel, and so do
``iso.is_isomorphism`` and the cube checks of ``verify``.  It holds each
row with 0-based values, and ``rows[x].translate(tabs[y])`` is the row
of L_y L_x, so an identity becomes a comparison of whole rows per pair
(x, y).  Right-hand notions come from the opposite table (the
transpose): right Bol is left Bol of the opposite loop, the right
nucleus is its left nucleus.  Up to order 255 a table is encoded as one
flat row-major ``bytes`` of n^2 bytes, translated to 0-based values in
one C-level pass; its rows are the slices ``flat[x*n:(x+1)*n]``, the rows
of its opposite the strided slices ``flat[y::n]`` (``_kernel_rows``), the
table of a row is the row padded to 256 bytes (``_tables``), and a
composition is one C-level ``bytes.translate``.  Above that a row is a
``_WideRow`` tuple whose ``translate`` builds an ``operator.itemgetter``
over the row and applies it, returning a plain tuple.  No kernel user
translates a result again: ``_left_bol_at`` compares L_y L_x with
L_x^-1 L_{x*(y*x)}.  This module caches nothing on the table, so each
call pays for one encoding of the table, O(n^2) in C up to order 255,
and for the tables of the sides it composes on; the one memo a table
carries, ``LoopTable._iso``, belongs to ``bolkit.iso``, which keeps there
each table's iso record and the invariant profile it builds from
``_predicates``.

Closures keep most predicates below n^3.  Each nucleus is a subloop and
is found by closure, testing only elements outside the span of the
members found so far; a loop whose middle nucleus is all of Q is a group.
A test tries first the x that refuted the last element ruled out, so an
element outside the nucleus usually costs one row composition, not up to n.
Left Bol is decided the same way (``_left_bol``): the elements x with
L_x L_y L_x = L_{x*(y*x)} for every y form a union of right cosets of
N_lambda & N_mu, closed under (x, w) -> x*(w*x), so the closure keeps one
representative per coset and forms the Bol map only between
representatives, and only elements outside it are tested, n row
compositions each.  The Bol loops of the Section 4 construction have K in
N_lambda & N_mu: on ``order4n:n`` the closure needs 3 tests, over the
property catalog at most 9 (Z4 x the exceptional loop), and on Z16 or Z32
x the exceptional loop, of order 256 and 512, 7 to 11 (six relabelings
of the first, three of the second).  A loop that is not left Bol stops
at its first failing element.  The left-power-alternative check walks
one cycle per cyclic subloop, not one per element.

``_predicates`` is the one code path for the nuclei and the identity
flags: ``nuclei`` and ``check_identity`` read its result, and every
caller that needs more than one of the commutant, the nuclei and the
identity flags (``structure_report``, ``iso.invariant_profile``, the
``verify`` claims, ``bolkit enumerate-q9``) calls it once per table.
The flags come as a mapping keyed by ``IDENTITY_NAMES``.  It scans fewer
nuclei by three facts (Robinson, *Bol loops*, Trans. AMS 123, 1966, for
the first two; products of translations act right to left):

- In a left Bol loop N_lambda = N_mu.  For a in N_lambda and u = a*x:
  a*(y*a) = (a*y)*a with y = a^-1*u, so by Bol L_{u*a} = L_a L_{a^-1*u}
  L_a = L_a L_{a^-1} L_u L_a = L_u L_a, using a^-1 in N_lambda and the
  left inverse property; u runs over Q, so a is in N_mu.  For a in N_mu:
  L_{a*(y*a)} = L_a L_y L_a = L_a L_{y*a}, and y*a runs over Q, so a is
  in N_lambda.
- In a right Bol loop N_rho = N_mu: the first fact for the opposite loop.
- In any loop the center is C & N_lambda & N_mu, C the commutant: for c
  in all three, (x*y)*c = c*(x*y) = (c*x)*y = (x*c)*y = x*(c*y) =
  x*(y*c), so c is in N_rho too.

The left Bol closure rests on two facts, in any loop.  Let S be the set
of x with L_x L_y L_x = L_{x*(y*x)} for every y; it holds 1.  For x in S
and m in N_lambda & N_mu, so that L_{m*z} = L_m L_z and L_{z*m} = L_z L_m
for every z, x*m is in S (and with x = 1, m is):

  L_{x*m} L_y L_{x*m} = L_x L_{m*y} L_x L_m = L_{x*((m*y)*x)} L_m =
  L_{(x*((m*y)*x))*m},

a left translation L_w, which is fixed by its value w at 1; the
left-hand side L_z L_y L_z sends 1 to z*(y*z), so L_z L_y L_z =
L_{z*(y*z)}.  And for x, w in S, x*(w*x) is in S (``oracle`` module
docstring).  Neither nucleus alone will do as the seed.  For m in N_mu,
L_m L_y L_m = L_m L_{y*m}, and as y*m runs over Q this is L_{m*(y*m)} for
every y only if m is in N_lambda.  For m in N_lambda, L_{m*(y*m)} =
L_m L_{y*m}, which is L_m L_y L_m for every y only if m is in N_mu.  So
an element of N_lambda or N_mu is in S exactly when it is in
N_lambda & N_mu.

So the middle nucleus is scanned first; N_lambda & N_mu is found by
closure with the left-nucleus test run only on elements of N_mu, and the
center is its intersection with C; the left Bol closure of Q is seeded
with N_lambda & N_mu and that of the opposite loop with the center; and
the left (right) nucleus is scanned only when Q is not left (right) Bol,
by a closure that starts from N_lambda & N_mu (the center).

What stays cubic: a left Bol loop whose closure grows slowly needs up to
n tests of n^2 each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .errors import BadParams, NotSubloop
from .loop_core import LoopTable, element_order, mul

ElementSet = tuple[int, ...]
Row = tuple[int, ...]
Rows = tuple[Row, ...]

IDENTITY_NAMES = (
    "left_bol",
    "right_bol",
    "moufang",
    "associative",
    "commutative",
    "left_power_alternative",
)


def _opposite(cells: Rows) -> Rows:
    """The table of the opposite loop (x o y = y*x): the transpose.

    Its row x is the right translation R_x, so every right-hand notion
    is the left-hand one of the opposite loop.
    """
    return tuple(zip(*cells))


class _WideRow(tuple):
    """A 0-based row of a table above order 255, too wide for bytes.

    ``r.translate(t)`` reads t at the entries of r, as ``bytes.translate``
    does, through an itemgetter built per call, which takes next to no
    time (``_composer`` builds it once for a row composed with many
    tables).  The result is a plain tuple, which compares equal to a row and
    serves as a table, but has no ``translate`` of its own: no kernel user
    translates a result again.
    """

    __slots__ = ()

    def translate(self, table: Sequence[int]) -> tuple[int, ...]:
        return itemgetter(*self[:])(table)  # a plain tuple unpacks faster than a subclass


KRow = bytes | _WideRow  # a kernel row: 0-based values, composed by ``translate``
Kernel = tuple[list[KRow], list[Sequence[int]]]  # (rows, tabs), see ``_kernel``
_PREDECESSOR = bytes(1) + bytes(range(255))  # v -> v - 1, as a translation table
_IDENTITY = bytes(range(256))


def _kernel(cells: Sequence[Sequence[int]]) -> Kernel:
    """The row-composition kernel of a list of rows: ``(rows, tabs)``.

    ``rows[x]`` is row x + 1 of ``cells`` with 0-based values, and
    ``rows[x].translate(tabs[y])`` is the row of L_y L_x (apply L_x
    first).  ``cells`` may be any list of rows of equal length n with
    values in 1..n, such as the one row of a permutation.  For n <= 255
    the rows are slices of one flat ``bytes`` (``_encode``) and the tables
    the rows padded to 256 bytes, so a composition is one
    ``bytes.translate``; above that the rows are ``_WideRow`` tuples,
    which serve as their own tables, their values shared int objects.
    """
    n = len(cells[0])
    if n <= 255:
        flat = _encode(cells)
        rows: list[KRow] = [flat[i : i + n] for i in range(0, len(flat), n)]
    else:
        rows = _wide_rows(cells)
    return rows, _tables(rows)


def _kernel_rows(cells: Rows) -> tuple[list[KRow], list[KRow]]:
    """The kernel rows of a table and of its opposite loop, from one encoding.

    Up to order 255 the table is encoded once as a flat row-major
    ``bytes`` of 0-based values: row x of the table is the slice
    ``flat[x*n:(x+1)*n]`` and row y of the opposite, the column of y, is
    ``flat[y::n]``.  Above that the opposite's rows are the columns of the
    table's ``_WideRow`` rows, which share their int objects.  ``_tables``
    gives either side its tables, so a caller pays for the tables of a
    side only when it composes on that side.
    """
    n = len(cells)
    if n <= 255:
        flat = _encode(cells)
        return [flat[i : i + n] for i in range(0, n * n, n)], [flat[j::n] for j in range(n)]
    rows = _wide_rows(cells)
    return rows, [_WideRow(col) for col in zip(*rows)]


def _tables(rows: list[KRow]) -> list[Sequence[int]]:
    """The translation tables of kernel rows: a byte row padded to 256
    bytes, and a ``_WideRow`` itself."""
    if isinstance(rows[0], bytes):
        return [row.ljust(256, bytes(1)) for row in rows]
    return rows


def _encode(cells: Sequence[Sequence[int]]) -> bytes:
    """The rows of ``cells``, of values 1..255, as one flat ``bytes`` of 0-based values."""
    return b"".join(map(bytes, cells)).translate(_PREDECESSOR)


def _wide_rows(cells: Sequence[Sequence[int]]) -> list[KRow]:
    shift = tuple(range(-1, len(cells[0])))  # v -> v - 1
    return [_WideRow(itemgetter(*row)(shift)) for row in cells]


def _left_bol_at(rows: list[KRow], tabs: list[Sequence[int]], x: int) -> bool:
    """L_x L_y L_x = L_{x*(y*x)} for every y (x 0-based), read as
    L_y L_x = L_x^-1 L_{x*(y*x)}: two compositions per y, and neither
    result is composed again."""
    rx = rows[x]
    compose, undo = _composer(rx), _inverse_table(rx)
    for ty, ry in zip(tabs, rows):
        if compose(ty) != rows[rx[ry[x]]].translate(undo):
            return False
    return True


def _composer(row: KRow) -> Callable[[Sequence[int]], Sequence[int]]:
    """``row.translate`` as one callable, for a row composed with many
    tables: a ``_WideRow``'s itemgetter is built once, not per table."""
    return row.translate if isinstance(row, bytes) else itemgetter(*row[:])


def _inverse_table(row: KRow) -> Sequence[int]:
    """The translation table of the inverse of a kernel row, a permutation
    of 0..n-1: it sends row[i] to i."""
    if isinstance(row, bytes):
        return bytes.maketrans(row, _IDENTITY[: len(row)])
    return tuple(sorted(range(len(row)), key=row.__getitem__))


def _left_bol(rows: list[KRow], tabs: list[Sequence[int]], seed: ElementSet) -> bool:
    """L_x L_y L_x = L_{x*(y*x)} for all x, y, decided by closure.

    ``rows, tabs`` is the ``_kernel`` of a table.  ``seed`` is a subloop
    (1-based) inside N_lambda & N_mu of its loop.  The elements x that
    pass for every y form a set S, which holds the seed, x*m for x in S
    and m in the seed (module docstring), and x*(w*x) for x, w in S
    (``oracle`` module docstring).  So S is a union of right cosets of
    the seed.  Elements are tested in index order, skipping members; a
    passing element starts a frontier, and each element popped from it
    that is not yet a member adds its right coset, becomes the coset's
    representative, and pushes its Bol-map images a*(b*a) and b*(a*b)
    with every representative b so far, the identity first.  The first
    failing element ends the check.  Elements are 0-based here.
    """
    base = [m - 1 for m in seed]
    members = set(base)
    reps = [0]  # one member per right coset of the seed in members, the identity first
    for x in range(len(rows)):
        if x in members:
            continue
        if not _left_bol_at(rows, tabs, x):
            return False
        frontier = [x]
        while frontier:
            a = frontier.pop()
            if a in members:
                continue
            ra = rows[a]
            members.update([ra[m] for m in base])  # a*m for m in the seed
            reps.append(a)
            for b in reps:
                rb = rows[b]
                frontier += (ra[rb[a]], rb[ra[b]])  # a*(b*a), b*(a*b)
    return True


def _power_alternative(rows: list[KRow], tabs: list[Sequence[int]]) -> bool:
    """L_x^k = L_{x^k} for 0 <= k <= order(x), for every x.

    By induction: L_{x^k} then L_x is L_{x*x^k}, walking the cycle x^0 = 1,
    x, ..., x^(m-1) of L_x.  When x passes, x^i*x^j = x^(i+j mod m): its
    powers form a cyclic group, so x has order m, and every power y = x^j
    passes too (L_y^k = L_x^(jk) = L_{y^k}), so it is not walked again.
    """
    walked = [False] * len(rows)
    for x, (rx, tx) in enumerate(zip(rows, tabs)):
        if walked[x]:
            continue
        p = 0
        while True:
            xp = rx[p]
            if rows[p].translate(tx) != rows[xp]:
                return False
            walked[p] = True
            if xp == 0:
                break
            p = xp
    return True


def check_identity(Q: LoopTable, which: str) -> bool:
    """Whether Q satisfies the identity named ``which``, one of ``IDENTITY_NAMES``
    (BadParams for any other name).

    left_bol:  x(y*xz) = (x*yx)z
    right_bol: ((zx)y)x = z((xy)x)
    moufang:   x(y*xz) = (xy*x)z
    left_power_alternative: L_x^m = L_{x^m} for 0 <= m <= order(x)

    The flag is read from ``_predicates``, the one code path that decides
    every identity flag, so this costs a whole predicate pass: a caller
    that needs more than one flag should call ``_predicates`` once.
    """
    if which not in IDENTITY_NAMES:
        raise BadParams(f"unknown identity {which!r}")
    return _predicates(Q).flags[which]


def commutant(Q: LoopTable) -> ElementSet:
    """Elements c with L_c = R_c, i.e. commuting with everything."""
    return _commutant(Q.cells, _opposite(Q.cells))


def _commutant(rows: Sequence[Sequence[int]], op_rows: Sequence[Sequence[int]]) -> ElementSet:
    """The c whose row equals its row in the opposite table, as 1-based elements."""
    return tuple(c + 1 for c in range(len(rows)) if rows[c] == op_rows[c])


@dataclass(frozen=True)
class Nuclei:
    left: ElementSet
    middle: ElementSet
    right: ElementSet
    nucleus: ElementSet
    center: ElementSet


# refute(a, w): an x at which element a (0-based) breaks the identity that
# defines a subloop, trying x = w first, or None when a satisfies it
Refuter = Callable[[int, int], int | None]


def _subloop_where(Q: LoopTable, refute: Refuter, seed: ElementSet = (1,)) -> ElementSet:
    """The elements a that ``refute(a - 1, w)`` does not refute, given that
    they form a subloop N and that ``seed``, a subloop of Q, lies in N.

    The span of the seed and the members found so far lies in N, so an
    element of the span is a member without a test; a member found
    outside it grows the span to the subloop both generate.  The closure
    goes on from the closed span, whose products are all known, so only
    products that involve an element new to the span are formed.  On a
    group this tests at most log2(n) members.  When a fails, no a*h with
    h in the span is tested either: it is not in N, because a = (a*h)/h
    would be.

    The witness x that refuted the last failing element is tried first on
    the next one: an x that breaks the identity for one element outside N
    tends to break it for the others.  On ``order4n:128`` the right
    nucleus scan tests 255 elements with 34,044 row compositions when x runs
    in index order, and with 1,920 this way.  A pass at the witness
    proves nothing, so the test then runs over every x.
    """
    cells = Q.cells
    span = set(seed)
    known = [h for h in seed if h != 1]  # the seed is closed
    decided = set(seed)
    w = 0
    for a in range(2, Q.order + 1):
        if a in decided:
            continue
        x = refute(a - 1, w)
        if x is None:
            span.add(a)
            _close(cells, span, known, [a])
            decided |= span
        else:
            w = x
            row = cells[a - 1]
            decided.update(row[h - 1] for h in span)
    return tuple(sorted(span))


def _left_refuter(rows: list[KRow], tabs: list[Sequence[int]]) -> Refuter:
    """Refutes a outside the left nucleus, (ax)y = a(xy): L_x then L_a is
    L_{a*x} for every x.  ``rows, tabs`` is the ``_kernel`` of a table.

    The table is Q's or its opposite's, whose left nucleus is Q's right
    nucleus; either way the members form a subloop of Q.
    """

    def refute(a: int, w: int) -> int | None:
        ra, ta = rows[a], tabs[a]
        if rows[w].translate(ta) != rows[ra[w]]:
            return w
        for x, rx in enumerate(rows):
            if rx.translate(ta) != rows[ra[x]]:
                return x
        return None

    return refute


def _middle_refuter(rows: list[KRow], tabs: list[Sequence[int]]) -> Refuter:
    """Refutes a outside the middle nucleus, (xa)y = x(ay): L_a then L_x is
    L_{x*a} for every x.  ``rows, tabs`` is the ``_kernel`` of a table."""

    def refute(a: int, w: int) -> int | None:
        ra = rows[a]
        compose = _composer(ra)
        if compose(tabs[w]) != rows[rows[w][a]]:
            return w
        for x, (rx, tx) in enumerate(zip(rows, tabs)):
            if compose(tx) != rows[rx[a]]:
                return x
        return None

    return refute


class _Predicates(NamedTuple):
    commutant: ElementSet
    nuclei: Nuclei
    flags: dict[str, bool]  # each name of IDENTITY_NAMES -> whether Q satisfies it


def _predicates(Q: LoopTable) -> _Predicates:
    """The commutant, the nuclei and the identity flags of Q in one pass.

    The kernel rows of Q and of its opposite come from one encoding of the
    table (``_kernel_rows``) and are shared by every scan; the commutant is
    read off them, as the c whose rows agree, and the opposite's tables
    are built only for a loop that is not a group.  Q is associative iff
    its middle nucleus is all of Q, and then every flag but
    ``commutative`` holds and every nucleus is Q.  Otherwise:

    - LM = N_lambda & N_mu is a subloop found by closure in which only
      elements of N_mu get the left-nucleus test, and the center is
      C & LM (C the commutant; module docstring);
    - left Bol is a closure (``_left_bol``) seeded with LM, and right Bol
      the closure on the opposite table seeded with the center, which is
      also the center of the opposite loop.  The seed matters: in
      Z2 x q9_0, x*(w*x) = w for 7/8 of the pairs, and the closure seeded
      with {1} alone needs 21 to 26 tests over six relabelings, against 7
      with the center; on ``order4n:n``, where LM is larger than the
      center, 3 tests against 7 to 9.  Over the 88 tables of the perfbench ``analyze`` workload
      (seed 1) the reports make 33,675 row compositions, and 40,608 with both
      closures seeded with the center.  Seeding right Bol with
      N_rho & N_mu as well makes 36,063: that scan costs more than it
      saves;
    - a left Bol loop has N_lambda = N_mu and a right Bol loop N_rho = N_mu
      (module docstring), so the left or right nucleus is scanned only
      when that Bol flag fails, from the seed LM or the center;
    - a loop is Moufang iff it is left and right Bol (Robinson, 1966),
      and a left Bol loop is left power alternative (``oracle`` module
      docstring), so the cycle walk runs only on a loop that is not left
      Bol.
    """
    n = Q.order
    rows, op_rows = _kernel_rows(Q.cells)
    com = _commutant(rows, op_rows)
    commutative = len(com) == n
    tabs = _tables(rows)
    middle = _subloop_where(Q, _middle_refuter(rows, tabs))
    if len(middle) == n:
        nuc = Nuclei(middle, middle, middle, middle, com)
        flags = dict.fromkeys(IDENTITY_NAMES, True)
        flags["commutative"] = commutative
        return _Predicates(com, nuc, flags)
    refute_left = _left_refuter(rows, tabs)
    # an element outside N_mu is refuted untested, keeping the witness
    in_middle = set(middle)
    lm = _subloop_where(Q, lambda a, w: refute_left(a, w) if a + 1 in in_middle else w)
    center = tuple(sorted(set(com).intersection(lm)))
    op_tabs = _tables(op_rows)
    left_bol = _left_bol(rows, tabs, lm)
    right_bol = _left_bol(op_rows, op_tabs, center)
    left = middle if left_bol else _subloop_where(Q, refute_left, lm)
    right = middle if right_bol else _subloop_where(Q, _left_refuter(op_rows, op_tabs), center)
    nucleus = tuple(sorted(set(left) & set(middle) & set(right)))
    flags = {
        "left_bol": left_bol,
        "right_bol": right_bol,
        "moufang": left_bol and right_bol,
        "associative": False,
        "commutative": commutative,
        "left_power_alternative": left_bol or _power_alternative(rows, tabs),
    }
    return _Predicates(com, Nuclei(left, middle, right, nucleus, center), flags)


def nuclei(Q: LoopTable) -> Nuclei:
    """Left/middle/right nuclei, their intersection, and the center.

    Read from ``_predicates``, which finds each nucleus by closure
    (``_subloop_where``) and scans the left or right nucleus only when Q
    is not left or right Bol.  A caller that also needs the commutant or
    an identity flag should call ``_predicates`` once instead.
    """
    return _predicates(Q).nuclei


def commutant_prime_part(Q: LoopTable, m: int) -> ElementSet:
    """Commutant elements whose order is relatively prime to m; BadParams unless m > 1."""
    if m <= 1:
        raise BadParams("m must exceed 1")
    return _prime_part(Q, commutant(Q), m)


def _prime_part(Q: LoopTable, com: ElementSet, m: int) -> ElementSet:
    """The elements of ``com``, Q's commutant, whose order is relatively prime to m."""
    return tuple(c for c in com if math.gcd(element_order(Q, c), m) == 1)


def generated_subloop(Q: LoopTable, S: ElementSet) -> ElementSet:
    """Least subset containing S and 1, closed under * and both divisions.

    Only products are closed over: in a finite loop a subset H that
    contains 1 and is closed under * is closed under both divisions too,
    because L_a and R_a (a in H) restrict to injections of the finite set
    H into itself, hence to bijections of H.  Each element taken from the
    frontier is multiplied once on each side by every element known so
    far, itself included, so every product of two members is formed once.

    Raises BadParams for an element of S that is not an int in 1..|Q|.
    """
    n = Q.order
    members = {1}
    frontier = []
    for s in S:
        if type(s) is not int or not 1 <= s <= n:
            raise BadParams(f"element {s!r} is not in 1..{n}")
        if s not in members:
            members.add(s)
            frontier.append(s)
    _close(Q.cells, members, [], frontier)
    return tuple(sorted(members))


def _close(cells: Rows, members: set[int], known: list[int], frontier: list[int]) -> None:
    """Add to ``members`` every product of members, in place.

    ``known`` lists the members other than 1 already multiplied out with
    each other and ``frontier`` the members not yet multiplied out; every
    member is in one of them or is 1.  Returns as soon as ``members`` is
    all of the loop, with products possibly left unformed.
    """
    n = len(cells)
    while frontier:
        a = frontier.pop()
        known.append(a)
        ra = cells[a - 1]
        col = a - 1
        for b in known:
            v = ra[b - 1]
            if v not in members:
                members.add(v)
                frontier.append(v)
            v = cells[b - 1][col]
            if v not in members:
                members.add(v)
                frontier.append(v)
        if len(members) == n:
            return


def is_subloop(Q: LoopTable, S: ElementSet) -> bool:
    """Whether S is a subloop of Q; BadParams as in ``generated_subloop``."""
    return generated_subloop(Q, S) == tuple(sorted(set(S)))


def right_regular_is_homomorphism(Q: LoopTable, S: ElementSet) -> bool:
    """Whether R_{s*t} = R_s R_t (apply R_s first) for all s, t in S.

    The rows of the opposite table are the right translations, so this is
    the row-composition kernel on the opposite loop.
    """
    if not is_subloop(Q, S):
        raise NotSubloop(f"{S} is not a subloop")
    _, rows = _kernel_rows(Q.cells)
    tabs = _tables(rows)
    return all(rows[s - 1].translate(tabs[t - 1]) == rows[mul(Q, s, t) - 1] for s in S for t in S)


def involution_count(Q: LoopTable) -> int:
    return sum(1 for a in range(2, Q.order + 1) if mul(Q, a, a) == 1)


def generating_sequence(Q: LoopTable) -> tuple[int, ...]:
    """Small generating sequence, chosen greedily by subloop growth."""
    gens: list[int] = []
    span: ElementSet = (1,)
    while len(span) < Q.order:
        best, best_span = None, span
        for x in Q.elements():
            if x in span:
                continue
            trial = generated_subloop(Q, tuple(gens) + (x,))
            if len(trial) > len(best_span):
                best, best_span = x, trial
                if len(trial) == Q.order:
                    break
        assert best is not None
        gens.append(best)
        span = best_span
    return tuple(gens)


def subloop_table(Q: LoopTable, S: ElementSet) -> LoopTable:
    """Restriction of the table to a subloop, relabeled to 1..|S|."""
    if not is_subloop(Q, S):
        raise NotSubloop(f"{S} is not a subloop")
    order = sorted(S)
    index = {e: i + 1 for i, e in enumerate(order)}
    cells = [[index[mul(Q, a, b)] for b in order] for a in order]
    tag = f"{Q.name}|{len(S)}" if Q.name else None
    return LoopTable.from_cells(cells, name=tag)


def _fmt_set(S: ElementSet) -> str:
    return "{" + ",".join(str(x) for x in S) + "}"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def structure_report(Q: LoopTable) -> str:
    """Line-oriented report with fixed key order, stable under diffing."""
    com, nuc, flags = _predicates(Q)
    lines = [
        f"name: {Q.name or '-'}",
        f"order: {Q.order}",
    ]
    for ident in IDENTITY_NAMES:
        lines.append(f"{ident}: {_fmt_bool(flags[ident])}")
    lines.extend(
        [
            f"commutant: {_fmt_set(com)}",
            f"commutant_size: {len(com)}",
            f"commutant_is_subloop: {_fmt_bool(is_subloop(Q, com))}",
            f"commutant_in_rnuc: {_fmt_bool(set(com) <= set(nuc.right))}",
            f"lnuc: {_fmt_set(nuc.left)}",
            f"mnuc: {_fmt_set(nuc.middle)}",
            f"rnuc: {_fmt_set(nuc.right)}",
            f"nucleus: {_fmt_set(nuc.nucleus)}",
            f"center: {_fmt_set(nuc.center)}",
            f"involutions: {involution_count(Q)}",
        ]
    )
    return "\n".join(lines) + "\n"
