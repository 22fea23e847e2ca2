"""Right-additive cocycles over elementary abelian 2-groups.

Vectors of (Z_2)^n are int bitmasks 0..2^n-1; bit i is the coefficient of
the basis vector e_{i+1}.  A CMap holds c(e, e_i) for every vector e and
basis column i; its associated cocycle extends it right-additively, so
f(a, b) is the GF(2) dot product of row a, read as a bitmask, with b.

An associated cocycle is an ``extensions.Cocycle`` from E = (Z_2)^n to
K = Z_2: the vector a is element a + 1 of E, and the bit v of f(a, b) is
element v + 1 of K, so its values are the elements 1 and 2 of Z_2.  Its
loop is the extension Q(Z_2, (Z_2)^n, 1, f), which
``extensions.build_extension`` builds from the trivial tau and f alone;
``extensions.bol_conditions`` decides whether that loop is left Bol.
Pairs (u, a) with u in Z_2 and a in (Z_2)^n are multiplied by
(u,a)(v,b) = (u+v+f(a,b), a+b) and encoded as

    idx(u, a) = 1 + u + 2*a        (a as bitmask)

The nine-parameter order-16 family and the one exceptional order-16 loop
that no such extension produces are both constructed here with fixed
encodings, so their tables are byte-reproducible.  The family does not
take the general route above: row idx(u, a) of a family table depends
only on u, a and the mask m_a of CMap row a, so its 512 tables share at
most 2*8*8 = 128 row objects, each built once per ``enumerate_q9`` call.
``associated_cocycle`` and ``cocycle_loop`` stay the general route, and
the tests compare every family table against it.

The family is closed under the coboundaries of quadratic sections, which
``classify_q9`` uses to classify it on 64 tables instead of 512.  Let B
be an alternating form on (Z_2)^3 (B(a, a) = 0, so B is symmetric),
given by its three bits B12, B13, B23, and let

    h(a) = B12 a1 a2 + B13 a1 a3 + B23 a2 a3.

Expanding h(a+b) gives h(a) + h(b) + h(a+b) = B(a, b): the coboundary of
h is B.  So phi(u, a) = (u + h(a), a) is an isomorphism from the loop of
f onto the loop of f + B, since

    phi((u,a)(v,b)) = (u+v+f(a,b)+h(a+b), a+b) = phi(u,a) phi(v,b)

when products on the right use f + B.  On labels, phi sends
1 + u + 2*a to 1 + (u ^ h(a)) + 2*a, and it is its own inverse.  f + B is
right-additive again, with c'(e, e_i) = c(e, e_i) + B(e, e_i), and it
meets the family's constraints: B is symmetric, so columns 1 and 2 still
agree with rows e1 and e2, and B(e1+e2, e3) = B(e1, e3) + B(e2, e3), so the
forced slot c(e1+e2, e3) still differs from c(e1, e3) + c(e2, e3).  Adding
B to q9_cmap(b1, ..., b9) flips b2 by B12, b4 and b7 by B13, b5 and b8 by
B23, and b9 by B13 + B23.  With the index read as binary, b1 most
significant, as ``enumerate_q9`` orders it, member i goes to member
i ^ mask, where the mask of B is the XOR of 128 (B12), 37 (B13) and 19
(B23).  The eight masks split the 512 indices into 64 cosets of eight
isomorphic members each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BadParams
from .extensions import Cocycle, build_extension, cyclic_group, elem_abelian_2, trivial_tau
from .iso import IsoClass, classify
from .loop_core import LoopTable, Permutation, compose


@dataclass(frozen=True)
class CMap:
    """Values c(e, e_i) with c(0, e_i) = 0."""

    dim: int
    values: tuple[tuple[int, ...], ...]  # (2^dim) rows x dim columns over {0,1}

    def __post_init__(self) -> None:
        size = 1 << self.dim
        if len(self.values) != size or any(len(r) != self.dim for r in self.values):
            raise BadParams("CMap must be 2^n x n")
        if any(type(v) is not int or v not in (0, 1) for row in self.values for v in row):
            raise BadParams("CMap entries must be the ints 0 and 1")
        if any(v != 0 for v in self.values[0]):
            raise BadParams("c(0, e_i) must vanish")


def _mask(row: list[int] | tuple[int, ...]) -> int:
    """A row of bits as a bitmask: bit i is row[i]."""
    return sum(bit << i for i, bit in enumerate(row))


def _dot(mask: int, e: int) -> int:
    """The GF(2) dot product of two bitmasks."""
    return (mask & e).bit_count() & 1


def associated_cocycle(c: CMap) -> Cocycle:
    """The unique right-additive cocycle restricting to c on basis columns."""
    size = 1 << c.dim
    masks = [_mask(row) for row in c.values]
    rows = tuple(tuple(_dot(m, b) + 1 for b in range(size)) for m in masks)
    return Cocycle(elem_abelian_2(c.dim), cyclic_group(2), rows)


def cocycle_loop(f: Cocycle, name: str | None = None) -> LoopTable:
    """The table of Q(K, E, 1, f): (u,a)(v,b) = (u+v+f(a,b), a+b) for K = Z_2."""
    return build_extension(trivial_tau(f.K, f.E), f, name=name)


def q9_cmap(bits: tuple[int, ...]) -> CMap:
    """The constrained dim-3 CMap with the nine free bits filled in.

    Free slots: row e1 = (b1, b2, b4); row e2 columns 2,3 = (b3, b5); the
    third column of rows e3, e1+e3, e2+e3, e1+e2+e3 = (b6, b7, b8, b9).
    Determined slots: column 1 from symmetry against row e1, column 2 from
    symmetry against row e2, and c(e1+e2, e3) forced to break additivity.
    """
    if len(bits) != 9 or any(type(b) is not int or b not in (0, 1) for b in bits):
        raise BadParams("expected nine bits, each the int 0 or 1")
    b1, b2, b3, b4, b5, b6, b7, b8, b9 = bits
    c = [[0, 0, 0] for _ in range(8)]
    c[1] = [b1, b2, b4]  # row e1
    c[2][1], c[2][2] = b3, b5  # row e2
    c[4][2] = b6  # row e3
    c[5][2] = b7  # row e1+e3
    c[6][2] = b8  # row e2+e3
    c[7][2] = b9  # row e1+e2+e3
    row1 = _mask(c[1])
    for e in range(8):  # column 1: c(e, e1) = sum over support of c(e1, e_i)
        c[e][0] = _dot(row1, e)
    # column 2 likewise against row e2, masked only now: its column-1 cell
    # c(e2, e1) = b2 comes from the loop above
    row2 = _mask(c[2])
    for e in range(8):
        c[e][1] = _dot(row2, e)
    c[3][2] = c[1][2] ^ c[2][2] ^ 1  # forced inequality at (e1+e2, e3)
    return CMap(3, tuple(tuple(r) for r in c))


def _q9_loop(
    bits: tuple[int, ...], rows: dict[tuple[int, int], tuple[tuple[int, ...], ...]]
) -> LoopTable:
    """The table of Q(Z_2, (Z_2)^3, 1, f) for f = associated_cocycle(q9_cmap(bits)).

    Row idx(u, a) holds 1 + (u ^ v ^ f(a, b)) + 2*(a ^ b) at column
    idx(v, b), and f(a, b) is the dot product of the mask m_a of CMap row
    a with b, so the rows idx(0, a) and idx(1, a) depend only on (a, m_a).
    They are read from ``rows`` under that key, or built and stored there.
    """
    cells: list[tuple[int, ...]] = []
    for a, crow in enumerate(q9_cmap(bits).values):
        m = _mask(crow)
        pair = rows.get((a, m))
        if pair is None:
            pair = rows[a, m] = tuple(
                tuple(1 + (u ^ v ^ _dot(m, b)) + 2 * (a ^ b) for b in range(8) for v in (0, 1))
                for u in (0, 1)
            )
        cells += pair
    return LoopTable.from_cells(cells, name="q9_" + "".join(map(str, bits)))


def build_q9(bits: tuple[int, ...]) -> LoopTable:
    """Order-16 left Bol loop from the nine-bit parameter tuple."""
    return _q9_loop(tuple(bits), {})


def enumerate_q9() -> list[LoopTable]:
    """All 512 parameter tuples in lexicographic order.

    The tables share their rows: each distinct row is built once per call.
    """
    rows: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
    return [_q9_loop(bits, rows) for bits in itertools.product((0, 1), repeat=9)]


def q9_relabelings() -> list[tuple[int, Permutation]]:
    """(mask, phi) for the eight alternating forms B on (Z_2)^3.

    phi is the isomorphism from member i of ``enumerate_q9`` onto member
    i ^ mask (see the module docstring): label 1 + u + 2*a goes to
    1 + (u ^ h(a)) + 2*a.  The zero form comes first, with the identity.
    """
    out = []
    for b12, b13, b23 in itertools.product((0, 1), repeat=3):
        # B12 flips b2; B13 flips b4, b7, b9; B23 flips b5, b8, b9
        mask = 128 * b12 ^ 37 * b13 ^ 19 * b23
        h = [
            b12 & a1 & a2 ^ b13 & a1 & a3 ^ b23 & a2 & a3
            for a3, a2, a1 in itertools.product((0, 1), repeat=3)  # a = a1 + 2*a2 + 4*a3
        ]
        out.append((mask, tuple(1 + (x ^ h[x >> 1]) for x in range(16))))
    return out


def classify_q9(loops: list[LoopTable]) -> list[IsoClass]:
    """``classify(loops)`` for the 512 tables of ``enumerate_q9``, in its order.

    ``classify`` runs only on the least member of each of the 64 cosets
    i ^ mask, in index order.  Every class is a union of cosets, and its
    first member is a coset minimum, so the classes, their order and their
    representatives are those of ``classify(loops)``.  Each member's map
    relabels it onto its coset minimum by phi, then sends that minimum onto
    the representative by its ``classify`` map; ``is_isomorphism`` checks
    such a map as it checks any other.  On the family these are also the
    lexicographically least maps that ``classify(loops)`` keeps; a test
    compares the two outputs field by field.
    """
    if len(loops) != 512:
        raise BadParams("expected the 512 tables of enumerate_q9")
    relabelings = q9_relabelings()
    minima = sorted({min(i ^ mask for mask, _ in relabelings) for i in range(512)})
    classes = []
    for cls in classify([loops[m] for m in minima]):
        maps = {}
        for k, p in zip(cls.members, cls.maps, strict=True):
            m = minima[k]
            for mask, phi in relabelings:
                maps[m ^ mask] = compose(phi, p)
        members = sorted(maps)
        classes.append(
            IsoClass(minima[cls.representative], tuple(members), tuple(maps[i] for i in members))
        )
    return classes


def build_exceptional() -> LoopTable:
    """The one order-16 left Bol loop with non-subloop commutant that no
    left-nuclear extension produces.

    K and E are elementary abelian of order 4 (masks 0..3, k1 = 1, k2 = 2);
    pairs multiply by (u,a)(v,b) = (psi_{a,b}(u)+v, a+b) where
    psi_{0,e2} = psi_{0,e1+e2} maps k1 -> k1, k2 -> k1+k2, and
    psi_{e1,e2} = psi_{e1,e1+e2} maps k1 -> k1+k2, k2 -> k2; all other
    psi_{a,b} are the identity.  Encoding: idx(u, a) = 1 + u + 4*a.
    """
    ident = (0, 1, 2, 3)
    alpha = (0, 1, 3, 2)  # k1 -> k1, k2 -> k1k2
    beta = (0, 3, 2, 1)  # k1 -> k1k2, k2 -> k2
    e1, e2, e12 = 1, 2, 3
    psi = {(a, b): ident for a in range(4) for b in range(4)}
    psi[(0, e2)] = psi[(0, e12)] = alpha
    psi[(e1, e2)] = psi[(e1, e12)] = beta
    cells = [[0] * 16 for _ in range(16)]
    for a in range(4):
        for u in range(4):
            row = cells[u + 4 * a]
            for b in range(4):
                pu = psi[(a, b)][u]
                ab = a ^ b
                for v in range(4):
                    row[v + 4 * b] = 1 + (pu ^ v) + 4 * ab
    return LoopTable.from_cells(cells, name="exceptional16")


def count_constrained_cmaps() -> int:
    """Exhaustively count dim-3 CMaps satisfying the family constraints.

    Row-by-row DFS with early pruning; the count must come out to 2^9.
    """
    n = 3
    size = 1 << n
    count = 0
    rows = [0] * size  # row e as a bitmask: bit i is c(e, e_{i+1})

    def row_ok(e: int, row: int) -> bool:
        # constraints referencing rows e1/e2 only apply once those are placed;
        # at e == 1 and e == 2 the skipped checks are tautologies anyway
        if e >= 2 and row & 1 != _dot(rows[1], e):  # column 1 against row e1
            return False
        if e >= 3 and row >> 1 & 1 != _dot(rows[2], e):  # column 2 against row e2
            return False
        if e == 3 and row >> 2 & 1 != ((rows[1] ^ rows[2]) >> 2 & 1) ^ 1:
            return False
        return True

    def rec(e: int) -> None:
        nonlocal count
        if e == size:
            count += 1
            return
        for row in range(size):
            if row_ok(e, row):
                rows[e] = row
                rec(e + 1)

    rec(1)
    return count


def free_parameter_count(n: int) -> int:
    """The family's free-bit count formula for dimension n."""
    return ((1 << n) - 4) * (n - 2) + 3 * n - 4
