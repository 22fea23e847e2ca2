"""Reference oracles for the tests, each written from its definition.

Standard library only, and nothing from ``bolkit``: a check built here
shares no code with the code it checks.  A table is a sequence of rows
of 1-based elements with ``rows[a - 1][b - 1]`` the product a*b and 1
the identity, as in a ``LoopTable``'s ``cells``.  Every oracle reads the
products it needs one at a time, by plain indexing.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterable, Sequence
from typing import NamedTuple

Rows = Sequence[Sequence[int]]
Table = tuple[tuple[int, ...], ...]


def _zero_based(rows: Rows) -> list[list[int]]:
    """c[a][b] = a*b on 0..n-1, 0 the identity."""
    return [[v - 1 for v in row] for row in rows]


# relabeling -----------------------------------------------------------------


def relabel(rows: Rows, p: Sequence[int]) -> Table:
    """The table in which p(a)p(b) = p(ab); p[x - 1] is the new name of x."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[p[a] - 1][p[b] - 1] = p[rows[a][b] - 1]
    return tuple(map(tuple, out))


def fixing_one(n: int, rng: random.Random) -> tuple[int, ...]:
    """A permutation of 1..n that fixes 1; rng shuffles 2..n."""
    rest = list(range(2, n + 1))
    rng.shuffle(rest)
    return (1, *rest)


def shuffled(rows: Rows, rng: random.Random) -> Table:
    """The table relabeled by ``fixing_one(n, rng)``."""
    return relabel(rows, fixing_one(len(rows), rng))


def opposite(rows: Rows) -> Table:
    """The table of x o y = y*x."""
    n = len(rows)
    return tuple(tuple(rows[b][a] for b in range(n)) for a in range(n))


# the .tbl format ----------------------------------------------------------------


class TableError(Exception):
    """A text that is not a loop table.  ``kind`` says why: "malformed",
    "too-large", "not-latin" or "no-identity"."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def _ints(tokens: Sequence[str]) -> list[int]:
    joined = "".join(tokens)
    if not (joined.isascii() and joined.isdigit()):
        raise ValueError(joined)
    return [int(t) for t in tokens]


def parse_table(text: str, name: str | None, max_order: int) -> tuple[int, Table, str | None]:
    """The order, rows and name of the ``.tbl`` text, decoded the plain way.

    A line loop skips '#' lines; every token must be ASCII digits before
    ``int`` reads it; the Latin checks are frozensets on the rows then the
    columns, and the range of the entries is checked only after a Latin
    failure.  A two-sided identity e other than 1 is renamed 1, the
    elements below it moved up by one, and the name notes the renaming.
    Raises ``TableError``.
    """
    tokens = []
    for line in text.splitlines():
        if not line.lstrip().startswith("#"):
            tokens.extend(line.split())
    if not tokens:
        raise TableError("malformed", "no tokens")
    try:
        [n] = _ints(tokens[:1])
    except ValueError:
        raise TableError("malformed", f"order token {tokens[0]!r} is not a decimal integer") from None
    if n < 1:
        raise TableError("malformed", f"order {n} must be positive")
    if n > max_order:
        raise TableError("too-large", f"order {n} exceeds supported maximum {max_order}")
    body = tokens[1:]
    if len(body) != n * n:
        raise TableError("malformed", f"expected {n * n} entries, got {len(body)}")
    try:
        entries = _ints(body)
    except ValueError:
        raise TableError("malformed", "table entries must be decimal integers") from None
    rows = [entries[i : i + n] for i in range(0, n * n, n)]
    full = frozenset(range(1, n + 1))
    latin = None
    if any(frozenset(row) != full for row in rows):
        latin = "a row repeats a value"
    elif any(frozenset(col) != full for col in zip(*rows)):
        latin = "a column repeats a value"
    if latin:
        for v in entries:
            if not 1 <= v <= n:
                raise TableError("malformed", f"entry {v} out of range 1..{n}")
        raise TableError("not-latin", latin)
    identities = [
        e for e in range(1, n + 1) if all(rows[e - 1][x - 1] == x == rows[x - 1][e - 1] for x in range(1, n + 1))
    ]
    if not identities:
        raise TableError("no-identity", "no two-sided identity element")
    e = identities[0]
    if e != 1:
        rows = relabel(rows, [1 if x == e else x + 1 if x < e else x for x in range(1, n + 1)])
        note = f"relabeled identity {e}->1"
        name = f"{name} ({note})" if name else note
    return n, tuple(map(tuple, rows)), name


# identities, nuclei, commutant ---------------------------------------------


def holds(rows: Rows, name: str) -> bool:
    """Whether the identity ``name`` holds, checked at every triple (or pair)."""
    c = _zero_based(rows)
    E = range(len(c))
    triples = itertools.product(E, E, E)
    if name == "left_bol":  # x(y(xz)) = (x(yx))z
        return all(c[x][c[y][c[x][z]]] == c[c[x][c[y][x]]][z] for x, y, z in triples)
    if name == "right_bol":  # ((zx)y)x = z((xy)x)
        return all(c[c[c[z][x]][y]][x] == c[z][c[c[x][y]][x]] for x, y, z in triples)
    if name == "moufang":  # x(y(xz)) = ((xy)x)z
        return all(c[x][c[y][c[x][z]]] == c[c[c[x][y]][x]][z] for x, y, z in triples)
    if name == "associative":
        return all(c[c[x][y]][z] == c[x][c[y][z]] for x, y, z in triples)
    if name == "commutative":
        return all(c[x][y] == c[y][x] for x in E for y in E)
    if name != "left_power_alternative":
        raise ValueError(f"unknown identity {name!r}")
    # every x has an order, and x^j z = x(x(...(xz))) with j factors x
    for x in range(1, len(c) + 1):
        if order(rows, x) is None:
            return False
        for z in E:
            w = z
            for p in [*powers(rows, x), 1]:
                if w != c[p - 1][z]:
                    return False
                w = c[x - 1][w]
    return True


def left_bol_elements(rows: Rows) -> set[int]:
    """The x with x(y(xz)) = (x(yx))z for all y, z: L_x L_y L_x = L_{x(yx)}."""
    c = _zero_based(rows)
    E = range(len(c))
    return {x + 1 for x in E if all(c[x][c[y][c[x][z]]] == c[c[x][c[y][x]]][z] for y in E for z in E)}


class Nuclei(NamedTuple):
    left: tuple[int, ...]
    middle: tuple[int, ...]
    right: tuple[int, ...]
    nucleus: tuple[int, ...]
    center: tuple[int, ...]


def nuclei(rows: Rows) -> Nuclei:
    """The left, middle and right nuclei, their meet, and the center."""
    c = _zero_based(rows)
    E = range(len(c))
    pairs = list(itertools.product(E, E))
    left = tuple(a + 1 for a in E if all(c[c[a][x]][y] == c[a][c[x][y]] for x, y in pairs))
    middle = tuple(a + 1 for a in E if all(c[c[x][a]][y] == c[x][c[a][y]] for x, y in pairs))
    right = tuple(a + 1 for a in E if all(c[c[x][y]][a] == c[x][c[y][a]] for x, y in pairs))
    nucleus = tuple(a for a in left if a in middle and a in right)
    com = commutant(rows)
    center = tuple(a for a in nucleus if a in com)
    return Nuclei(left, middle, right, nucleus, center)


def commutant(rows: Rows) -> tuple[int, ...]:
    """The elements a with ax = xa for every x."""
    n = len(rows)
    return tuple(a for a in range(1, n + 1) if all(rows[a - 1][x] == rows[x][a - 1] for x in range(n)))


# subloops --------------------------------------------------------------------


def closure(rows: Rows, S: Iterable[int]) -> tuple[int, ...]:
    r"""The least set holding S and 1 closed under a*b, a\b and b/a; divisions by search."""
    n = len(rows)
    members = {1, *S}
    while True:
        grown = set(members)
        for a in members:
            for b in members:
                grown.add(rows[a - 1][b - 1])
                grown.update(x for x in range(1, n + 1) if rows[a - 1][x - 1] == b)
                grown.update(y for y in range(1, n + 1) if rows[y - 1][a - 1] == b)
        if grown == members:
            return tuple(sorted(members))
        members = grown


def is_subloop(rows: Rows, S: Sequence[int]) -> bool:
    return closure(rows, S) == tuple(sorted(set(S)))


def right_regular_is_homomorphism(rows: Rows, S: Sequence[int]) -> bool:
    """Whether (xa)t = x(at) for all a, t in S and every x."""
    c = _zero_based(rows)
    return all(
        c[c[x][a - 1]][t - 1] == c[x][c[a - 1][t - 1]] for a in S for t in S for x in range(len(c))
    )


# powers and orders -------------------------------------------------------------


def powers(rows: Rows, a: int) -> list[int]:
    """1, a, a^2, ... with a^m = a * a^(m-1), up to the power before 1 recurs.

    The length is the period of a; L_a is a permutation, so the walk returns.
    """
    out = [1]
    while rows[a - 1][out[-1] - 1] != 1:
        out.append(rows[a - 1][out[-1] - 1])
    return out


def order(rows: Rows, a: int) -> int | None:
    """The period m of a if a^i a^j = a^(i+j mod m) for all i, j < m, else None:
    the order is defined only where the powers of a form a group."""
    p = powers(rows, a)
    m = len(p)
    if any(rows[p[i] - 1][p[j] - 1] != p[(i + j) % m] for i in range(m) for j in range(m)):
        return None
    return m


# the Section 2 commutant battery --------------------------------------------


def power_law(rows: Rows, a: int, b: int, box: tuple[int, int] = (5, 5)) -> bool:
    """(a^k b^l)(a^m b^n) = a^(k+m) b^(l+n) for k, m < box[0] and l, n < box[1]."""
    c = _zero_based(rows)
    pa, pb = [0], [0]  # 0-based a^0, a^1, ... and b^0, b^1, ...
    while len(pa) < 2 * box[0] - 1:
        pa.append(c[a - 1][pa[-1]])
    while len(pb) < 2 * box[1] - 1:
        pb.append(c[b - 1][pb[-1]])
    for k in range(box[0]):
        for l in range(box[1]):
            left = c[pa[k]][pb[l]]
            for m in range(box[0]):
                for n in range(box[1]):
                    if c[left][c[pa[m]][pb[n]]] != c[pa[k + m]][pb[l + n]]:
                        return False
    return True


def battery(rows: Rows) -> bool | None:
    """The Section 2 commutant facts, product by product.

    The power law on every ordered pair of the commutant C comes first,
    then ``other_arms``; the first arm that fails decides.  None where the
    prime parts are reached and an element of C has no order.
    """
    com = commutant(rows)
    if not all(power_law(rows, a, b) for a in com for b in com):
        return False
    return other_arms(rows)


def other_arms(rows: Rows) -> bool | None:
    """The battery after the power law, in order: the squares (c^2 in the left
    nucleus iff c in the right one, for c in C), the prime parts (the elements
    of C of order prime to 2, 4 and 6 are subloops), and the cubes,
    (xb)a^3 = (xa^3)b = x(a^3 b) and (x^3 a)b = (x^3 b)a = x^3(ab) for a, b in C.
    None where an element of C has no order."""

    def mul(x: int, y: int) -> int:
        return rows[x - 1][y - 1]

    com = commutant(rows)
    nuc = nuclei(rows)
    for x in com:
        if (mul(x, x) in nuc.left) != (x in nuc.right):
            return False
    orders = [order(rows, x) for x in com]
    if None in orders:
        return None
    for m in (2, 4, 6):
        if not is_subloop(rows, [x for x, k in zip(com, orders) if math.gcd(k, m) == 1]):
            return False
    for a in com:
        a3 = mul(a, mul(a, a))
        for b in com:
            for x in range(1, len(rows) + 1):
                if not mul(mul(x, b), a3) == mul(mul(x, a3), b) == mul(x, mul(a3, b)):
                    return False
                x3 = mul(x, mul(x, x))
                if not mul(mul(x3, a), b) == mul(mul(x3, b), a) == mul(x3, mul(a, b)):
                    return False
    return True


# isomorphisms -------------------------------------------------------------------


def isomorphisms(A: Rows, B: Rows) -> list[tuple[int, ...]]:
    """Every isomorphism A -> B as its tuple of images, in lexicographic
    order, by trying all bijections that fix 1."""
    n = len(A)
    if len(B) != n:
        return []
    return [
        img
        for img in ((1, *rest) for rest in itertools.permutations(range(2, n + 1)))
        if all(img[A[x][y] - 1] == B[img[x] - 1][img[y] - 1] for x in range(n) for y in range(n))
    ]
