"""Finite loops as explicit Cayley tables.

Elements are the integers 1..n and element 1 is always the two-sided
identity; ``cells[a-1][b-1]`` holds the product ``a*b``.  Tables are
immutable after construction and every function in this module is pure,
so everything is safe for unrestricted concurrent use.

Permutations of 1..n are plain tuples: ``p[i-1]`` is the image of ``i``.
"""

from __future__ import annotations

from typing import Iterable

from .errors import (
    Malformed,
    NoIdentity,
    NotLatin,
    NotPeriodicThroughIdentity,
    NoTwoSidedInverse,
    TooLarge,
)

MAX_ORDER = 4096

Permutation = tuple[int, ...]


class LoopTable:
    """An n x n Cayley table with the identity at index 1.

    ``name`` is descriptive metadata only; it is ignored by equality
    and hashing.
    """

    __slots__ = ("order", "cells", "name")

    def __init__(self, order: int, cells: tuple[tuple[int, ...], ...], name: str | None = None):
        self.order = order
        self.cells = cells
        self.name = name

    @classmethod
    def from_cells(cls, cells: Iterable[Iterable[int]], name: str | None = None) -> "LoopTable":
        """Validate and build a table whose identity is already element 1."""
        rows = tuple(tuple(row) for row in cells)
        n = len(rows)
        if n == 0:
            raise Malformed("empty table")
        if n > MAX_ORDER:
            raise TooLarge(f"order {n} exceeds supported maximum {MAX_ORDER}")
        for row in rows:
            if len(row) != n:
                raise Malformed("table is not square")
            for v in row:
                if not isinstance(v, int) or not 1 <= v <= n:
                    raise Malformed(f"entry {v!r} out of range 1..{n}")
        _check_latin(rows)
        full = tuple(range(1, n + 1))
        if rows[0] != full or tuple(r[0] for r in rows) != full:
            raise NoIdentity("element 1 is not a two-sided identity")
        return cls(n, rows, name)

    def elements(self) -> range:
        return range(1, self.order + 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LoopTable):
            return NotImplemented
        return self.order == other.order and self.cells == other.cells

    def __hash__(self) -> int:
        return hash((self.order, self.cells))

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<LoopTable order={self.order}{tag}>"


def _check_latin(rows: tuple[tuple[int, ...], ...]) -> None:
    n = len(rows)
    full = frozenset(range(1, n + 1))
    for row in rows:
        if frozenset(row) != full:
            raise NotLatin("a row repeats a value")
    for j in range(n):
        if frozenset(row[j] for row in rows) != full:
            raise NotLatin("a column repeats a value")


def parse_table(text: str, name: str | None = None) -> LoopTable:
    """Parse the ``.tbl`` format: '#'-comment lines, then n and n*n entries.

    If the two-sided identity is not element 1, the elements are renumbered
    so the identity becomes 1 while all other elements keep their relative
    order; the applied relabeling is recorded in the returned name.
    """
    tokens: list[str] = []
    for line in text.splitlines():
        if line.lstrip().startswith("#"):
            continue
        tokens.extend(line.split())
    if not tokens:
        raise Malformed("no tokens")
    try:
        n = int(tokens[0])
    except ValueError:
        raise Malformed(f"order token {tokens[0]!r} is not an integer") from None
    if n < 1:
        raise Malformed(f"order {n} must be positive")
    if n > MAX_ORDER:
        raise TooLarge(f"order {n} exceeds supported maximum {MAX_ORDER}")
    body = tokens[1:]
    if len(body) != n * n:
        raise Malformed(f"expected {n * n} entries, got {len(body)}")
    try:
        entries = [int(t) for t in body]
    except ValueError:
        raise Malformed("non-integer table entry") from None
    for v in entries:
        if not 1 <= v <= n:
            raise Malformed(f"entry {v} out of range 1..{n}")
    rows = tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n))
    _check_latin(rows)

    e = _find_identity(rows)
    if e is None:
        raise NoIdentity("no two-sided identity element")
    if e != 1:
        # order-preserving renumbering moving e to 1
        relabel = {x: (1 if x == e else x + 1 if x < e else x) for x in range(1, n + 1)}
        new = [[0] * n for _ in range(n)]
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                new[relabel[a] - 1][relabel[b] - 1] = relabel[rows[a - 1][b - 1]]
        rows = tuple(tuple(r) for r in new)
        note = f"relabeled identity {e}->1"
        name = f"{name} ({note})" if name else note
    return LoopTable(n, rows, name)


def _find_identity(rows: tuple[tuple[int, ...], ...]) -> int | None:
    n = len(rows)
    full = tuple(range(1, n + 1))
    for e in range(1, n + 1):
        if rows[e - 1] == full and all(rows[x - 1][e - 1] == x for x in range(1, n + 1)):
            return e
    return None


def render(Q: LoopTable) -> str:
    """Emit the .tbl text: the order, then one line per row."""
    lines = [str(Q.order)]
    lines.extend(" ".join(str(v) for v in row) for row in Q.cells)
    return "\n".join(lines) + "\n"


def mul(Q: LoopTable, a: int, b: int) -> int:
    return Q.cells[a - 1][b - 1]


def left_divide(Q: LoopTable, a: int, b: int) -> int:
    """The unique x with a*x = b."""
    return Q.cells[a - 1].index(b) + 1


def right_divide(Q: LoopTable, a: int, b: int) -> int:
    """The unique y with y*a = b."""
    col = a - 1
    for y, row in enumerate(Q.cells):
        if row[col] == b:
            return y + 1
    raise NotLatin("column misses a value")  # unreachable on valid tables


def translation(Q: LoopTable, a: int, side: str) -> Permutation:
    """The left translation b -> a*b or the right translation b -> b*a."""
    if side == "left":
        return Q.cells[a - 1]
    if side == "right":
        col = a - 1
        return tuple(row[col] for row in Q.cells)
    raise ValueError(f"side must be 'left' or 'right', not {side!r}")


def identity_perm(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p first, then q (the right-action convention b(pq) = (bp)q)."""
    return tuple(q[v - 1] for v in p)


def perm_inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def perm_power(p: Permutation, m: int) -> Permutation:
    if m < 0:
        return perm_power(perm_inverse(p), -m)
    out = identity_perm(len(p))
    for _ in range(m):
        out = compose(out, p)
    return out


def power(Q: LoopTable, a: int, m: int) -> int:
    """The m-th power of a, iterating the left translation: a^m = a * a^(m-1).

    For m < 0 the element must have a two-sided inverse (else
    NoTwoSidedInverse, a NoInverse).  In any left power alternative loop
    all ways of bracketing a power agree, so this convention only matters
    on pathological tables.
    """
    if m == 0:
        return 1
    if m < 0:
        return power(Q, inverse(Q, a), -m)
    row = Q.cells[a - 1]
    x = 1
    for _ in range(m):
        x = row[x - 1]
    return x


def element_order(Q: LoopTable, a: int) -> int:
    """Least m > 0 with a^m = 1, provided the powers of a form a group.

    Raises NotPeriodicThroughIdentity when the powers of a are not closed
    the way a cyclic group would be (possible in non-power-associative
    loops); the notion of order presupposes <a> is a group.
    """
    row = Q.cells[a - 1]
    powers = [1]
    x = row[0]  # a^1
    while x != 1:
        powers.append(x)
        x = row[x - 1]
    m = len(powers)
    for i in range(m):
        pi = Q.cells[powers[i] - 1]
        for j in range(m):
            if pi[powers[j] - 1] != powers[(i + j) % m]:
                raise NotPeriodicThroughIdentity(f"powers of {a} do not form a group")
    return m


def inverse(Q: LoopTable, a: int) -> int:
    """The two-sided inverse of a."""
    x = left_divide(Q, a, 1)
    y = right_divide(Q, a, 1)
    if x != y:
        raise NoTwoSidedInverse(f"element {a}: right inverse {x} != left inverse {y}")
    return x
