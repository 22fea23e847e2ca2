"""Finite loops as explicit Cayley tables.

Elements are the integers 1..n and element 1 is always the two-sided
identity; ``cells[a-1][b-1]`` holds the product ``a*b``.  The order,
cells and name of a table never change after construction and every
function in this module is pure.  A table's one mutable slot, ``_iso``,
is a memo that only ``bolkit.iso`` fills (see there): it depends only on
the cells, and filling it twice stores equal values, so tables stay safe
for unrestricted concurrent use.

Permutations of 1..n are plain tuples: ``p[i-1]`` is the image of ``i``.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
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


def check_order(n: int) -> None:
    """Raise TooLarge when a table of order n would exceed MAX_ORDER."""
    if n > MAX_ORDER:
        raise TooLarge(f"order {n} exceeds supported maximum {MAX_ORDER}")


class LoopTable:
    """An n x n Cayley table with the identity at index 1.

    ``name`` is descriptive metadata only; it is ignored by equality
    and hashing.  So is ``_iso``, the iso layer's memo, None until
    ``bolkit.iso`` fills it; each table object starts with its own.
    """

    __slots__ = ("order", "cells", "name", "_iso")

    def __init__(self, order: int, cells: tuple[tuple[int, ...], ...], name: str | None = None):
        self.order = order
        self.cells = cells
        self.name = name
        self._iso = None

    @classmethod
    def from_cells(cls, cells: Iterable[Iterable[int]], name: str | None = None) -> "LoopTable":
        """Validate and build a table whose identity is already element 1.

        Entries must be of type int exactly: True and 2.0 compare equal to
        1 and 2 and would pass the Latin check.  As in ``parse_table``, the
        range is checked only when the Latin check fails.
        """
        rows = tuple(tuple(row) for row in cells)
        n = len(rows)
        if n == 0:
            raise Malformed("empty table")
        check_order(n)
        if any(len(row) != n for row in rows):
            raise Malformed("table is not square")
        if not {int}.issuperset(map(type, chain.from_iterable(rows))):
            bad = next(v for v in chain.from_iterable(rows) if type(v) is not int)
            raise Malformed(f"entry {bad!r} is not an int")
        try:
            _check_latin(rows)
        except NotLatin:
            _check_range(chain.from_iterable(rows), n)
            raise
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


def _check_latin(rows: tuple[tuple[int, ...], ...], in_range: bool = False) -> None:
    """Raise NotLatin unless every row and column is a permutation of 1..n.

    Up to order 255 the rows are encoded once as one flat ``bytes`` of n^2
    bytes, row i the slice ``flat[i*n:(i+1)*n]`` and column j the slice
    ``flat[j::n]``.  A slice of n bytes that holds each of 1..n is a
    permutation of them, which is the case exactly when deleting its bytes
    from ``bytes(range(1, n + 1))`` leaves nothing: one C-level
    ``translate`` per row and per column.  An entry outside 0..255, which
    ``bytes`` refuses, lies outside 1..n, so the table is not Latin.

    Above order 255 rows are compared with the set 1..n, or, when
    ``in_range`` says every entry is already known to lie in 1..n, given
    only a size test.  Once every row passes, every entry lies in 1..n, so
    a column of n entries is a permutation exactly when its entries are
    distinct: columns need only a size test.  Rows are checked before
    columns on either route.
    """
    n = len(rows)
    if n <= 255:
        try:
            flat = b"".join(map(bytes, rows))
        except ValueError:
            raise NotLatin("a row repeats a value") from None
        full = bytes(range(1, n + 1))
        for i in range(0, n * n, n):
            if full.translate(None, flat[i : i + n]):
                raise NotLatin("a row repeats a value")
        for j in range(n):
            if full.translate(None, flat[j::n]):
                raise NotLatin("a column repeats a value")
        return
    if in_range:
        for row in rows:
            if len(set(row)) != n:
                raise NotLatin("a row repeats a value")
    else:
        full_set = frozenset(range(1, n + 1))
        for row in rows:
            if frozenset(row) != full_set:
                raise NotLatin("a row repeats a value")
    for col in zip(*rows):
        if len(set(col)) != n:
            raise NotLatin("a column repeats a value")


def _check_range(entries: Iterable[int], n: int) -> None:
    """Raise Malformed for the first entry outside 1..n.

    Called only once the Latin check has failed: a row holding an entry
    outside 1..n is not a permutation of 1..n, so a table that passes it
    needs no range check.
    """
    bad = next((v for v in entries if not 1 <= v <= n), None)
    if bad is not None:
        raise Malformed(f"entry {bad} out of range 1..{n}") from None


def decimal_ints(tokens: list[str]) -> list[int]:
    """The tokens as ints; ValueError unless each is ASCII decimal digits.

    ``int`` alone also reads "+1", "0_2" and non-ASCII digits such as "١",
    and ``str.isdigit`` alone also passes "²".  The tokens are checked
    joined, in one pass; ``int`` still rejects an empty token and one of
    over 4300 digits.
    """
    joined = "".join(tokens)
    if not (joined.isascii() and joined.isdigit()):
        raise ValueError("not ASCII decimal digits")
    return list(map(int, tokens))


def parse_table(text: str, name: str | None = None) -> LoopTable:
    """Parse the ``.tbl`` format: '#'-comment lines, then n and n*n entries.

    If the two-sided identity is not element 1, the elements are renumbered
    so the identity becomes 1 while all other elements keep their relative
    order; the applied relabeling is recorded in the returned name.

    A text with no '#' has no comment line, and every line boundary of
    ``str.splitlines`` is whitespace to ``str.split``, so it is split into
    tokens by one ``str.split``; any other text line by line.  Entries are
    decoded through one dict from the canonical names "1".."n" to ints, by
    one ``itemgetter`` call, which checks digits and range in one pass and
    leaves one int object per element; above order 255 the Latin check
    then tests each row by its size alone.  A token it misses, such as
    "01" or an invalid one, sends the whole body through ``decimal_ints``
    and the range check instead: that route still reads leading zeros, and
    raises the error for a bad entry.
    """
    if "#" in text:
        tokens: list[str] = []
        for line in text.splitlines():
            if line.lstrip().startswith("#"):
                continue
            tokens.extend(line.split())
    else:
        tokens = text.split()
    if not tokens:
        raise Malformed("no tokens")
    try:
        [n] = decimal_ints(tokens[:1])
    except ValueError:
        raise Malformed(f"order token {tokens[0]!r} is not a decimal integer") from None
    if n < 1:
        raise Malformed(f"order {n} must be positive")
    check_order(n)
    if len(tokens) - 1 != n * n:
        raise Malformed(f"expected {n * n} entries, got {len(tokens) - 1}")
    names = {str(v): v for v in range(1, n + 1)}
    named = True
    try:
        entries = itemgetter(*tokens[1:])(names)
    except KeyError:
        named = False
        try:
            entries = decimal_ints(tokens[1:])
        except ValueError:
            raise Malformed("table entries must be decimal integers") from None
    if n == 1 and named:
        entries = (entries,)  # of one key, itemgetter returns the bare value
    rows = tuple(zip(*[iter(entries)] * n))  # n consecutive entries per row
    try:
        _check_latin(rows, in_range=named)
    except NotLatin:
        _check_range(entries, n)
        raise

    e = _find_identity(rows)
    if e is None:
        raise NoIdentity("no two-sided identity element")
    if e != 1:
        # order-preserving renumbering moving e to 1: new element y is old
        # element old[y-1], and old element x is new element rename[x]
        old = (e, *range(1, e), *range(e + 1, n + 1))
        rename = (0, *range(2, e + 1), 1, *range(e + 1, n + 1))
        at_old = itemgetter(*[x - 1 for x in old])
        rows = tuple(tuple(map(rename.__getitem__, at_old(rows[x - 1]))) for x in old)
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
    """Emit the .tbl text: the order, then one line per row.

    Each row is read through one name table, ``names[v]`` being ``str(v)``,
    by one ``itemgetter`` call: the mirror of the decode in ``parse_table``.
    """
    n = Q.order
    if n == 1:  # of one key, itemgetter returns the bare name, not a tuple
        return "1\n1\n"
    names = tuple(map(str, range(n + 1)))
    lines = [names[n]]
    lines.extend(" ".join(itemgetter(*row)(names)) for row in Q.cells)
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


def identity_perm(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p first, then q (the right-action convention b(pq) = (bp)q)."""
    return tuple(q[v - 1] for v in p)


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
    # a^i * a^j = a^(i+j mod m) for all i, j: the row of a^i, read at the
    # powers, is the powers rotated by i.  Rows 1 and a hold by the walk.
    if m > 2:
        at_powers = itemgetter(*[p - 1 for p in powers])
        cycle = tuple(powers) * 2
        for i in range(2, m):
            if at_powers(Q.cells[powers[i] - 1]) != cycle[i : i + m]:
                raise NotPeriodicThroughIdentity(f"powers of {a} do not form a group")
    return m


def inverse(Q: LoopTable, a: int) -> int:
    """The two-sided inverse of a."""
    x = left_divide(Q, a, 1)
    y = right_divide(Q, a, 1)
    if x != y:
        raise NoTwoSidedInverse(f"element {a}: right inverse {x} != left inverse {y}")
    return x
