"""Exhaustive searches over small Cayley tables.

The left-Bol search decides rows in index order, by branching or by
propagation.  It branches on the first undecided row; propagation then
forces, for a branched row g and a decided row x, the row of g*(x*g) to
equal the composite translation L_g L_x L_g, which either contradicts an
existing row (prune), or decides a new row without branching.

Only pairs whose outer row was branched on are checked.  Let S be the
set of x with L_x L_y L_x = L_{x*(y*x)} for all y.  For x, w in S, put
v = x*(w*x) and u = x*(y*x): then L_v L_y L_v = L_x L_w L_u L_w L_x, a
left translation because w and x are in S, and evaluating it at 1 shows
that it is L_{v*(y*v)}, so v is in S.  Every row the search does not
branch on is forced as L_g L_x L_g, with g branched and x decided
earlier, so once the pairs (g, x) hold for every branched g and every
row x, the whole table is left Bol.  Propagation pops one newly decided
row c at a time: a branched c is checked as (c, x) against every decided
x, c included, and every c as (g, c) against each branched g decided
before it; a row forced on the way joins the queue.  The same argument,
applied to the decided rows, shows that after a successful propagation
they are closed under (a, b) -> a*(b*a): propagation forces the same
rows as checking every ordered pair would.

The candidates for the branched row r are filled left to right, values
in increasing order, against the row and column usage, so they come in
lexicographic order.  One test rejects a prefix, by the cells of the
rows the candidate forces: after each cell, the generator tests every
cell that has just become computable in two such rows.  For each decided
row b != 1, L_b L_r L_b is the row of c = b*(r*b); its cell z is
b*(r*(b*z)), known once the cells of row r at b and at b*z are filled.
It must equal row c's cell if row c is decided, and row r's own cell z
if c = r; otherwise it must avoid the values column z already holds and
row r's cell z.  L_r L_r, the row of r*r (left Bol with y = 1), is
tested once the cell at r is filled.

The test holds in every left Bol table, so a rejected prefix has no
completion that is one.  Every candidate the generator yields still goes
through propagation, which stays the one authority: the search finds the
same tables, in the same lexicographic order, as a generator without the
test.

Row 2 is searched once per cycle type, and its candidates are listed
directly rather than generated.  In a left Bol loop L_{x^k} = L_x^k
(Robinson, *Bol loops*, Trans. AMS 123, 1966), so x^k*z = z for one z
forces x^k = 1, and every cycle of L_x has length |x|.  Element 2 is
not the identity, so row 2 of a left Bol table is a permutation with
1 -> 2 of cycle type m^(n/m) for some m >= 2 dividing n: 915, 5,320 and
48,489 permutations at orders 8, 9 and 10.  ``_row2_classes`` lists each
type as the canonical cycle listings of its members: the cycle through
1 starts 1, 2, each other cycle starts at its least element, and the
cycles come by least element.  Its representative is the lex-least
member (1 2 ... m)(m+1 ... 2m)..., which has the listing 1, 2, ..., n.

A relabeling s of the elements that fixes 1 and 2 maps a left Bol table
T onto the left Bol table s(T) whose row s(a) is s L_a s^-1, so its row 2
is s L s^-1.  Two candidates of one type are conjugate by the s that
sends the cycle listing of the first onto that of the second, position
by position; s fixes 1 and 2, since both listings begin 1, 2.  From the
representative, s sends each i to the i-th entry of the member's
listing, so the listing is s itself.  Then T -> s(T) is
one-to-one from the tables with row 2 = L onto those with row 2 =
s L s^-1, its inverse being the relabeling by s^-1.  So the search
propagates and branches only below the representative of each type and
relabels the tables found there onto every other member.  The union is
complete, because every table whose row 2 is a member is the image of a
table found below the representative, and it has no duplicates, because
tables with different rows 2 differ and each relabeling is one-to-one.
The tables are then sorted, so the output is the list the search on
every candidate returns.  Candidates reaching propagation number 471 at
order 8, 29 at order 9 and 5,196 at order 10.  The relabeling works on
the distinct rows found below the representative, held as bytes: under
each listing a row's image is one byte translation and one gather, and
a table is one gather of its rows' images and one more.  It still takes
about half of the search at order 8 and most of it at orders 9 and 10.
``SEARCH_BUDGET`` bounds the candidates that reach propagation in one
search, far above all three.

The relabelings also classify the tables.  ``witnessed_search`` returns,
with the tables, each class's found tables and listings; s(T) is
isomorphic to T, by s.  ``summarize_order8`` rebuilds every image s(T)
from S[s(a)][s(b)] = s(T[a][b]), with code of its own, and
checks that the images are distinct and are exactly the tables.  Then
each table lies in the isomorphism class of the found table it is the
image of, and every found table is a table, so the classes of the
tables are the classes of the found tables, and a class holds as many
tables as its found tables have listings in all.  At order 8,
``classify`` thus runs on the 275 found tables, not on all 7,800.  So
does the commutant check: whether the commutant is a subloop is kept by
isomorphism, and the cover carries the answer of each found table to
every table that is one of its images.

Beyond the identity at element 1 and this relabeling inside the search,
no symmetry is broken: the search lists every identity-normalized table,
not isomorphism classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from .errors import BadParams, SearchBudgetExceeded, TooLarge
from .extensions import automorphism_group
from .iso import classify
from .loop_core import LoopTable, check_order
from .structure import check_identity, commutant, is_subloop

SEARCH_BUDGET = 20_000_000
MAX_ENUMERATION_ORDER = 6
MAX_SEARCH_ORDER = 255  # the search relabels rows as bytes of their 1-based values


Row = tuple[int, ...]
_SUCCESSOR = bytes(range(1, 256)) + bytes(1)  # v -> v + 1, as a translation table


def _inverse(row: Row) -> Row:
    """The inverse of a 0-based permutation."""
    inv = [0] * len(row)
    for z, v in enumerate(row):
        inv[v] = z
    return tuple(inv)


def _row_candidates(
    rows: list[Row | None], r: int, col_used: list[int]
) -> Iterator[Row]:
    """Rows for element r, 0-based and in lex order, that no forced row refutes.

    Cells are decided left to right against the row and column usage.
    After each cell, every cell of a row forced by the decided rows that
    has just become computable is tested (see the module docstring); a
    prefix that fails the test is not extended.  The search asks it for
    rows 3 and up; row 2's candidates come from ``_row2_classes``.
    """
    n = len(rows)
    # (b, row b, its inverse, the cells z with rb[z] <= b: those computable at p == b)
    decided = [
        (b, rb, _inverse(rb), [z for z in range(n) if rb[z] <= b])
        for b, rb in enumerate(rows)
        if b and rb is not None
    ]
    row = [r] * n
    at = [0] * n  # at[v]: the position that holds value v

    def fits(p: int, used: int) -> bool:
        """The forced cells that position p makes computable."""
        for b, rb, ib, zs_b in decided:
            if b > p:
                break
            # L_b L_r L_b is the row of c = b*(r*b); its cell z is
            # rb[row[rb[z]]], computable once positions b and rb[z] are set
            c = rb[row[b]]
            rc = rows[c]
            zs = zs_b if b == p else (ib[p],)
            for z in zs:
                f = rb[row[rb[z]]]
                if rc is not None:
                    if f != rc[z]:
                        return False
                elif c == r:
                    if z <= p and f != row[z]:
                        return False
                elif (col_used[z] >> f) & 1 or (z <= p and f == row[z]):
                    return False
        if p >= r:
            # L_r L_r is the row of c = r*r; its cell z is row[row[z]]
            c = row[r]
            rc = rows[c]
            if p == r:
                zs = [z for z in range(p + 1) if row[z] <= p]
            else:
                zs = [p] if row[p] < p else []
                if (used >> p) & 1:
                    zs.append(at[p])
            for z in zs:
                # c != r, and f != row[z] since row[w] == w is barred by column w
                f = row[row[z]]
                if rc is not None:
                    if f != rc[z]:
                        return False
                elif (col_used[z] >> f) & 1:
                    return False
        return True

    def rec(p: int, used: int) -> Iterator[Row]:
        if p == n:
            yield tuple(row)
            return
        forbidden = used | col_used[p]
        for v in range(n):
            if (forbidden >> v) & 1:
                continue
            row[p] = v
            at[v] = p
            if fits(p, used | (1 << v)):
                yield from rec(p + 1, used | (1 << v))

    yield from rec(1, 1 << r)


def _propagate(
    rows: list[Row | None],
    gathers: list[Callable[[Row], Row] | None],
    col_used: list[int],
    branched: tuple[int, ...],
) -> bool:
    """Force rows implied by L_g L_x L_g = L_{g*(x*g)} for branched g; False on conflict.

    ``branched`` lists the rows decided by branching, the one just decided
    last.  Newly decided rows are queued and popped one at a time: the
    branched row c is checked as (c, x) against every decided row x, c
    included, and every row c, forced or branched, as (g, c) against each
    branched g decided before it.  ``gathers[x]`` is
    ``itemgetter(*rows[x])`` for each decided row x, so
    ``gathers[g](gathers[x](rows[g]))`` is the row of L_g L_x L_g.
    """
    n = len(rows)
    r = branched[-1]
    queue = [r]
    while queue:
        c = queue.pop()
        if c == r:
            pairs = [(r, x) for x in range(n) if rows[x] is not None]
            pairs += [(g, r) for g in branched[:-1]]
        else:
            pairs = [(g, c) for g in branched]
        for a, b in pairs:
            ra = rows[a]
            d = ra[rows[b][a]]  # a*(b*a)
            forced = gathers[a](gathers[b](ra))
            rd = rows[d]
            if rd is not None:
                if rd != forced:
                    return False
                continue
            for z in range(n):
                if (col_used[z] >> forced[z]) & 1:
                    return False
            rows[d] = forced
            gathers[d] = itemgetter(*forced)
            for z in range(n):
                col_used[z] |= 1 << forced[z]
            queue.append(d)
    return True


def _row2_classes(n: int) -> Iterator[tuple[Row, list[Row]]]:
    """The row-2 candidates, one class per cycle type, as (representative, listings).

    For each m >= 2 dividing n, the class holds the permutations with
    0 -> 1 whose cycles all have length m: by Robinson's lemma every row
    2 of a left Bol table is in one of them (see the module docstring).  The
    representative is the lex-least, (0 1 ... m-1)(m ... 2m-1)...; the
    listings are the canonical cycle listings of the class: the cycle
    through 0 starts 0, 1, each other cycle starts at its least element,
    and the cycles come by least element.  The representative's listing is
    0, 1, ..., n-1, and comes first; a listing is also the map that
    conjugates the representative onto its member.
    """

    def extend(listing: Row, k: int, rest: Row) -> Iterator[Row]:
        # close the cycle listing ends in with k elements of rest, then list the rest
        if k == len(rest):
            yield from map(listing.__add__, permutations(rest))
            return
        for tail in permutations(rest, k):
            left = tuple(x for x in rest if x not in tail)
            yield from extend(listing + tail + left[:1], m - 1, left[1:])

    for m in range(2, n + 1):
        if n % m == 0:
            rep = tuple(z + 1 if (z + 1) % m else z + 1 - m for z in range(n))
            yield rep, list(extend((0, 1), m - 2, tuple(range(2, n))))


def _check_search_order(n: int) -> None:
    if n < 1:
        raise BadParams("loop order must be positive")
    check_order(n)


class RowTwoClass(NamedTuple):
    """One row-2 class of a left-Bol search, as the search relabeled it.

    ``found`` holds the cells of the tables found below the class
    representative; ``listings`` holds the class's canonical cycle
    listings, 0-based, each the relabeling s that maps those tables onto
    the tables whose row 2 is its member (see the module docstring).
    """

    found: list[tuple[Row, ...]]
    listings: list[Row]


class WitnessedSearch(NamedTuple):
    """The tables of ``search_left_bol`` with the relabelings that built them.

    Every table is s(T) for one row-2 class, one T it found and one of
    its listings s, and no two such pairs give the same table.
    """

    tables: list[LoopTable]
    classes: list[RowTwoClass]


def search_left_bol(n: int) -> list[LoopTable]:
    """Every left Bol loop of order n as an identity-normalized table.

    Tables come in lexicographic order of their rows, and tables share the
    object of each distinct row.  ``SEARCH_BUDGET`` bounds the candidate
    rows that reach propagation: the representative of each row-2 class,
    the only row 2 searched (see the module docstring), and every
    candidate for a later row.  The other row-2 members, whose tables are
    relabeled, are not counted.  One more raises SearchBudgetExceeded.
    The search takes order ≤ 255 (``MAX_SEARCH_ORDER``), whose relabeled
    rows fit in bytes, and raises TooLarge above it before it searches.
    """
    return witnessed_search(n).tables


def witnessed_search(n: int) -> WitnessedSearch:
    """``search_left_bol(n)``, with the tables found below each row-2 representative."""
    _check_search_order(n)
    if n > MAX_SEARCH_ORDER:
        raise TooLarge(f"left-Bol search capped at order {MAX_SEARCH_ORDER}")
    if n == 1:
        # no row 2: the one table is its own image under the identity
        return WitnessedSearch([LoopTable(1, ((1,),))], [RowTwoClass([((1,),)], [(0,)])])
    found: list[tuple[Row, ...]] = []
    nodes = 0

    def branch(
        rows: list[Row | None],
        gathers: list[Callable[[Row], Row] | None],
        col_used: list[int],
        branched: tuple[int, ...],
        cand: Row,
    ) -> None:
        """Decide the row branched[-1] as cand, propagate, and search on."""
        nonlocal nodes
        nodes += 1
        if nodes > SEARCH_BUDGET:
            raise SearchBudgetExceeded(f"budget {SEARCH_BUDGET} exhausted")
        r = branched[-1]
        rows = rows.copy()
        gathers = gathers.copy()
        col_used = col_used.copy()
        rows[r] = cand
        gathers[r] = itemgetter(*cand)
        for z in range(n):
            col_used[z] |= 1 << cand[z]
        if not _propagate(rows, gathers, col_used, branched):
            return
        r = next((i for i in range(n) if rows[i] is None), None)
        if r is None:
            found.append(tuple(rows))  # type: ignore[arg-type]
            return
        for cand in _row_candidates(rows, r, col_used):
            branch(rows, gathers, col_used, (*branched, r), cand)

    rows0: list[Row | None] = [None] * n
    rows0[0] = tuple(range(n))
    gathers0: list[Callable[[Row], Row] | None] = [None] * n
    gathers0[0] = itemgetter(*rows0[0])
    col_used0 = [1 << z for z in range(n)]
    tables: list[tuple[Row, ...]] = []
    classes: list[RowTwoClass] = []
    ident = tuple(range(1, n + 1))
    shared: dict[Row, Row] = {ident: ident}  # one object per distinct 1-based row
    for rep, listings in _row2_classes(n):
        found.clear()
        branch(rows0, gathers0, col_used0, (1,), rep)
        start = len(tables)
        # the found tables as gathers over their distinct rows, held as bytes;
        # the identity row, row 1 of every table, is index 0 and is its own image
        index: dict[Row, int] = {rows0[0]: 0}
        places = [itemgetter(*[index.setdefault(row, len(index)) for row in T]) for T in found]
        distinct = list(map(bytes, index))[1:]
        for sigma in listings:
            # sigma fixes 0 and 1 and conjugates rep to this member.  Row
            # sigma(a) of the relabeled table is sigma o T[a] o sigma^-1, so
            # row b is T[sigma^-1(b)]: each distinct row is translated by
            # sigma (1-based) and read at sigma^-1, and each table gathers
            # those images, row a's at a, and is read at sigma^-1 in turn
            label = bytes(sigma).translate(_SUCCESSOR).ljust(256, bytes(1))
            pull = itemgetter(*_inverse(sigma))
            image = [pull(row.translate(label)) for row in distinct]
            image = [ident, *map(shared.setdefault, image, image)]
            tables += [pull(place(image)) for place in places]
        # the first listing, the identity, relabeled the found tables to themselves
        classes.append(RowTwoClass(tables[start : start + len(found)], listings))
    tables.sort()
    return WitnessedSearch([LoopTable(n, T) for T in tables], classes)


@dataclass(frozen=True)
class Order8Report:
    tables_found: int
    witnesses_cover_tables: bool
    all_commutants_subloops: bool
    class_count: int
    associative_classes: int
    nonassociative_classes: int
    orbit_stabilizer_total: int

    def failures(self) -> list[str]:
        """The checks that fail, by name; empty when the order-8 statement holds.

        The statement: every left Bol loop of order 8 has a subloop
        commutant, and there are 11 classes, 5 of them groups.  The search
        is complete and free of duplicates when its relabeling witnesses
        cover the tables and the orbit-stabilizer total is the table count.
        """
        checks = {
            "relabeling witnesses": self.witnesses_cover_tables,
            "commutants": self.all_commutants_subloops,
            "class counts": (self.associative_classes, self.nonassociative_classes) == (5, 6),
            "orbit-stabilizer": self.tables_found == self.orbit_stabilizer_total,
        }
        return [name for name, ok in checks.items() if not ok]


def _witnesses_cover(search: WitnessedSearch) -> bool:
    """True if the images s(T) of the found tables are the tables, each hit once.

    Each image is built on its own from S[s(a)][s(b)] = s(T[a][b]), not
    by the search's code, and struck off the cells of the tables that no
    image has hit yet.  Row s(a) of the image depends on s and on the
    content of row a alone, so each distinct found row, held as bytes, is
    relabeled once per listing: one byte translation by s, then one gather
    that reads it at s^-1.  Each image is then one gather of those rows,
    and a second one that puts row a at s(a).
    """

    def gather(indices: list[int]) -> Callable[..., tuple]:
        # itemgetter with one index returns a scalar, not a 1-tuple
        return itemgetter(*indices) if len(indices) > 1 else tuple

    unhit = dict.fromkeys(Q.cells for Q in search.tables)  # half the size of a set
    if len(unhit) != len(search.tables):
        return False
    for cls in search.classes:
        index: dict[Row, int] = {}  # each distinct found row's position in rows
        places = [gather([index.setdefault(row, len(index)) for row in T]) for T in cls.found]
        rows = list(map(bytes, index))
        for s in cls.listings:
            inverse = [0] * len(s)
            for b, v in enumerate(s):
                inverse[v] = b
            at = gather(inverse)  # at(t)[s(b)] = t[b]
            label = bytes([0, *[v + 1 for v in s]]).ljust(256, bytes(1))  # label[x] = s(x), 1-based
            images = [at(b.translate(label)) for b in rows]
            for place in places:
                try:
                    del unhit[at(place(images))]
                except KeyError:  # not a table, or a table hit before
                    return False
    return not unhit


def summarize_order8(search: WitnessedSearch) -> Order8Report:
    """Summarize ``witnessed_search(8)``: every left Bol loop of order 8.

    The commutant check and the classes come from the tables found below
    the row-2 representatives alone: each table is an image s(T) of one
    of them, and s(T) is isomorphic to T by s itself.  Once the images
    are checked to be distinct and to cover the tables
    (``witnesses_cover_tables``), every table lies in the class of its T,
    every class of a found table occurs among the tables, and a class
    holds as many tables as its found tables have listings in all.  An
    isomorphism maps the commutant onto the commutant and subloops onto
    subloops, so a table's commutant is a subloop exactly when its T's
    is: while the cover holds, the found tables answer for all of them.
    When it fails, the report fails on the witnesses anyway.

    ``orbit_stabilizer_total`` is the sum of 7!/|Aut(Q)| over the class
    representatives: the number of identity-normalized labelings the
    classes have, which a complete, duplicate-free search finds exactly.
    """
    tables = search.tables
    covered = _witnesses_cover(search)
    found = [LoopTable(len(T), T) for cls in search.classes for T in cls.found]
    all_sub = all(is_subloop(Q, commutant(Q)) for Q in found)
    classes = classify(found)
    reps = [found[cls.representative] for cls in classes]
    assoc = sum(1 for Q in reps if check_identity(Q, "associative"))
    return Order8Report(
        tables_found=len(tables),
        witnesses_cover_tables=covered,
        all_commutants_subloops=all_sub,
        class_count=len(classes),
        associative_classes=assoc,
        nonassociative_classes=len(classes) - assoc,
        orbit_stabilizer_total=sum(math.factorial(7) // len(automorphism_group(Q)) for Q in reps),
    )


def enumerate_all_loops(n: int) -> list[LoopTable]:
    """All identity-normalized loops of order n by plain Latin backtracking.

    Raises TooLarge above ``MAX_ENUMERATION_ORDER``: order 6 has 9,408
    such loops, order 7 already 16,942,080.
    """
    _check_search_order(n)
    if n > MAX_ENUMERATION_ORDER:
        raise TooLarge(f"loop enumeration capped at order {MAX_ENUMERATION_ORDER}")
    cells = [[0] * n for _ in range(n)]
    cells[0] = list(range(n))
    for i in range(n):
        cells[i][0] = i
    col_used = [1 << z for z in range(n)]  # the identity row
    for i in range(n):
        col_used[0] |= 1 << i  # the identity column is preset
    out: list[LoopTable] = []

    def rec(i: int, j: int, row_used: int) -> None:
        if i == n:
            out.append(
                LoopTable(n, tuple(tuple(v + 1 for v in row) for row in cells))
            )
            return
        if j == n:
            rec(i + 1, 1, 1 << (i + 1))
            return
        for v in range(n):
            bit = 1 << v
            if (row_used | col_used[j]) & bit:
                continue
            cells[i][j] = v
            col_used[j] |= bit
            rec(i, j + 1, row_used | bit)
            col_used[j] &= ~bit

    rec(1, 1, 1 << 1)
    return out
