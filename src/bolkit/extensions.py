"""Left-nuclear extensions Q(K, E, tau, f) and the semidirect special case.

An extension multiplies pairs by (u,a)(v,b) = (u * tau_a(v) * f(a,b), a*b)
with K a group, E a loop, tau a map E -> Aut(K) with tau_1 = 1, and f a
cocycle (f(1,a) = f(a,1) = 1).  Pairs are encoded as table indices by

    idx(u, a) = u + |K| * (a - 1)        (u, a 1-based)

so constructed tables are byte-reproducible.  Products of automorphisms
follow function composition: "tau_a tau_b" means apply tau_b, then tau_a.

Two preconditions of the paper are checked, not assumed.  K lies in the
left and middle nuclei of Q, so it must be a group: ``TauMap`` takes K
only as a ``GroupTable``.  Q/K is isomorphic to E, so Q is left Bol only
if E is and a group only if E is: ``bol_conditions`` and
``group_conditions`` return False otherwise.

tau and f both carry K and E, so the builders and the condition equations
take (tau, f) alone; they raise BadParams when f and tau disagree on K or E.
The condition equations share no code with ``build_extension``: they read
products of K and E, tau_a and f(a,b) straight from ``K.cells``,
``tau.assignment`` and ``f.values``, element x at index x - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter

from .errors import BadParams, NotAssociative, TooLarge
from .iso import _isomorphisms, _record, is_isomorphism
from .loop_core import LoopTable, Permutation, check_order, compose, identity_perm, inverse
from .structure import ElementSet, check_identity, commutant, nuclei

MAX_AUT_ORDER = 64
MAX_AUT_MAPS = 20_160  # |GL(4,2)|


class GroupTable(LoopTable):
    """A loop table whose associativity has been verified."""

    @classmethod
    def from_table(cls, t: LoopTable) -> "GroupTable":
        if not check_identity(t, "associative"):
            raise NotAssociative(f"{t!r} is not a group")
        return cls(t.order, t.cells, t.name)


def cyclic_group(n: int) -> GroupTable:
    """The cyclic group of order n; element i represents i-1 mod n."""
    if n < 1:
        raise BadParams("cyclic group order must be positive")
    check_order(n)
    row = tuple(range(1, n + 1))
    cells = tuple(row[a:] + row[:a] for a in range(n))  # row a is a+1, ..., n, 1, ..., a
    return GroupTable(n, cells, f"Z{n}")


def elem_abelian_2(m: int) -> GroupTable:
    """(Z_2)^m; element i represents the bitmask i-1, products are XOR."""
    if m < 0:
        raise BadParams("dimension must be nonnegative")
    n = 1 << m
    check_order(n)
    vals = tuple(range(1, n + 1))  # one int object per element
    cells = tuple(tuple(map(vals.__getitem__, map(a.__xor__, range(n)))) for a in range(n))
    return GroupTable(n, cells, f"Z2^{m}")


def automorphism_group(K: LoopTable) -> list[Permutation]:
    """All automorphisms of the loop K, canonically sorted (identity first).

    The isomorphism search from K to itself, which lists maps in sorted
    order; capped at |K| <= MAX_AUT_ORDER, and at MAX_AUT_MAPS maps, since
    |Aut(Z2^6)| is about 2*10^10.  K's iso record is read from, or
    memoized on, K.
    """
    if K.order > MAX_AUT_ORDER:
        raise TooLarge(f"automorphism enumeration capped at order {MAX_AUT_ORDER}")
    data = _record(K)
    auts = list(islice(_isomorphisms(K, K, data, data), MAX_AUT_MAPS + 1))
    if len(auts) > MAX_AUT_MAPS:
        raise TooLarge(f"automorphism enumeration capped at {MAX_AUT_MAPS} maps")
    return auts


@dataclass(frozen=True)
class TauMap:
    """Assignment of an automorphism of K to each element of E, tau_1 = 1."""

    E: LoopTable
    K: GroupTable
    assignment: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.K, GroupTable):
            raise BadParams(f"K must be a GroupTable, got {self.K!r}")
        if len(self.assignment) != self.E.order:
            raise BadParams("tau must assign one automorphism per element of E")
        # exact types: the check below skips repeats, and (1.0, 2.0) both
        # equals and hashes as (1, 2)
        if {tuple} != set(map(type, self.assignment)) or not {int}.issuperset(
            map(type, chain.from_iterable(self.assignment))
        ):
            raise BadParams("tau entries must be tuples of ints")
        if self.assignment[0] != identity_perm(self.K.order):
            raise BadParams("tau_1 must be the identity automorphism")
        for p in dict.fromkeys(self.assignment):  # each distinct map once, in order
            if not is_isomorphism(self.K, self.K, p):
                raise BadParams(f"{p} is not an automorphism of K")

    def at(self, a: int) -> Permutation:
        return self.assignment[a - 1]


@dataclass(frozen=True)
class Cocycle:
    """A map f: E x E -> K with f(1,a) = f(a,1) = 1."""

    E: LoopTable
    K: GroupTable
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        ne, nk = self.E.order, self.K.order
        if len(self.values) != ne or any(len(r) != ne for r in self.values):
            raise BadParams("cocycle must be |E| x |E|")
        for row in self.values:
            for v in row:
                if type(v) is not int:
                    raise BadParams(f"cocycle value {v!r} is not an int")
                if not 1 <= v <= nk:
                    raise BadParams(f"cocycle value {v} outside K")
        if any(self.values[0][b] != 1 for b in range(ne)) or any(
            self.values[a][0] != 1 for a in range(ne)
        ):
            raise BadParams("cocycle border must be the identity of K")

    def at(self, a: int, b: int) -> int:
        return self.values[a - 1][b - 1]


def trivial_tau(K: GroupTable, E: LoopTable) -> TauMap:
    return TauMap(E, K, tuple(identity_perm(K.order) for _ in range(E.order)))


def trivial_cocycle(K: GroupTable, E: LoopTable) -> Cocycle:
    return Cocycle(E, K, tuple(tuple(1 for _ in range(E.order)) for _ in range(E.order)))


def pair_index(K: GroupTable, u: int, a: int) -> int:
    return u + K.order * (a - 1)


def _groups(tau: TauMap, f: Cocycle) -> tuple[GroupTable, LoopTable]:
    """K and E of Q(K, E, tau, f), read from tau; BadParams unless f has the same tables."""
    if f.K != tau.K or f.E != tau.E:
        raise BadParams("tau and f must be over the same K and E")
    return tau.K, tau.E


def build_extension(tau: TauMap, f: Cocycle, name: str | None = None) -> LoopTable:
    """The table of Q(K, E, tau, f) under the fixed pair encoding.

    Built a block at a time, every entry read from one value table
    ``vals``, so the table holds one int object per element.  For a in E,
    the shift of block b lists idx(x * f(a,b), ab) at x = 1..|K| (entry 0
    unused): one read of ``vals`` from idx(0, ab) on through the column of
    f(a,b) in K.  Row idx(u, a) reads each shift at x = u * tau_a(v) for v
    in K and chains the reads: |E|(|E| + |K|) C-level calls in all.
    """
    K, E = _groups(tau, f)
    nk, ne = K.order, E.order
    n = nk * ne
    check_order(n)
    vals = tuple(range(n + 1))
    columns = [itemgetter(0, *col) for col in zip(*K.cells)]
    # of one index, itemgetter returns the bare value, not a tuple
    gather = itemgetter if nk > 1 else lambda i: lambda s: (s[i],)
    cells = []
    for ta, fa, ea in zip(tau.assignment, f.values, E.cells):
        shifts = [columns[fab - 1](vals[nk * (ab - 1) : nk * ab + 1]) for fab, ab in zip(fa, ea)]
        at_tau = [t - 1 for t in ta]
        for ku in K.cells:
            read = gather(*map(ku.__getitem__, at_tau))  # u * tau_a(v) for v in K
            cells.append(tuple(chain.from_iterable(map(read, shifts))))
    if name is None:
        name = f"ext({K.name or nk},{E.name or ne})"
    return LoopTable.from_cells(cells, name=name)


def build_semidirect(tau: TauMap, name: str | None = None) -> LoopTable:
    """Q(K, E, tau): the extension with the all-identity cocycle."""
    check_order(tau.K.order * tau.E.order)  # before the |E| x |E| cocycle is built
    return build_extension(tau, trivial_cocycle(tau.K, tau.E), name=name)


def bol_conditions(tau: TauMap, f: Cocycle) -> bool:
    """Condition equations for Q(K,E,tau,f) to be left Bol.

    False unless E is left Bol, since Q/K is isomorphic to E.  Then two
    equations: one over a,b,c in E with w = 1, one over a,b in E and all
    w in K; together they are equivalent to the Bol identity on the
    built table.
    """
    K, E = _groups(tau, f)
    if not check_identity(E, "left_bol"):
        return False
    kc, ec, ts, fv = K.cells, E.cells, tau.assignment, f.values
    ne, nk = E.order, K.order
    for a in range(ne):
        ta, fa = ts[a], fv[a]
        for b in range(ne):
            tb, fb = ts[b], fv[b]
            ba = ec[b][a] - 1
            aba = ec[a][ba] - 1
            taba, faba = ts[aba], fv[aba]
            lead = kc[ta[fb[a] - 1] - 1][fa[ba] - 1]
            klead = kc[lead - 1]
            # w-quantified equation (c = 1)
            for w in range(nk):
                if klead[taba[w] - 1] != kc[ta[tb[ta[w] - 1] - 1] - 1][lead - 1]:
                    return False
            # c-quantified equation (w = 1)
            for c in range(ne):
                ac = ec[a][c] - 1
                bac = ec[b][ac] - 1
                lhs = klead[faba[c] - 1]
                rhs = kc[kc[ta[tb[fa[c] - 1] - 1] - 1][ta[fb[ac] - 1] - 1] - 1][fa[bac] - 1]
                if lhs != rhs:
                    return False
    return True


def group_conditions(tau: TauMap, f: Cocycle) -> bool:
    """Condition equations for Q(K,E,tau,f) to be a group; False unless E is one."""
    K, E = _groups(tau, f)
    if not check_identity(E, "associative"):
        return False
    kc, ec, ts, fv = K.cells, E.cells, tau.assignment, f.values
    ne, nk = E.order, K.order
    for a in range(ne):
        ta, fa = ts[a], fv[a]
        for b in range(ne):
            tb, fb = ts[b], fv[b]
            ab = ec[a][b] - 1
            tab, f_ab = ts[ab], fv[ab]  # tau_{ab} and the row of f(ab, .)
            fab = fa[b]
            kfab = kc[fab - 1]
            for w in range(nk):
                if kc[ta[tb[w] - 1] - 1][fab - 1] != kfab[tab[w] - 1]:
                    return False
            for c in range(ne):
                bc = ec[b][c] - 1
                if kc[ta[fb[c] - 1] - 1][fa[bc] - 1] != kfab[f_ab[c] - 1]:
                    return False
    return True


def right_nucleus_members(tau: TauMap, f: Cocycle) -> set[tuple[int, int]]:
    """Pairs (w, c) satisfying the right-nucleus condition equations."""
    K, E = _groups(tau, f)
    kc, ec, ts, fv = K.cells, E.cells, tau.assignment, f.values
    ne, nk = E.order, K.order

    def holds(w: int, c: int) -> bool:
        """The equations at (w + 1, c + 1), for all a, b in E."""
        for a in range(ne):
            ta, fa = ts[a], fv[a]
            for b in range(ne):
                ab = ec[a][b] - 1
                bc = ec[b][c] - 1
                lhs = kc[kc[fa[b] - 1][ts[ab][w] - 1] - 1][fv[ab][c] - 1]
                rhs = kc[kc[ta[ts[b][w] - 1] - 1][ta[fv[b][c] - 1] - 1] - 1][fa[bc] - 1]
                if lhs != rhs:
                    return False
        return True

    rnuc_e = nuclei(E).right
    return {(w + 1, c) for c in rnuc_e for w in range(nk) if holds(w, c - 1)}


def commutant_members(tau: TauMap, f: Cocycle) -> set[tuple[int, int]]:
    """Pairs (u, a) satisfying the commutant condition equations."""
    K, E = _groups(tau, f)
    kc, ts, fv = K.cells, tau.assignment, f.values
    ne, nk = E.order, K.order
    inv = [inverse(K, u) for u in K.elements()]
    out: set[tuple[int, int]] = set()
    for a in commutant(E):
        ta, fa = ts[a - 1], fv[a - 1]
        for u in range(nk):
            ku, kuinv = kc[u], kc[inv[u] - 1]
            if any(ta[v] != kc[kuinv[v] - 1][u] for v in range(nk)):
                continue
            if all(
                ts[b][u] == kc[ku[fa[b] - 1] - 1][inv[fv[b][a - 1] - 1] - 1] for b in range(ne)
            ):
                out.add((u + 1, a))
    return out


def is_semihomomorphism(tau: TauMap) -> bool:
    """Whether tau_{a*(b*a)} = tau_a tau_b tau_a for all a, b in E."""
    ec = tau.E.cells
    for a in tau.E.elements():
        ta = tau.at(a)
        for b in tau.E.elements():
            aba = ec[a - 1][ec[b - 1][a - 1] - 1]
            if compose(compose(ta, tau.at(b)), ta) != tau.at(aba):
                return False
    return True


def is_tau_homomorphism(tau: TauMap) -> bool:
    """Whether tau_{a*b} = tau_a tau_b (tau_b first) for all a, b in E."""
    ec = tau.E.cells
    for a in tau.E.elements():
        ta = tau.at(a)
        for b in tau.E.elements():
            if compose(tau.at(b), ta) != tau.at(ec[a - 1][b - 1]):
                return False
    return True


@dataclass(frozen=True)
class KerFix:
    ker: ElementSet  # elements of E with trivial automorphism
    fix: ElementSet  # elements of K fixed by every tau_e


def ker_fix(tau: TauMap) -> KerFix:
    ident = identity_perm(tau.K.order)
    ker = tuple(a for a in tau.E.elements() if tau.at(a) == ident)
    fix = tuple(
        u
        for u in tau.K.elements()
        if all(tau.at(a)[u - 1] == u for a in tau.E.elements())
    )
    return KerFix(ker, fix)


def inversion_aut(K: GroupTable) -> Permutation:
    """u -> u^-1, an automorphism of the abelian group K."""
    return tuple(inverse(K, u) for u in K.elements())


def _order4n_inputs(n: int) -> tuple[TauMap, Cocycle]:
    """K = Zn, E = (Z2)^2, tau the inversion at e1e2 and the identity elsewhere."""
    e4 = elem_abelian_2(2)
    K = cyclic_group(n)
    tau = TauMap(e4, K, (identity_perm(n),) * 3 + (inversion_aut(K),))
    return tau, trivial_cocycle(K, e4)


def named_extension(name: str, **params: int) -> tuple[TauMap, Cocycle]:
    """Ingredients (tau, f) for the named example families.

    order12:        order4n at n = 3.
    order16cyclic:  order4n at n = 4.
    order16elem:    K = (Z2)^2, E = (Z2)^2, tau_{e1e2}: k1 -> k1, k2 -> k1k2.
    order4n:        K = Zn (n > 2), E = (Z2)^2, inversion at e1e2.
    commutant_order: K = Z3, E = (Z2)^m with 2^m > k, |Ker(tau)| = k.
    """
    extra = sorted(set(params) - {"order4n": {"n"}, "commutant_order": {"k"}}.get(name, set()))
    if extra:
        raise BadParams(f"{name} takes no parameter {', '.join(extra)}")
    if name == "order12":
        return _order4n_inputs(3)
    if name == "order16cyclic":
        return _order4n_inputs(4)
    if name == "order16elem":
        K = e4 = elem_abelian_2(2)
        # masks: k1 = 1, k2 = 2; k1 -> k1, k2 -> k1k2 extends linearly
        phi = (1, 2, 4, 3)
        tau = TauMap(e4, K, (identity_perm(4),) * 3 + (phi,))
        return tau, trivial_cocycle(K, e4)
    if name == "order4n":
        n = params.get("n", 0)
        if n <= 2:
            raise BadParams("order4n requires n > 2")
        check_order(4 * n)
        return _order4n_inputs(n)
    if name == "commutant_order":
        k = params.get("k", 0)
        if k <= 2:
            raise BadParams("commutant_order requires k > 2")
        m = 1
        while (1 << m) <= k:
            m += 1
        check_order(3 << m)
        E = elem_abelian_2(m)
        K = cyclic_group(3)
        phi = inversion_aut(K)
        kernel = _kernel_masks(k, m)
        assignment = tuple(
            identity_perm(3) if (a - 1) in kernel else phi for a in E.elements()
        )
        return TauMap(E, K, assignment), trivial_cocycle(K, E)
    raise BadParams(f"unknown example name {name!r}")


def _kernel_masks(k: int, m: int) -> frozenset[int]:
    """Deterministic k-element kernel of (Z2)^m that is not XOR-closed.

    The first k masks in index order, except that a power-of-two k would
    make {0..k-1} a subgroup (tau would become a homomorphism), in which
    case the last mask is bumped by one.
    """
    masks = set(range(k))
    if all((a ^ b) in masks for a in masks for b in masks):
        masks.discard(k - 1)
        masks.add(k)
    return frozenset(masks)


def example_name(name: str, **params: int) -> str:
    """The table name of a named example: name, then one _keyvalue per parameter."""
    return name + "".join(f"_{key}{val}" for key, val in sorted(params.items()))


def build_named_example(name: str, **params: int) -> LoopTable:
    return build_extension(*named_extension(name, **params), name=example_name(name, **params))
