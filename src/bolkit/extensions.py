"""Left-nuclear extensions Q(K, E, tau, f) and the semidirect special case.

An extension multiplies pairs by (u,a)(v,b) = (u * tau_a(v) * f(a,b), a*b)
with K a group, E a loop, tau a map E -> Aut(K) with tau_1 = 1, and f a
cocycle (f(1,a) = f(a,1) = 1).  Pairs are encoded as table indices by

    idx(u, a) = u + |K| * (a - 1)        (u, a 1-based)

so constructed tables are byte-reproducible.  Products of automorphisms
follow function composition: "tau_a tau_b" means apply tau_b, then tau_a.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParams, NotAssociative, TooLarge
from .iso import _element_data, _isomorphisms
from .loop_core import LoopTable, Permutation, identity_perm, inverse, mul
from .structure import ElementSet, check_identity, commutant, nuclei

MAX_AUT_ORDER = 64


class GroupTable(LoopTable):
    """A loop table whose associativity has been verified."""

    @classmethod
    def from_table(cls, t: LoopTable) -> "GroupTable":
        if not check_identity(t, "associative"):
            raise NotAssociative(f"{t!r} is not a group")
        return cls(t.order, t.cells, t.name)


def cyclic_group(n: int, name: str | None = None) -> GroupTable:
    """The cyclic group of order n; element i represents i-1 mod n."""
    if n < 1:
        raise BadParams("cyclic group order must be positive")
    cells = [[(a + b) % n + 1 for b in range(n)] for a in range(n)]
    return GroupTable(n, tuple(tuple(r) for r in cells), name or f"Z{n}")


def elem_abelian_2(m: int, name: str | None = None) -> GroupTable:
    """(Z_2)^m; element i represents the bitmask i-1, products are XOR."""
    if m < 0:
        raise BadParams("dimension must be nonnegative")
    n = 1 << m
    cells = [[((a ^ b) + 1) for b in range(n)] for a in range(n)]
    return GroupTable(n, tuple(tuple(r) for r in cells), name or f"Z2^{m}")


def is_automorphism(K: LoopTable, p: Permutation) -> bool:
    n = K.order
    if len(p) != n or sorted(p) != list(range(1, n + 1)) or p[0] != 1:
        return False
    cells = K.cells
    return all(
        p[cells[u][v] - 1] == cells[p[u] - 1][p[v] - 1] for u in range(n) for v in range(n)
    )


def automorphism_group(K: GroupTable) -> list[Permutation]:
    """All automorphisms of K, canonically sorted (identity first).

    The isomorphism search from K to itself, which lists maps in sorted
    order; capped at |K| <= MAX_AUT_ORDER.
    """
    if K.order > MAX_AUT_ORDER:
        raise TooLarge(f"automorphism enumeration capped at order {MAX_AUT_ORDER}")
    data = _element_data(K)
    return list(_isomorphisms(K, K, data, data))


@dataclass(frozen=True)
class TauMap:
    """Assignment of an automorphism of K to each element of E, tau_1 = 1."""

    E: LoopTable
    K: GroupTable
    assignment: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        if len(self.assignment) != self.E.order:
            raise BadParams("tau must assign one automorphism per element of E")
        if self.assignment[0] != identity_perm(self.K.order):
            raise BadParams("tau_1 must be the identity automorphism")
        for p in self.assignment:
            if not is_automorphism(self.K, p):
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


def build_extension(
    K: GroupTable, E: LoopTable, tau: TauMap, f: Cocycle, name: str | None = None
) -> LoopTable:
    """The table of Q(K, E, tau, f) under the fixed pair encoding."""
    nk, ne = K.order, E.order
    n = nk * ne
    kc = K.cells
    cells = [[0] * n for _ in range(n)]
    for a in range(1, ne + 1):
        ta = tau.at(a)
        fa = f.values[a - 1]
        for b in range(1, ne + 1):
            c = E.cells[a - 1][b - 1]
            fab = fa[b - 1]
            base_a, base_b, base_c = nk * (a - 1), nk * (b - 1), nk * (c - 1)
            for u in range(1, nk + 1):
                ru = kc[u - 1]
                row = cells[base_a + u - 1]
                for v in range(1, nk + 1):
                    w = kc[ru[ta[v - 1] - 1] - 1][fab - 1]
                    row[base_b + v - 1] = base_c + w
    if name is None:
        name = f"ext({K.name or nk},{E.name or ne})"
    return LoopTable.from_cells(cells, name=name)


def build_semidirect(K: GroupTable, E: LoopTable, tau: TauMap, name: str | None = None) -> LoopTable:
    """Q(K, E, tau): the extension with the all-identity cocycle."""
    return build_extension(K, E, tau, trivial_cocycle(K, E), name=name)


def bol_conditions(K: GroupTable, E: LoopTable, tau: TauMap, f: Cocycle) -> bool:
    """Condition equations for Q(K,E,tau,f) to be left Bol (E itself left Bol).

    Two equations: one over a,b,c in E with w = 1, one over a,b in E and
    all w in K; together they are equivalent to the Bol identity on the
    built table.
    """
    ec = E.cells
    ne, nk = E.order, K.order
    for a in range(1, ne + 1):
        ta = tau.at(a)
        for b in range(1, ne + 1):
            tb = tau.at(b)
            ba = ec[b - 1][a - 1]
            aba = ec[a - 1][ba - 1]
            taba = tau.at(aba)
            lead = mul(K, ta[f.at(b, a) - 1], f.at(a, ba))
            # w-quantified equation (c = 1)
            for w in range(1, nk + 1):
                if mul(K, lead, taba[w - 1]) != mul(K, ta[tb[ta[w - 1] - 1] - 1], lead):
                    return False
            # c-quantified equation (w = 1)
            for c in range(1, ne + 1):
                ac = ec[a - 1][c - 1]
                bac = ec[b - 1][ac - 1]
                lhs = mul(K, lead, f.at(aba, c))
                rhs = mul(
                    K,
                    mul(K, ta[tb[f.at(a, c) - 1] - 1], ta[f.at(b, ac) - 1]),
                    f.at(a, bac),
                )
                if lhs != rhs:
                    return False
    return True


def group_conditions(K: GroupTable, E: LoopTable, tau: TauMap, f: Cocycle) -> bool:
    """Condition equations for Q(K,E,tau,f) to be a group."""
    if not check_identity(E, "associative"):
        return False
    ec = E.cells
    ne, nk = E.order, K.order
    for a in range(1, ne + 1):
        ta = tau.at(a)
        for b in range(1, ne + 1):
            tb = tau.at(b)
            ab = ec[a - 1][b - 1]
            tab = tau.at(ab)
            fab = f.at(a, b)
            for w in range(1, nk + 1):
                if mul(K, ta[tb[w - 1] - 1], fab) != mul(K, fab, tab[w - 1]):
                    return False
            for c in range(1, ne + 1):
                bc = ec[b - 1][c - 1]
                if mul(K, ta[f.at(b, c) - 1], f.at(a, bc)) != mul(K, fab, f.at(ab, c)):
                    return False
    return True


def right_nucleus_members(
    K: GroupTable, E: LoopTable, tau: TauMap, f: Cocycle
) -> set[tuple[int, int]]:
    """Pairs (w, c) satisfying the right-nucleus condition equations."""
    ec = E.cells
    ne, nk = E.order, K.order
    rnuc_e = set(nuclei(E).right)
    out: set[tuple[int, int]] = set()
    for c in range(1, ne + 1):
        if c not in rnuc_e:
            continue
        for w in range(1, nk + 1):
            ok = True
            for a in range(1, ne + 1):
                ta = tau.at(a)
                for b in range(1, ne + 1):
                    ab = ec[a - 1][b - 1]
                    bc = ec[b - 1][c - 1]
                    lhs = mul(K, mul(K, f.at(a, b), tau.at(ab)[w - 1]), f.at(ab, c))
                    rhs = mul(
                        K, mul(K, ta[tau.at(b)[w - 1] - 1], ta[f.at(b, c) - 1]), f.at(a, bc)
                    )
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.add((w, c))
    return out


def commutant_members(
    K: GroupTable, E: LoopTable, tau: TauMap, f: Cocycle
) -> set[tuple[int, int]]:
    """Pairs (u, a) satisfying the commutant condition equations."""
    ne, nk = E.order, K.order
    com_e = set(commutant(E))
    out: set[tuple[int, int]] = set()
    for a in range(1, ne + 1):
        if a not in com_e:
            continue
        ta = tau.at(a)
        for u in range(1, nk + 1):
            uinv = inverse(K, u)
            if any(ta[v - 1] != mul(K, mul(K, uinv, v), u) for v in range(1, nk + 1)):
                continue
            if all(
                tau.at(b)[u - 1]
                == mul(K, mul(K, u, f.at(a, b)), inverse(K, f.at(b, a)))
                for b in range(1, ne + 1)
            ):
                out.add((u, a))
    return out


def is_semihomomorphism(E: LoopTable, tau: TauMap) -> bool:
    """Whether tau_{a*(b*a)} = tau_a tau_b tau_a for all a, b in E."""
    ec = E.cells
    ne = E.order
    for a in range(1, ne + 1):
        ta = tau.at(a)
        for b in range(1, ne + 1):
            tb = tau.at(b)
            aba = ec[a - 1][ec[b - 1][a - 1] - 1]
            comp = tuple(ta[tb[ta[w] - 1] - 1] for w in range(len(ta)))
            if comp != tau.at(aba):
                return False
    return True


def is_tau_homomorphism(E: LoopTable, tau: TauMap) -> bool:
    """Whether tau_{a*b} = tau_a tau_b for all a, b in E."""
    ec = E.cells
    for a in range(1, E.order + 1):
        ta = tau.at(a)
        for b in range(1, E.order + 1):
            tb = tau.at(b)
            comp = tuple(ta[tb[w] - 1] for w in range(len(ta)))
            if comp != tau.at(ec[a - 1][b - 1]):
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


def _inversion_aut(K: GroupTable) -> Permutation:
    return tuple(inverse(K, u) for u in K.elements())


def named_extension(name: str, **params: int) -> tuple[GroupTable, LoopTable, TauMap, Cocycle]:
    """Ingredients (K, E, tau, f) for the named example families.

    order12:        K = Z3, E = (Z2)^2, tau nontrivial only at e1e2.
    order16cyclic:  K = Z4, same tau shape (inversion at e1e2).
    order16elem:    K = (Z2)^2, tau_{e1e2}: k1 -> k1, k2 -> k1k2.
    order4n:        K = Zn (n > 2), E = (Z2)^2, inversion at e1e2.
    commutant_order: K = Z3, E = (Z2)^m with 2^m > k, |Ker(tau)| = k.
    """
    e4 = elem_abelian_2(2)
    ident4 = identity_perm(4)
    if name == "order12":
        K = cyclic_group(3)
        tau = TauMap(e4, K, (identity_perm(3),) * 3 + (_inversion_aut(K),))
        return K, e4, tau, trivial_cocycle(K, e4)
    if name == "order16cyclic":
        K = cyclic_group(4)
        tau = TauMap(e4, K, (ident4,) * 3 + (_inversion_aut(K),))
        return K, e4, tau, trivial_cocycle(K, e4)
    if name == "order16elem":
        K = elem_abelian_2(2)
        # masks: k1 = 1, k2 = 2; k1 -> k1, k2 -> k1k2 extends linearly
        phi = (1, 2, 4, 3)
        tau = TauMap(e4, K, (ident4,) * 3 + (phi,))
        return K, e4, tau, trivial_cocycle(K, e4)
    if name == "order4n":
        n = params.get("n", 0)
        if n <= 2:
            raise BadParams("order4n requires n > 2")
        K = cyclic_group(n)
        tau = TauMap(e4, K, (identity_perm(n),) * 3 + (_inversion_aut(K),))
        return K, e4, tau, trivial_cocycle(K, e4)
    if name == "commutant_order":
        k = params.get("k", 0)
        if k <= 2:
            raise BadParams("commutant_order requires k > 2")
        m = 1
        while (1 << m) <= k:
            m += 1
        E = elem_abelian_2(m)
        K = cyclic_group(3)
        phi = _inversion_aut(K)
        kernel = _kernel_masks(k, m)
        assignment = tuple(
            identity_perm(3) if (a - 1) in kernel else phi for a in E.elements()
        )
        tau = TauMap(E, K, assignment)
        return K, E, tau, trivial_cocycle(K, E)
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


def build_named_example(name: str, **params: int) -> LoopTable:
    K, E, tau, f = named_extension(name, **params)
    suffix = "".join(f"_{key}{val}" for key, val in sorted(params.items()))
    return build_extension(K, E, tau, f, name=f"{name}{suffix}")
