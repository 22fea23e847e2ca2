"""The generated test catalog: every loop the verification suite touches.

Builders here are deterministic, so catalog tables are byte-stable across
runs.  The "twenty one" are the known Bol loops of order at most 16 with
non-subloop commutant: one of order 12 and twenty of order 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .extensions import (
    Cocycle,
    GroupTable,
    TauMap,
    build_extension,
    build_named_example,
    cyclic_group,
    elem_abelian_2,
    example_name,
    inversion_aut,
    named_extension,
    trivial_cocycle,
    trivial_tau,
)
from .gf2 import build_exceptional, build_q9
from .loop_core import LoopTable, identity_perm, parse_table

# the nine-bit tuples singled out as pairwise non-isomorphic representatives
Q9_REPRESENTATIVE_TUPLES: tuple[tuple[int, ...], ...] = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 0, 0, 1, 1),
    (0, 0, 0, 0, 0, 0, 1, 1, 0),
    (0, 0, 0, 0, 0, 0, 1, 1, 1),
    (0, 0, 0, 0, 0, 1, 1, 1, 1),
    (0, 0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0, 1),
    (0, 0, 1, 0, 0, 0, 0, 1, 1),
    (0, 0, 1, 0, 0, 0, 1, 0, 0),
    (0, 0, 1, 0, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 0, 0, 1, 1, 0),
    (0, 0, 1, 0, 0, 1, 1, 0, 0),
    (1, 0, 1, 0, 0, 0, 0, 0, 0),
    (1, 0, 1, 0, 0, 0, 0, 0, 1),
    (1, 0, 1, 0, 0, 0, 0, 1, 0),
    (1, 0, 1, 0, 0, 0, 0, 1, 1),
    (1, 0, 1, 0, 0, 0, 1, 1, 0),
    (1, 0, 1, 0, 0, 1, 0, 0, 1),
)

# the order4n members of the property catalog and of the extension catalog
ORDER4N_NS = range(3, 9)

FIXTURE_ORDER8 = "order8_example.tbl"
FIXTURE_ORDER16 = "order16_exceptional.tbl"


def fixture_text(name: str) -> str:
    return (resources.files("bolkit") / "fixtures" / name).read_text(encoding="utf-8")


def load_fixture(name: str) -> LoopTable:
    return parse_table(fixture_text(name), name=name)


def q9_representatives() -> list[LoopTable]:
    return [build_q9(t) for t in Q9_REPRESENTATIVE_TUPLES]


def order16_twenty() -> list[LoopTable]:
    """The twenty of order 16: the 19 Q9 representatives, then the exceptional loop."""
    return q9_representatives() + [build_exceptional()]


def twenty_one() -> list[LoopTable]:
    """The 21 known small Bol loops with non-subloop commutant."""
    return [build_named_example("order12")] + order16_twenty()


def dihedral_inputs(n: int) -> tuple[TauMap, Cocycle]:
    """D_n as the semidirect product of Z_n by Z_2 acting by inversion."""
    K = cyclic_group(n)
    E = cyclic_group(2)
    return TauMap(E, K, (identity_perm(n), inversion_aut(K))), trivial_cocycle(K, E)


def dihedral_group(n: int) -> LoopTable:
    return build_extension(*dihedral_inputs(n), name=f"D{n}")


def direct_product(K: GroupTable, E: LoopTable) -> LoopTable:
    return build_extension(trivial_tau(K, E), trivial_cocycle(K, E), name=f"{K.name}x{E.name}")


def _product_factors() -> list[tuple[GroupTable, GroupTable]]:
    """(K, E) of the direct products in the property and extension catalogs."""
    C, E2 = cyclic_group, elem_abelian_2
    return [(C(2), C(2)), (C(3), C(3)), (C(4), E2(2)), (E2(2), E2(2))]


def direct_products() -> list[LoopTable]:
    return [direct_product(K, E) for K, E in _product_factors()]


def order4n_family() -> list[LoopTable]:
    return [build_named_example("order4n", n=n) for n in ORDER4N_NS]


def property_catalog() -> list[LoopTable]:
    """Loops for the commutant structure property battery.

    In order: ``twenty_one()`` (the order-12 loop, the 19 Q9
    representatives, the exceptional loop), ``direct_products()``, then
    ``order4n_family()``.  The slices below read ``twenty_one()`` and its
    20 loops of order 16 out of it.
    """
    return twenty_one() + direct_products() + order4n_family()


# slices of property_catalog(): twenty_one(), order16_twenty()
TWENTY_ONE = slice(0, 21)
ORDER16_TWENTY = slice(1, 21)


@dataclass(frozen=True)
class CatalogExtension:
    name: str
    tau: TauMap
    f: Cocycle

    def build(self) -> LoopTable:
        return build_extension(self.tau, self.f, name=self.name)


def extension_catalog() -> list[CatalogExtension]:
    """Every catalog loop that is constructed as an explicit extension."""
    entries: list[CatalogExtension] = []
    for name, params in (
        ("order12", {}),
        ("order16cyclic", {}),
        ("order16elem", {}),
        *(("order4n", {"n": n}) for n in ORDER4N_NS),
        ("commutant_order", {"k": 3}),
        ("commutant_order", {"k": 4}),
        ("commutant_order", {"k": 5}),
    ):
        entries.append(
            CatalogExtension(example_name(name, **params), *named_extension(name, **params))
        )
    for n in (3, 5, 7):
        entries.append(CatalogExtension(f"D{n}", *dihedral_inputs(n)))
    for K, E in _product_factors():
        entries.append(
            CatalogExtension(f"{K.name}x{E.name}", trivial_tau(K, E), trivial_cocycle(K, E))
        )
    return entries
