"""bolkit: a workbench for finite loops given by Cayley tables."""

from . import errors
from .loop_core import (
    LoopTable,
    element_order,
    inverse,
    left_divide,
    mul,
    parse_table,
    power,
    render,
    right_divide,
)
from .structure import (
    check_identity,
    commutant,
    commutant_prime_part,
    generated_subloop,
    involution_count,
    is_subloop,
    nuclei,
    right_regular_is_homomorphism,
    structure_report,
)
from .extensions import (
    Cocycle,
    GroupTable,
    TauMap,
    automorphism_group,
    bol_conditions,
    build_extension,
    build_named_example,
    build_semidirect,
    commutant_members,
    cyclic_group,
    elem_abelian_2,
    is_semihomomorphism,
    ker_fix,
    right_nucleus_members,
)
from .gf2 import (
    associated_cocycle,
    build_exceptional,
    build_q9,
    enumerate_q9,
)
from .iso import classify, find_isomorphism, invariant_profile

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
