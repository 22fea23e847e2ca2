"""The claim-by-claim verification suite behind ``bolkit verify-paper``.

Each claim re-checks one concrete assertion about the constructed loops,
by brute force or by independent oracle, and reports pass/fail with a
one-line summary.  Claim ids are stable identifiers.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from . import catalog
from .extensions import (
    Cocycle,
    GroupTable,
    TauMap,
    automorphism_group,
    bol_conditions,
    build_extension,
    build_named_example,
    commutant_members,
    cyclic_group,
    elem_abelian_2,
    group_conditions,
    is_semihomomorphism,
    is_tau_homomorphism,
    ker_fix,
    named_extension,
    pair_index,
    right_nucleus_members,
)
from .gf2 import (
    classify_q9,
    count_constrained_cmaps,
    enumerate_q9,
    free_parameter_count,
)
from .iso import IsoClass, brute_force_isomorphic, classify, is_isomorphism, isomorphic
from .loop_core import LoopTable, identity_perm, mul, power
from .oracle import (
    Order8Report,
    WitnessedSearch,
    enumerate_all_loops,
    summarize_order8,
    witnessed_search,
)
from .structure import (
    ElementSet,
    Nuclei,
    Row,
    Rows,
    _kernel,
    _kernel_rows,
    _tables,
    _predicates,
    _prime_part,
    commutant,
    generated_subloop,
    is_subloop,
    involution_count,
    right_regular_is_homomorphism,
    subloop_table,
)

RANDOM_SEED = 20160813  # fixed seed for the randomized battery


def _powers(row: Row) -> list[int]:
    """a^0..a^8, walking L_a from 1, for the element a whose row is ``row``."""
    walk = [1]
    for _ in range(8):
        walk.append(row[walk[-1] - 1])
    return walk


def _power_law_holds(cells: Rows, pa: list[int], pb: list[int]) -> bool:
    """(a^k b^l)(a^m b^n) = a^(k+m) b^(l+n) for 0 <= k, l, m, n < 5.

    ``pa`` and ``pb`` are a^0..a^8 and b^0..b^8.  L_a is a permutation, so
    a^k = a^(k mod p_a) for the period p_a, the least m >= 1 with a^m = 1:
    each equation is the one at its residues, and only k, m < k_a =
    min(p_a, 5) and l, n < k_b = min(p_b, 5) are checked.  With G[i][j] =
    a^i b^j (i < 2k_a - 1, j < 2k_b - 1) stored row by row, the row of
    G[k][l] read at the columns G[m][n] must equal G[k+m][l+n].
    """
    # k_a is the first m in 1..4 with a^m = 1, else 5
    ka = (pa[1:5] + [1]).index(1) + 1
    kb = (pb[1:5] + [1]).index(1) + 1
    w = 2 * kb - 1
    grid = [row[j - 1] for row in [cells[i - 1] for i in pa[: 2 * ka - 1]] for j in pb[:w]]
    box = [m * w + n for m in range(ka) for n in range(kb)]
    columns = [grid[c] - 1 for c in box]
    for k in range(ka):
        for l in range(kb):
            corner = k * w + l
            row = cells[grid[corner] - 1]
            if [row[c] for c in columns] != [grid[corner + c] for c in box]:
                return False
    return True


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    citation: str
    passed: bool
    details: str
    elapsed: float = 0.0


class VerificationSuite:
    """Shared state for the verification run; builds everything lazily."""

    # cached building blocks ------------------------------------------------

    @cached_property
    def fixture8(self) -> LoopTable:
        return catalog.load_fixture(catalog.FIXTURE_ORDER8)

    @cached_property
    def fixture16(self) -> LoopTable:
        return catalog.load_fixture(catalog.FIXTURE_ORDER16)

    @cached_property
    def q9_all(self) -> list[LoopTable]:
        return enumerate_q9()

    @cached_property
    def q9_classes(self) -> list[IsoClass]:
        """``classify_q9(q9_all)``: the classes and witness maps that
        ``classify(q9_all)`` gives, found by classifying the 64 coset
        minima only; every other member's map is a coboundary relabeling
        onto its coset minimum followed by that minimum's map."""
        return classify_q9(self.q9_all)

    @cached_property
    def property_catalog(self) -> list[LoopTable]:
        """``catalog.property_catalog()``, built once; the families below are slices of it."""
        return catalog.property_catalog()

    @property
    def twenty_one(self) -> list[LoopTable]:
        return self.property_catalog[catalog.TWENTY_ONE]

    @cached_property
    def twenty_one_classes(self) -> list[IsoClass]:
        """``classify(twenty_one)``: the classes of the 21, by first member."""
        return classify(self.twenty_one)

    @property
    def order16_twenty(self) -> list[LoopTable]:
        return self.property_catalog[catalog.ORDER16_TWENTY]

    @property
    def exceptional(self) -> LoopTable:
        return self.order16_twenty[-1]

    @cached_property
    def order8_search(self) -> WitnessedSearch:
        return witnessed_search(8)

    @cached_property
    def order8_report(self) -> Order8Report:
        return summarize_order8(self.order8_search)

    # claims ----------------------------------------------------------------

    def claim_sec3_example_fixture(self) -> tuple[bool, str]:
        T = self.fixture8
        com, nuc, flags = _predicates(T)
        ok = (
            T.order == 8
            and flags["left_bol"]
            and not flags["associative"]
            and nuc.left == (1, 2)
            and nuc.middle == (1, 2)
            and nuc.center == (1, 2)
            and com == (1, 2, 3, 4)
            and nuc.right == (1, 2, 3, 4)
            and generated_subloop(T, (4, 5)) == tuple(range(1, 9))
        )
        return ok, "Z=LNuc={1,2}, C=RNuc={1,2,3,4}, <4,5> generates"

    def claim_sec5_order12(self) -> tuple[bool, str]:
        tau, f = named_extension("order12")
        Q = build_extension(tau, f)
        kf = ker_fix(tau)
        com, _, flags = _predicates(Q)
        ok = (
            Q.order == 12
            and flags["left_bol"]
            and not flags["associative"]
            and len(com) == 3
            and not is_subloop(Q, com)
            and len(com) == len(kf.fix) * len(kf.ker) == 3
            # Ker(tau) is not closed: tau is a semihomomorphism but not a homomorphism
            and is_semihomomorphism(tau)
            and not is_tau_homomorphism(tau)
        )
        return ok, f"order 12, |C|=3 non-subloop, |Fix|*|Ker|={len(kf.fix)}*{len(kf.ker)}"

    def claim_sec5_order16_semidirect(self) -> tuple[bool, str]:
        Qc = build_named_example("order16cyclic")
        Qe = build_named_example("order16elem")
        parts = []
        ok = True
        for Q, inv_expected in ((Qc, 9), (Qe, 13)):
            com, _, flags = _predicates(Q)
            inv = involution_count(Q)
            good = (
                Q.order == 16
                and flags["left_bol"]
                and not flags["associative"]
                and len(com) == 6
                and inv == inv_expected
            )
            ok = ok and good
            parts.append(f"{Q.name}: |C|={len(com)} involutions={inv}")
        ok = ok and not isomorphic(Qc, Qe)
        return ok, "; ".join(parts) + "; non-isomorphic"

    def claim_sec6_q9_family(self) -> tuple[bool, str]:
        """Every q9 table is left Bol of order 16, with |C| = 6, C not a
        subloop and C inside the right nucleus, checked once per class.

        The properties are checked on each class representative of
        ``q9_classes``, and each member's witness map is checked product by
        product with ``is_isomorphism``.  A member counts as a violation
        when its representative fails or its map is not an isomorphism onto
        the representative.  An isomorphism preserves the order, the left
        Bol identity, the commutant and its size, subloops and the right
        nucleus, so a member with a verified map passes exactly when its
        representative does: while every map holds, the count is the count
        a check of every table would give.

        Most maps were not found by a search: ``classify_q9`` composes a
        coboundary relabeling with a search map.  Each is still checked
        against both tables, so a wrong relabeling counts as a violation.
        A bad table that is the least member of its coset of eight is
        classified in place of its coset mates, and their maps onto it
        fail too: it counts eight violations, any other bad table one.
        """
        loops = self.q9_all
        bad = 0
        for cls in self.q9_classes:
            R = loops[cls.representative]
            com, nuc, flags = _predicates(R)
            rep_ok = (
                R.order == 16
                and flags["left_bol"]
                and len(com) == 6
                and not is_subloop(R, com)
                and set(com) <= set(nuc.right)
            )
            for m, p in zip(cls.members, cls.maps, strict=True):
                if not (rep_ok and is_isomorphism(loops[m], R, p)):
                    bad += 1
        return bad == 0, f"512 loops, {bad} violations of Bol/|C|=6/non-subloop/C<=RNuc"

    def claim_sec6_19_noniso(self) -> tuple[bool, str]:
        """The 19 listed tuples are pairwise non-isomorphic, and the classes
        of ``q9_classes`` hold one listed tuple each.

        Both facts are read off ``q9_classes``: the listed tuples are
        pairwise non-isomorphic exactly when no class holds two of them.
        """
        classes = self.q9_classes
        # enumerate_q9 is lexicographic, so a tuple's position is its binary value
        listed_positions = {
            int("".join(map(str, t)), 2) for t in catalog.Q9_REPRESENTATIVE_TUPLES
        }
        per_class = [
            sum(1 for m in cls.members if m in listed_positions) for cls in classes
        ]
        pairwise = all(c <= 1 for c in per_class)
        matched = len(classes) == 19 and all(c == 1 for c in per_class)
        ok = pairwise and matched
        return ok, f"pairwise non-isomorphic={pairwise}, classes={len(classes)}, one listed tuple per class={all(c == 1 for c in per_class)}"

    def claim_sec6_exceptional(self) -> tuple[bool, str]:
        """The exceptional loop has the stated structure, is isomorphic to
        the printed fixture, and is alone in its class of ``twenty_one_classes``."""
        X = self.exceptional
        com, nuc, flags = _predicates(X)
        rnuc_tbl = subloop_table(X, nuc.right)
        rnuc_flags = _predicates(rnuc_tbl).flags
        involutory = all(mul(X, a, a) == 1 for a in X.elements())
        ok = (
            flags["left_bol"]
            and involutory
            and nuc.left == (1,)
            and nuc.center == (1,)
            and len(nuc.right) == 8
            and rnuc_flags["associative"]
            and rnuc_flags["commutative"]
            and all(mul(rnuc_tbl, a, a) == 1 for a in rnuc_tbl.elements())
            and com == (1, 2, 5, 7)
            and generated_subloop(X, com) == nuc.right
            and isomorphic(X, self.fixture16)
            # X is the last of the 21, so its class is the last, and alone there
            and self.twenty_one_classes[-1].members == (len(self.twenty_one) - 1,)
        )
        return ok, "involutory, LNuc=Z={1}, RNuc elem-abelian of order 8 = <C>, C={1,2,5,7}, matches fixture, new class"

    def claim_sec5_21_total(self) -> tuple[bool, str]:
        """The classes of the 21 number 21, and 20 of them are of order 16."""
        classes = self.twenty_one_classes
        loops = self.twenty_one
        order16 = sum(loops[cls.representative].order == 16 for cls in classes)
        ok = order16 == 20 and len(classes) == 21
        return ok, f"order-16 classes={order16}, with order-12 loop total={len(classes)}"

    def claim_sec3_coprime3_order16(self) -> tuple[bool, str]:
        bad = []
        for Q in self.order16_twenty:
            H = generated_subloop(Q, commutant(Q))
            sub_flags = _predicates(subloop_table(Q, H)).flags
            if not (
                sub_flags["associative"]
                and sub_flags["commutative"]
                and Q.order % len(H) == 0
                and right_regular_is_homomorphism(Q, H)
            ):
                bad.append(Q.name)
        return not bad, f"20 loops: <C> abelian group, |<C>| divides 16, R|<C> homomorphism; failures={bad or 'none'}"

    def claim_sec2_commutant_props(self) -> tuple[bool, str]:
        loops = self.property_catalog
        bad: list[str] = []
        for Q in loops:
            com, nuc, flags = _predicates(Q)
            if not flags["left_bol"]:
                bad.append(f"{Q.name}:not-bol")
                continue
            if not self._commutant_property_battery(Q, com, nuc):
                bad.append(Q.name or "?")
        return not bad, f"{len(loops)} catalog loops; failures={bad or 'none'}"

    @staticmethod
    def _commutant_property_battery(Q: LoopTable, com: ElementSet, nuc: Nuclei) -> bool:
        """The Section 2 commutant facts, checked on whole rows and columns.

        ``com`` and ``nuc`` are the commutant and the nuclei of Q.  The arms
        run in this order, and the first that fails decides: the power law
        (``_power_law_holds`` on every ordered pair of C), the square
        criterion, the prime parts and the cube identities.  The cube
        identities (xb)a^3 = (xa^3)b = x(a^3 b) and (x^3 a)b = x^3(ab) are
        compared as whole columns on the ``structure`` kernel of the
        opposite table (``_kernel_rows``): ``rows[y - 1]`` is the column
        x -> x*y, and ``col.translate(tabs[y - 1])`` is the column
        x -> col(x)*y; the row of cubes x -> x^3 starts the second
        identity, read through the table of R_a then R_b.  Every ordered
        pair is checked and ab = ba, so (x^3 b)a = x^3(ab) is the check
        made for the pair (b, a).
        """
        cells = Q.cells
        lnuc, rnuc = set(nuc.left), set(nuc.right)
        pw = {a: _powers(cells[a - 1]) for a in com}
        if not all(_power_law_holds(cells, pw[a], pw[b]) for a in com for b in com):
            return False
        for c in com:
            if (mul(Q, c, c) in lnuc) != (c in rnuc):
                return False
        for m in (1, 2, 3):
            if not is_subloop(Q, _prime_part(Q, com, 2 * m)):
                return False
        _, rows = _kernel_rows(cells)
        tabs = _tables(rows)
        (cubes,), _ = _kernel(([power(Q, x, 3) for x in Q.elements()],))
        for a in com:
            a3 = pw[a][3]
            for b in com:
                if not (
                    rows[b - 1].translate(tabs[a3 - 1])
                    == rows[a3 - 1].translate(tabs[b - 1])
                    == rows[mul(Q, a3, b) - 1]
                ):
                    return False
                ab = mul(Q, a, b)
                if cubes.translate(tabs[a - 1].translate(tabs[b - 1])) != cubes.translate(tabs[ab - 1]):
                    return False
        return True

    def claim_sec4_condition_oracle(self) -> tuple[bool, str]:
        rng = random.Random(RANDOM_SEED)
        inputs = [(e.name, e.tau, e.f) for e in catalog.extension_catalog()]
        small: list[GroupTable] = [
            cyclic_group(2),
            cyclic_group(3),
            cyclic_group(4),
            elem_abelian_2(2),
        ]
        auts = {g.name: automorphism_group(g) for g in small}
        for t in range(100):
            K = small[rng.randrange(len(small))]
            E = small[rng.randrange(len(small))]
            assign = [identity_perm(K.order)] + [
                auts[K.name][rng.randrange(len(auts[K.name]))]
                for _ in range(E.order - 1)
            ]
            tau = TauMap(E, K, tuple(assign))
            values = [[1] * E.order for _ in range(E.order)]
            for a in range(1, E.order):
                for b in range(1, E.order):
                    values[a][b] = rng.randrange(1, K.order + 1)
            f = Cocycle(E, K, tuple(tuple(r) for r in values))
            inputs.append((f"random{t}", tau, f))
        bad = []
        for name, tau, f in inputs:
            Q = build_extension(tau, f)
            com, nuc, flags = _predicates(Q)
            if bol_conditions(tau, f) != flags["left_bol"]:
                bad.append(f"{name}:bol")
            if group_conditions(tau, f) != flags["associative"]:
                bad.append(f"{name}:group")
            rn = sorted(pair_index(tau.K, w, c) for w, c in right_nucleus_members(tau, f))
            if tuple(rn) != nuc.right:
                bad.append(f"{name}:rnuc")
            cm = sorted(pair_index(tau.K, u, a) for u, a in commutant_members(tau, f))
            if tuple(cm) != com:
                bad.append(f"{name}:commutant")
        return not bad, f"{len(inputs)} inputs (catalog + 100 random); disagreements={bad or 'none'}"

    def claim_sec5_order8_oracle(self) -> tuple[bool, str]:
        rep = self.order8_report
        return not rep.failures(), (
            f"tables={rep.tables_found}, classes={rep.class_count} "
            f"(associative={rep.associative_classes}, nonassociative={rep.nonassociative_classes}), "
            f"all commutants subloops={rep.all_commutants_subloops}"
        )

    def claim_sec6_free_params(self) -> tuple[bool, str]:
        count = count_constrained_cmaps()
        ok = count == 512 and free_parameter_count(3) == 9 and free_parameter_count(4) == 32
        return ok, f"dim-3 solutions={count}=2^9, formula(3)={free_parameter_count(3)}, formula(4)={free_parameter_count(4)}"

    def claim_tiny_iso_oracle(self) -> tuple[bool, str]:
        for n in range(1, 6):
            loops = enumerate_all_loops(n)
            classes = classify(loops)
            fast = {frozenset(cls.members) for cls in classes}
            slow_parts: list[set[int]] = []
            for i in range(len(loops)):
                for part in slow_parts:
                    j = min(part)
                    if brute_force_isomorphic(loops[i], loops[j]):
                        part.add(i)
                        break
                else:
                    slow_parts.append({i})
            if fast != {frozenset(p) for p in slow_parts}:
                return False, f"disagreement at order {n}"
        return True, "orders 1..5 (63 loops): classify matches all-bijections brute force"

    # runner ----------------------------------------------------------------

    def claim_definitions(self) -> list[tuple[str, str, Callable[[], tuple[bool, str]]]]:
        return [
            (
                "sec3-example-fixture",
                "the 8x8 fixture is a nonassociative left Bol loop with the stated commutant, nuclei, and generators",
                self.claim_sec3_example_fixture,
            ),
            (
                "sec5-order12-example",
                "the order-12 semidirect loop has a non-subloop commutant of order 3 = |Fix|*|Ker|",
                self.claim_sec5_order12,
            ),
            (
                "sec5-order16-semidirect",
                "the two order-16 semidirect loops have |C|=6 and 9 resp. 13 involutions, and are non-isomorphic",
                self.claim_sec5_order16_semidirect,
            ),
            (
                "sec6-q9-family",
                "all 512 nine-parameter loops are left Bol of order 16 with non-subloop commutant of size 6 inside the right nucleus",
                self.claim_sec6_q9_family,
            ),
            (
                "sec6-19-noniso",
                "the 19 listed parameter tuples are pairwise non-isomorphic and classify the whole family",
                self.claim_sec6_19_noniso,
            ),
            (
                "sec6-exceptional",
                "the exceptional order-16 loop has the stated structure, matches the printed fixture, and extends the 19 classes",
                self.claim_sec6_exceptional,
            ),
            (
                "sec5-21-total",
                "there are 20 classes of order 16 plus the order-12 loop: 21 in total",
                self.claim_sec5_21_total,
            ),
            (
                "sec3-coprime3-order16",
                "for the 20 order-16 loops the commutant generates an abelian group whose order divides 16, with R restricted to it a homomorphism",
                self.claim_sec3_coprime3_order16,
            ),
            (
                "sec2-commutant-props",
                "power laws, the square criterion, prime-part subloops, and the cube identities hold across the catalog",
                self.claim_sec2_commutant_props,
            ),
            (
                "sec4-condition-oracle",
                "extension condition predicates agree with direct table checks on the catalog and 100 random inputs",
                self.claim_sec4_condition_oracle,
            ),
            (
                "sec5-order8-oracle",
                "exhaustive order-8 search: every left Bol loop of order 8 has a subloop commutant; 5 group classes",
                self.claim_sec5_order8_oracle,
            ),
            (
                "sec6-free-params",
                "the constrained dim-3 parameter space has exactly 2^9 solutions, matching the free-bit formula",
                self.claim_sec6_free_params,
            ),
            (
                "tiny-iso-oracle",
                "classification agrees with all-bijections brute force on every loop of order at most 5",
                self.claim_tiny_iso_oracle,
            ),
        ]

    def run(self) -> list[ClaimResult]:
        results = []
        for claim_id, citation, fn in self.claim_definitions():
            t0 = time.monotonic()
            try:
                passed, details = fn()
            except Exception as exc:  # a crashed claim is a failed claim
                passed, details = False, f"error: {exc!r}"
            elapsed = time.monotonic() - t0
            results.append(ClaimResult(claim_id, citation, passed, details, elapsed))
        return results


def report_lines(results: list[ClaimResult]) -> list[str]:
    # no timing, so that the text is byte-identical across runs; the JSON lines hold the times
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"claim {r.claim_id}: {status} ({r.citation})")
        lines.append(f"  {r.details}")
    total = sum(r.passed for r in results)
    lines.append(f"claims passed: {total}/{len(results)}")
    return lines


def report_json_lines(results: list[ClaimResult]) -> list[str]:
    """One JSON object per claim, in suite order: id, passed, details, elapsed_s."""
    return [
        json.dumps(
            {"id": r.claim_id, "passed": r.passed, "details": r.details, "elapsed_s": r.elapsed}
        )
        for r in results
    ]
