"""The mutation gates: small breaks of the source that named tests must catch.

Each entry replaces one exact snippet of one file.  ``tests`` are the
pytest node ids expected to fail on the mutant.  ``tests/test_mutants.py``
checks that every snippet occurs exactly once in its file and that every
named test exists, so the table cannot rot silently; ``mutants/run.py``
applies the entries one at a time and runs the tests.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


PARITY = "tests/test_loop_core.py::test_parse_table_matches_the_reference_decoder"
CONDITIONS = "tests/test_extensions.py::test_condition_equations_agree_with_built_tables_on_random_inputs"
W_EQ = "                if klead[taba[w] - 1] != kc[ta[tb[ta[w] - 1] - 1] - 1][lead - 1]:\n"
BOL_RHS = "                rhs = kc[kc[ta[tb[fa[c] - 1] - 1] - 1][ta[fb[ac] - 1] - 1] - 1][fa[bac] - 1]\n"
GROUP_C_EQ = "                if kc[ta[fb[c] - 1] - 1][fa[bc] - 1] != kfab[f_ab[c] - 1]:\n"
RNUC_LHS = "                lhs = kc[kc[fa[b] - 1][ts[ab][w] - 1] - 1][fv[ab][c] - 1]\n"
RNUC_RHS = "                rhs = kc[kc[ta[ts[b][w] - 1] - 1][ta[fv[b][c] - 1] - 1] - 1][fa[bc] - 1]\n"
COMMUTANT_B = "                ts[b][u] == kc[ku[fa[b] - 1] - 1][inv[fv[b][a - 1] - 1] - 1] for b in range(ne)\n"
WITNESSES = "tests/test_oracle.py::test_witnesses_relabel_onto_the_search_output"
# the p*z block of extend_partial_hom, up to its record check
HOM_CHECK = (
    "            r, q = row1[z - 1], row2[fz - 1]\n"
    "            if img[r]:\n"
    "                if img[r] != q:\n"
    "                    return None\n"
    "            elif used[q] or local1[r] != local2[q]:\n"
)

MUTANTS = (
    Mutant(
        "parse-drops-fallback",
        "src/bolkit/loop_core.py",
        "    if not named:\n",
        "    if False:\n",
        (PARITY,),
    ),
    Mutant(
        "parse-always-falls-back",
        "src/bolkit/loop_core.py",
        "    if not named:\n",
        "    if True:\n",
        ("tests/test_loop_core.py::test_parse_holds_one_int_object_per_element",),
    ),
    Mutant(
        "latin-rows-by-set-size",
        "src/bolkit/loop_core.py",
        "            if frozenset(row) != full:\n",
        "            if len(set(row)) != n:\n",
        (PARITY, "tests/test_loop_core.py::test_from_cells_validation"),
    ),
    Mutant(
        "renumber-keeps-wrong-order",
        "src/bolkit/loop_core.py",
        "        old = (e, *range(1, e), *range(e + 1, n + 1))\n",
        "        old = (e, *range(e + 1, n + 1), *range(1, e))\n",
        (PARITY,),
    ),
    Mutant(
        "bol-closure-seeded-with-middle",
        "src/bolkit/structure.py",
        "    left_bol = _left_bol(rows, tabs, lm)\n",
        "    left_bol = _left_bol(rows, tabs, middle)\n",
        ("tests/test_structure.py::test_structure_report_scans_only_left_and_right_bol",),
    ),
    Mutant(
        "lm-is-middle",
        "src/bolkit/structure.py",
        "    lm = _subloop_where(Q, lambda a, w: refute_left(a, w) if a + 1 in in_middle else w)\n",
        "    lm = middle\n",
        ("tests/test_structure.py::test_kernel_matches_oracle_on_all_small_loops",),
    ),
    Mutant(
        "right-nucleus-seeded-with-commutant",
        "src/bolkit/structure.py",
        "    right = middle if right_bol else _subloop_where(Q, _left_refuter(op_rows, op_tabs), center)\n",
        "    right = middle if right_bol else _subloop_where(Q, _left_refuter(op_rows, op_tabs), com)\n",
        ("tests/test_structure.py::test_kernel_matches_oracle_on_all_small_loops",),
    ),
    # the row-composition kernel: composition order on either encoding
    Mutant(
        "left-bol-translates-swapped",
        "src/bolkit/structure.py",
        "        if rx.translate(ty).translate(tx) != rows[rx[ry[x]]]:\n",
        "        if rx.translate(tx).translate(ty) != rows[rx[ry[x]]]:\n",
        ("tests/test_structure.py::test_kernel_matches_oracle_on_all_small_loops",),
    ),
    Mutant(
        "wide-row-composes-backwards",
        "src/bolkit/structure.py",
        "_WideRow(itemgetter(*self[:])(table))",
        "_WideRow(itemgetter(*table)(self))",
        ("tests/test_structure.py::test_kernel_on_products_across_the_byte_limit",),
    ),
    # R_{p(a)} of Q2 in place of L_{p(a)}: the same on the abelian groups
    # that TauMap checks, so the tree still imports
    Mutant(
        "is-isomorphism-translates-on-the-right",
        "src/bolkit/iso.py",
        "row_p.translate(tabs2[row_p[a]])",
        "row_p.translate(_kernel(_opposite(Q2.cells))[1][row_p[a]])",
        ("tests/test_iso.py::test_is_isomorphism_rejects_what_is_not_one",),
    ),
    Mutant(
        "moufang-is-left-bol",
        "src/bolkit/structure.py",
        '        "moufang": left_bol and right_bol,\n',
        '        "moufang": left_bol,\n',
        ("tests/test_structure.py::test_kernel_matches_oracle_on_relabeled_catalog",),
    ),
    Mutant(
        "power-law-box-of-a-for-b",
        "src/bolkit/verify.py",
        "    kb = (pb[1:5] + [1]).index(1) + 1\n",
        "    kb = (pa[1:5] + [1]).index(1) + 1\n",
        ("tests/test_verify.py::test_power_law_pair_uses_the_box_of_each_element",),
    ),
    Mutant(
        "enumeration-uncapped",
        "src/bolkit/oracle.py",
        "    if n > MAX_ENUMERATION_ORDER:\n",
        "    if False:\n",
        ("tests/test_oracle.py::test_enumerate_all_loops_refuses_order_7_before_backtracking",),
    ),
    Mutant(
        "tau-composes-left-to-right",
        "src/bolkit/extensions.py",
        "            if compose(tau.at(b), ta) != tau.at(ec[a - 1][b - 1]):\n",
        "            if compose(ta, tau.at(b)) != tau.at(ec[a - 1][b - 1]):\n",
        ("tests/test_extensions.py::test_tau_homomorphism_composes_right_to_left",),
    ),
    Mutant(
        "search-drops-LrLr-block",
        "src/bolkit/oracle.py",
        "        if p >= r:\n",
        "        if False:\n",
        ("tests/test_oracle.py::test_search_budget_is_exact",),
    ),
    Mutant(
        "main-catches-nothing",
        "src/bolkit/cli.py",
        "    except (OSError, BolkitError) as exc:\n",
        "    except () as exc:\n",
        (
            "tests/test_cli.py::test_check_missing_file",
            "tests/test_cli.py::test_construct_into_missing_directory",
        ),
    ),
    Mutant(
        "bol-conditions-skip-e",
        "src/bolkit/extensions.py",
        '    if not check_identity(E, "left_bol"):\n',
        "    if False:\n",
        ("tests/test_extensions.py::test_bol_conditions_need_a_left_bol_e",),
    ),
    Mutant(
        "tau-takes-any-k",
        "src/bolkit/extensions.py",
        "        if not isinstance(self.K, GroupTable):\n",
        "        if False:\n",
        ("tests/test_extensions.py::test_tau_needs_k_to_be_a_group_table",),
    ),
    Mutant(
        "main-reports-broken-pipe",
        "src/bolkit/cli.py",
        "    except BrokenPipeError:\n",
        "    except ():\n",
        ("tests/test_cli.py::test_closed_stdout_ends_quietly",),
    ),
    # one-term breaks of the Section 4 condition equations
    Mutant(
        "bol-w-equation-taba-is-ta",
        "src/bolkit/extensions.py",
        W_EQ,
        "                if klead[ta[w] - 1] != kc[ta[tb[ta[w] - 1] - 1] - 1][lead - 1]:\n",
        (CONDITIONS,),
    ),
    Mutant(
        "bol-w-equation-tb-is-ta",
        "src/bolkit/extensions.py",
        W_EQ,
        "                if klead[taba[w] - 1] != kc[ta[ta[ta[w] - 1] - 1] - 1][lead - 1]:\n",
        (CONDITIONS,),
    ),
    Mutant(
        "bol-lead-reads-f-ab",
        "src/bolkit/extensions.py",
        "            lead = kc[ta[fb[a] - 1] - 1][fa[ba] - 1]\n",
        "            lead = kc[ta[fa[b] - 1] - 1][fa[ba] - 1]\n",
        (CONDITIONS,),
    ),
    Mutant(
        "group-tau-ab-is-tau-a",
        "src/bolkit/extensions.py",
        "                if kc[ta[tb[w] - 1] - 1][fab - 1] != kfab[tab[w] - 1]:\n",
        "                if kc[ta[tb[w] - 1] - 1][fab - 1] != kfab[ta[w] - 1]:\n",
        (CONDITIONS,),
    ),
    Mutant(
        "group-f-ab-c-is-f-b-c",
        "src/bolkit/extensions.py",
        GROUP_C_EQ,
        GROUP_C_EQ.replace("kfab[f_ab[c] - 1]", "kfab[fb[c] - 1]"),
        (CONDITIONS,),
    ),
    Mutant(
        "rnuc-tau-ab-is-tau-b",
        "src/bolkit/extensions.py",
        RNUC_LHS,
        RNUC_LHS.replace("[ts[ab][w] - 1]", "[ts[b][w] - 1]"),
        (CONDITIONS,),
    ),
    Mutant(
        "bol-c-equation-f-aba-c-is-f-a-c",
        "src/bolkit/extensions.py",
        "                lhs = klead[faba[c] - 1]\n",
        "                lhs = klead[fa[c] - 1]\n",
        (CONDITIONS,),
    ),
    Mutant(
        "bol-c-equation-f-a-bac-is-f-a-ac",
        "src/bolkit/extensions.py",
        BOL_RHS,
        BOL_RHS.replace("[fa[bac] - 1]", "[fa[ac] - 1]"),
        (CONDITIONS,),
    ),
    Mutant(
        "group-f-a-bc-is-f-a-c",
        "src/bolkit/extensions.py",
        GROUP_C_EQ,
        GROUP_C_EQ.replace("[fa[bc] - 1]", "[fa[c] - 1]"),
        (CONDITIONS,),
    ),
    Mutant(
        "rnuc-f-ab-c-is-f-b-c",
        "src/bolkit/extensions.py",
        RNUC_LHS,
        RNUC_LHS.replace("[fv[ab][c] - 1]", "[fv[b][c] - 1]"),
        (CONDITIONS,),
    ),
    Mutant(
        "rnuc-drops-tau-a-on-f-b-c",
        "src/bolkit/extensions.py",
        RNUC_RHS,
        RNUC_RHS.replace("[ta[fv[b][c] - 1] - 1]", "[fv[b][c] - 1]"),
        (CONDITIONS,),
    ),
    Mutant(
        "rnuc-f-a-bc-is-f-a-c",
        "src/bolkit/extensions.py",
        RNUC_RHS,
        RNUC_RHS.replace("[fa[bc] - 1]", "[fa[c] - 1]"),
        (CONDITIONS,),
    ),
    Mutant(
        "commutant-u-inverse-is-u",
        "src/bolkit/extensions.py",
        "            if any(ta[v] != kc[kuinv[v] - 1][u] for v in range(nk)):\n",
        "            if any(ta[v] != kc[ku[v] - 1][u] for v in range(nk)):\n",
        (CONDITIONS,),
    ),
    Mutant(
        "commutant-drops-inverse-of-f-b-a",
        "src/bolkit/extensions.py",
        COMMUTANT_B,
        COMMUTANT_B.replace("[inv[fv[b][a - 1] - 1] - 1]", "[fv[b][a - 1] - 1]"),
        (CONDITIONS,),
    ),
    Mutant(
        "commutant-f-a-b-is-f-b-a",
        "src/bolkit/extensions.py",
        COMMUTANT_B,
        COMMUTANT_B.replace("ku[fa[b] - 1]", "ku[fv[b][a - 1] - 1]"),
        (CONDITIONS,),
    ),
    # the left-Bol search's relabeling, and the order-8 claim's checks of it
    Mutant(
        "search-pulls-by-sigma",
        "src/bolkit/oracle.py",
        "            pull = itemgetter(*_inverse(sigma))\n",
        "            pull = itemgetter(*sigma)\n",
        ("tests/test_oracle.py::test_search_agrees_with_filtered_enumeration",),
    ),
    Mutant(
        "cover-places-by-s",
        "src/bolkit/oracle.py",
        "            at = gather(inverse)  # at(t)[s(b)] = t[b]\n",
        "            at = gather(s)  # at(t)[s(b)] = t[b]\n",
        (WITNESSES,),
    ),
    Mutant(
        "cover-images-shared-across-listings",
        "src/bolkit/oracle.py",
        "            images = [at(b.translate(label)) for b in rows]\n",
        "            images = [at(b.translate(label)) for b in rows]"
        " if s is cls.listings[0] else images\n",
        (WITNESSES,),
    ),
    Mutant(
        "order8-commutants-unchecked",
        "src/bolkit/oracle.py",
        "    all_sub = all(is_subloop(Q, commutant(Q)) for Q in found)\n",
        "    all_sub = True\n",
        ("tests/test_oracle.py::test_order8_claim_fails_on_a_non_subloop_commutant",),
    ),
    # the record check that cuts isomorphism branches
    Mutant(
        "hom-check-on-wrong-side",
        "src/bolkit/iso.py",
        HOM_CHECK,
        HOM_CHECK.replace("local1[r] != local2[q]", "local1[q] != local2[r]"),
        ("tests/test_iso.py::test_find_isomorphism_returns_lex_least",),
    ),
    Mutant(
        "hom-check-reads-q1-twice",
        "src/bolkit/iso.py",
        HOM_CHECK,
        HOM_CHECK.replace("local1[r] != local2[q]", "local1[r] != local1[q]"),
        ("tests/test_iso.py::test_classify_witnesses_on_the_q9_family",),
    ),
    Mutant(
        "hom-check-dropped",
        "src/bolkit/iso.py",
        HOM_CHECK,
        HOM_CHECK.replace(" or local1[r] != local2[q]", ""),
        ("tests/test_iso.py::test_classify_witnesses_on_the_q9_family",),
    ),
    # the non-isomorphism claims read the classifications
    Mutant(
        "noniso-allows-pairs",
        "src/bolkit/verify.py",
        "        pairwise = all(c <= 1 for c in per_class)\n",
        "        pairwise = all(c <= 2 for c in per_class)\n",
        ("tests/test_verify.py::test_noniso_claim_fails_when_two_listed_tuples_share_a_class",),
    ),
    Mutant(
        "exceptional-reads-first-class",
        "src/bolkit/verify.py",
        "            and self.twenty_one_classes[-1].members == (len(self.twenty_one) - 1,)\n",
        "            and self.twenty_one_classes[0].members == (len(self.twenty_one) - 1,)\n",
        ("tests/test_acceptance.py::test_criterion_05_exceptional",),
    ),
    Mutant(
        "total-counts-every-class-as-order-16",
        "src/bolkit/verify.py",
        "        order16 = sum(loops[cls.representative].order == 16 for cls in classes)\n",
        "        order16 = len(classes)\n",
        ("tests/test_verify.py::test_21_claims_fail_when_the_exceptional_loop_joins_a_q9_class",),
    ),
    # the oracles are gated too: the kernel tests compare against them.
    # A left Bol check that skips the triples with x = y is no gate: in a
    # loop the triples with x != y imply them (y = 1, y = x's left inverse,
    # then x*x with that inverse give L_x^3 = L_{x(xx)})
    Mutant(
        "refcheck-bol-reads-moufang",
        "refcheck/__init__.py",
        "        return all(c[x][c[y][c[x][z]]] == c[c[x][c[y][x]]][z] for x, y, z in triples)\n",
        "        return all(c[x][c[y][c[x][z]]] == c[c[c[x][y]][x]][z] for x, y, z in triples)\n",
        ("tests/test_structure.py::test_kernel_matches_oracle_on_relabeled_catalog",),
    ),
    Mutant(
        "refcheck-nucleus-is-left",
        "refcheck/__init__.py",
        "    nucleus = tuple(a for a in left if a in middle and a in right)\n",
        "    nucleus = left\n",
        ("tests/test_structure.py::test_kernel_matches_oracle_on_relabeled_catalog",),
    ),
)
