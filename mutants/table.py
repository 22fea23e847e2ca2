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
PRODUCTS = "tests/test_extensions.py::test_build_extension_matches_the_products"
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
        "    except KeyError:\n",
        "    except ():\n",
        (PARITY,),
    ),
    Mutant(
        "parse-always-falls-back",
        "src/bolkit/loop_core.py",
        "        entries = itemgetter(*tokens[1:])(names)\n",
        "        raise KeyError\n",
        ("tests/test_loop_core.py::test_parse_holds_one_int_object_per_element",),
    ),
    Mutant(
        "latin-rows-by-set-size",
        "src/bolkit/loop_core.py",
        "            if frozenset(row) != full_set:\n",
        "            if len(set(row)) != n:\n",
        (PARITY,),
    ),
    # a column read as the window at j: nearly every table fails, so
    # test_loop_core.py fails to import and a CLI test is named
    Mutant(
        "latin-columns-read-as-windows",
        "src/bolkit/loop_core.py",
        "full.translate(None, flat[j::n])",
        "full.translate(None, flat[j : j + n])",
        ("tests/test_cli.py::test_check_z2",),
    ),
    Mutant(
        "latin-columns-read-as-rows",
        "src/bolkit/loop_core.py",
        "full.translate(None, flat[j::n])",
        "full.translate(None, flat[j * n : j * n + n])",
        (PARITY,),
    ),
    Mutant(
        "latin-skips-the-last-row",
        "src/bolkit/loop_core.py",
        "        for i in range(0, n * n, n):\n",
        "        for i in range(0, n * n - n, n):\n",
        (PARITY,),
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
    # the left Bol closure: a*b and b*a are not in S in general, so a
    # partial Bol loop of PARTIAL_BOL_TEXTS is called left Bol
    Mutant(
        "bol-map-is-the-product",
        "src/bolkit/structure.py",
        "(ra[rb[a]], rb[ra[b]])",
        "(ra[b], rb[a])",
        ("tests/test_structure.py::test_kernel_matches_oracle_on_all_small_loops",),
    ),
    Mutant(
        "coset-is-the-whole-row",
        "src/bolkit/structure.py",
        "members.update([ra[m] for m in base])",
        "members.update(ra)",
        ("tests/test_structure.py::test_kernel_matches_oracle_on_all_small_loops",),
    ),
    # a*(b*b) for a*(b*a): no tested loop outside left Bol has it as a
    # false member, and in a left Bol loop it only slows the closure, which
    # the count of membership tests on Z4 x the exceptional loop catches
    Mutant(
        "bol-map-squares-b",
        "src/bolkit/structure.py",
        "ra[rb[a]]",
        "ra[rb[b]]",
        ("tests/test_structure.py::test_bol_closure_seeded_with_lm_tests_few_elements",),
    ),
    # the row-composition kernel: composition order on either encoding
    Mutant(
        "left-bol-translates-swapped",
        "src/bolkit/structure.py",
        "        if compose(ty) != rows[rx[ry[x]]].translate(undo):\n",
        "        if ry.translate(tabs[x]) != rows[rx[ry[x]]].translate(undo):\n",
        ("tests/test_structure.py::test_kernel_matches_oracle_on_all_small_loops",),
    ),
    Mutant(
        "left-bol-undo-is-the-row",
        "src/bolkit/structure.py",
        "bytes.maketrans(row, _IDENTITY[: len(row)])",
        "bytes.maketrans(_IDENTITY[: len(row)], row)",
        ("tests/test_structure.py::test_kernel_matches_oracle_on_all_small_loops",),
    ),
    Mutant(
        "wide-undo-is-the-row",
        "src/bolkit/structure.py",
        "tuple(sorted(range(len(row)), key=row.__getitem__))",
        "tuple(row)",
        ("tests/test_structure.py::test_kernel_on_products_across_the_byte_limit",),
    ),
    Mutant(
        "wide-row-composes-backwards",
        "src/bolkit/structure.py",
        "itemgetter(*self[:])(table)",
        "itemgetter(*table)(self)",
        ("tests/test_structure.py::test_kernel_on_products_across_the_byte_limit",),
    ),
    Mutant(
        "wide-composer-reads-the-table",
        "src/bolkit/structure.py",
        "else itemgetter(*row[:])",
        "else (lambda table: itemgetter(*table)(row))",
        ("tests/test_structure.py::test_kernel_on_products_across_the_byte_limit",),
    ),
    # the opposite's rows as the table's own: every right-hand notion reads Q
    Mutant(
        "kernel-opposite-is-the-table",
        "src/bolkit/structure.py",
        "[flat[j::n] for j in range(n)]",
        "[flat[j * n : j * n + n] for j in range(n)]",
        ("tests/test_structure.py::test_kernel_matches_oracle_on_all_small_loops",),
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
        "power-law-boxes-of-k-minus-1",
        "src/bolkit/verify.py",
        "    ka = (pa[1:5] + [1]).index(1) + 1\n    kb = (pb[1:5] + [1]).index(1) + 1\n",
        "    ka = (pa[1:5] + [1]).index(1)\n    kb = (pb[1:5] + [1]).index(1)\n",
        ("tests/test_verify.py::test_power_law_pair_checks_exponents_up_to_four",),
    ),
    Mutant(
        "power-law-arm-skipped",
        "src/bolkit/verify.py",
        "        if not all(_power_law_holds(cells, pw[a], pw[b]) for a in com for b in com):\n",
        "        if False:\n",
        ("tests/test_verify.py::test_battery_fails_the_power_law_where_the_oracle_does",),
    ),
    # True == 1 is a member already, so it would skip the type test
    Mutant(
        "subloop-membership-before-type",
        "src/bolkit/structure.py",
        "        if type(s) is not int or not 1 <= s <= n:\n",
        "        if s not in members and (type(s) is not int or not 1 <= s <= n):\n",
        ("tests/test_structure.py::test_subloop_functions_reject_elements_outside_the_loop",),
    ),
    Mutant(
        "is-isomorphism-takes-any-type",
        "src/bolkit/iso.py",
        "        or not {int}.issuperset(map(type, p))  # True and 3.0 are not elements\n",
        "",
        ("tests/test_iso.py::test_is_isomorphism_rejects_what_is_not_one",),
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
    # the block-at-a-time extension builder, and the name table of render
    Mutant(
        "extension-shift-drops-f",
        "src/bolkit/extensions.py",
        "columns[fab - 1](vals",
        "columns[0](vals",
        (PRODUCTS,),
    ),
    Mutant(
        "extension-tau-is-identity",
        "src/bolkit/extensions.py",
        "        at_tau = [t - 1 for t in ta]\n",
        "        at_tau = list(range(nk))\n",
        (PRODUCTS,),
    ),
    Mutant(
        "extension-block-offset-from-b",
        "src/bolkit/extensions.py",
        "for fab, ab in zip(fa, ea)]",
        "for fab, ab in zip(fa, E.elements())]",
        (PRODUCTS,),
    ),
    Mutant(
        "render-names-shifted-by-one",
        "src/bolkit/loop_core.py",
        "    names = tuple(map(str, range(n + 1)))\n",
        "    names = tuple(map(str, range(1, n + 2)))\n",
        ("tests/test_loop_core.py::test_render_writes_each_row_as_its_joined_values",),
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
    # injectivity and the record cut weakened together: no search output
    # changes, so the test calls extend_partial_hom directly
    Mutant(
        "hom-check-and-for-or",
        "src/bolkit/iso.py",
        HOM_CHECK,
        HOM_CHECK.replace("used[q] or local1", "used[q] and local1"),
        ("tests/test_iso.py::test_extend_partial_hom_cuts_an_image_with_another_record",),
    ),
    Mutant(
        "hom-check-dropped",
        "src/bolkit/iso.py",
        HOM_CHECK,
        HOM_CHECK.replace(" or local1[r] != local2[q]", ""),
        ("tests/test_iso.py::test_classify_witnesses_on_the_q9_family",),
    ),
    # the q9 family is classified on its coboundary cosets; a wrong
    # relabeling fails the claim's map check
    Mutant(
        "coboundary-h-drops-b23",
        "src/bolkit/gf2.py",
        "            b12 & a1 & a2 ^ b13 & a1 & a3 ^ b23 & a2 & a3\n",
        "            b12 & a1 & a2 ^ b13 & a1 & a3\n",
        (
            "tests/test_gf2.py::test_q9_relabelings_are_isomorphisms_between_coset_mates",
            "tests/test_acceptance.py::test_criterion_04_q9_family",
        ),
    ),
    Mutant(
        "coboundary-mask-drops-b9",
        "src/bolkit/gf2.py",
        "        mask = 128 * b12 ^ 37 * b13 ^ 19 * b23\n",
        "        mask = 128 * b12 ^ 36 * b13 ^ 18 * b23\n",
        (
            "tests/test_gf2.py::test_q9_relabelings_are_the_eight_forms_in_order",
            "tests/test_acceptance.py::test_criterion_04_q9_family",
        ),
    ),
    Mutant(
        "coset-member-is-max",
        "src/bolkit/gf2.py",
        "    minima = sorted({min(i ^ mask for mask, _ in relabelings) for i in range(512)})\n",
        "    minima = sorted({max(i ^ mask for mask, _ in relabelings) for i in range(512)})\n",
        ("tests/test_gf2.py::test_classify_q9_equals_classify_of_the_family",),
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
