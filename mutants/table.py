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

MUTANTS = (
    Mutant(
        "parse-drops-fallback",
        "src/bolkit/loop_core.py",
        "    if not all(entries):  # a miss is None; 0 is no name\n",
        "    if False:\n",
        (PARITY,),
    ),
    Mutant(
        "parse-always-falls-back",
        "src/bolkit/loop_core.py",
        "    if not all(entries):  # a miss is None; 0 is no name\n",
        "    if True:\n",
        ("tests/test_loop_core.py::test_parse_holds_one_int_object_per_element",),
    ),
    Mutant(
        "latin-rows-by-set-size",
        "src/bolkit/loop_core.py",
        "        if frozenset(row) != full:\n",
        "        if len(set(row)) != n:\n",
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
)
