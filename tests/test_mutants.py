"""The mutation-gate table stays applicable, and its runner tells a
mutant its tests kill from one they miss.  The full mutant run is
``python3 -m mutants.run``, outside this suite."""

import re
from pathlib import Path

from mutants.run import baseline, run_mutant
from mutants.table import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_snippet_occurs_once_and_its_tests_exist():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.file).read_text(encoding="utf-8").count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet and m.tests, m.name
        for test in m.tests:
            path, func = re.fullmatch(r"([^:]+)::(\w+)", test).groups()
            assert f"\ndef {func}(" in (ROOT / path).read_text(encoding="utf-8"), test


TOY_TESTS = """from toy import double


def test_double():
    assert double(3) == 6


def test_broken():
    assert False


def test_other():
    pass
"""

# like this file: fails on every copy where the snippet has been replaced
TOY_SELF_TEST = """from pathlib import Path


def test_snippet_occurs_once():
    assert (Path(__file__).parent.parent / "src" / "toy.py").read_text().count("    return 2 * x\\n") == 1
"""


def test_runner_kills_only_by_tests_that_pass_unmutated(tmp_path, monkeypatch):
    # the toy tree uses no hypothesis; loading its plugin in each of the
    # six pytest children would take most of their start-up time
    monkeypatch.setenv("PYTEST_ADDOPTS", "-p no:hypothesispytest")
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "toy.py").write_text("def double(x):\n    return 2 * x\n")
    (tmp_path / "tests" / "test_toy.py").write_text(TOY_TESTS)
    (tmp_path / "tests" / "test_mutants.py").write_text(TOY_SELF_TEST)
    broken = baseline(tmp_path)
    assert broken == {"tests/test_toy.py::test_broken"}

    def run(replacement, test):
        m = Mutant("m", "src/toy.py", "    return 2 * x\n", replacement, (f"tests/test_toy.py::{test}",))
        return run_mutant(m, tmp_path, broken)[1:3]

    assert run("    return 2 * x\n", "test_double") == ("survived", "SURVIVED")  # a no-op
    assert run("    return 2 * x or 1\n", "test_double") == ("survived", "SURVIVED")  # missed: double(0) is 1
    assert run("    return 2 + x\n", "test_double") == ("killed", "tests/test_toy.py::test_double")
    assert run("    return 2 + x\n", "test_broken") == ("error", "tests/test_toy.py::test_broken fails unmutated")
