"""Apply the mutants of ``mutants/table.py`` one at a time and run the tests.

    python3 -m mutants.run

The tier-1 suite first runs once on an unmutated copy of the tree; a
test that fails there cannot kill a mutant, so it is left out of every
later run, and a mutant that names it is reported as an error.  Then
each mutant is applied to its own copy of the tree in a temporary
directory.  The tests it names run first; if they all pass, the rest of
the tier-1 suite runs with ``-x``.  ``tests/test_mutants.py`` is left
out of every run: it checks the table against the tree, and so fails on
any mutated copy.  Each pytest run is a child process under ``timeout``,
and at most two run at once.  One line per mutant gives the test that
killed it (or SURVIVED) and the time.  The exit status is 1 if any
mutant survived or could not be run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from mutants.table import MUTANTS, Mutant  # noqa: E402

JOBS = 2
TIMEOUT_S = 900
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
SELF_TEST = "tests/test_mutants.py"  # reads the table against the tree it runs in


class Outcome(NamedTuple):
    mutant: str
    status: str  # "killed", "survived" or "error"
    by: str  # the first failing test, "timeout", or why the mutant could not run
    seconds: float


def _pytest(tree: Path, args: list[str]) -> tuple[int, list[str]]:
    """Exit status of pytest in tree under ``timeout``, and the ids it reports failed."""
    cmd = ["timeout", str(TIMEOUT_S), sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider"]
    cmd.append(f"--ignore={SELF_TEST}")
    paths = [str(tree / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(cmd + args, cwd=tree, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, failed


def _copy(root: Path, tmp: str) -> Path:
    tree = Path(tmp) / "tree"
    shutil.copytree(root, tree, ignore=COPY_IGNORE)
    return tree


def baseline(root: Path = ROOT) -> frozenset[str]:
    """The ids of the tier-1 tests that fail on an unmutated copy of root."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        code, failed = _pytest(_copy(root, tmp), ["--continue-on-collection-errors"])
    if code not in (0, 1):
        raise RuntimeError(f"pytest exited {code} on the unmutated tree")
    return frozenset(failed)


def run_mutant(m: Mutant, root: Path = ROOT, broken: frozenset[str] = frozenset()) -> Outcome:
    """Apply m to a copy of root, then run its named tests and the rest of
    tier-1, leaving out the tests in broken, which fail unmutated."""
    start = time.perf_counter()

    def outcome(status: str, by: str) -> Outcome:
        return Outcome(m.name, status, by, time.perf_counter() - start)

    for t in m.tests:  # a broken id may be a parametrized case of t, or t's whole file
        if any(b == t or b.startswith(t + "[") or t.startswith(b + "::") for b in broken):
            return outcome("error", f"{t} fails unmutated")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = _copy(root, tmp)
        path = tree / m.file
        text = path.read_text(encoding="utf-8")
        if text.count(m.snippet) != 1:
            return outcome("error", f"snippet does not occur exactly once in {m.file}")
        path.write_text(text.replace(m.snippet, m.replacement), encoding="utf-8")
        rest = ["-x", "--continue-on-collection-errors", *(f"--deselect={t}" for t in (*m.tests, *broken))]
        for args in (["-x", *m.tests], rest):
            code, failed = _pytest(tree, args)
            if code == 124:
                return outcome("killed", "timeout")
            if code in (1, 2) and failed:
                return outcome("killed", failed[0])
            if code != 0:
                return outcome("error", f"pytest exited {code}")
    return outcome("survived", "SURVIVED")


def main() -> int:
    broken = baseline()
    for t in sorted(broken):
        print(f"fails unmutated, left out: {t}", flush=True)
    outcomes = []
    with ThreadPoolExecutor(JOBS) as pool:
        for o in pool.map(partial(run_mutant, broken=broken), MUTANTS):
            print(f"{o.mutant:30} {o.status:9} {o.seconds:6.1f} s  {o.by}", flush=True)
            outcomes.append(o)
    return 1 if any(o.status != "killed" for o in outcomes) else 0


if __name__ == "__main__":
    sys.exit(main())
