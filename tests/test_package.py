"""The package and the test oracles stay pure standard library, and the
oracles import nothing from the package they check."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _absolute_imports(directory: Path) -> set[str]:
    """The top-level names of the absolute imports in the .py files of directory."""
    modules = set()
    sources = sorted(directory.glob("*.py"))
    assert sources, directory
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                # level > 0 is a relative import of the package's own modules
                modules.add(node.module.split(".")[0])
    return modules


def test_every_absolute_import_is_in_the_standard_library():
    package = _absolute_imports(ROOT / "src" / "bolkit")
    oracles = _absolute_imports(ROOT / "refcheck")
    assert "typing" in package and "itertools" in oracles  # the walk does find imports
    assert sorted((package | oracles) - sys.stdlib_module_names) == []
    assert "bolkit" not in oracles
