"""The package stays pure standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bolkit"


def test_every_absolute_import_is_in_the_standard_library():
    modules = set()
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                # level > 0 is a relative import of the package's own modules
                modules.add(node.module.split(".")[0])
    assert "typing" in modules  # the walk does find imports
    assert sorted(modules - sys.stdlib_module_names) == []
