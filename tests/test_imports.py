"""Static check that no package module imports a name it never uses."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lumpkit"


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that the module never references; names
    listed in ``__all__`` count as used (re-exports)."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from x import a, b as c\n"
        "__all__ = ['a']\n"
    )
    assert unused_imports(source) == ["os (line 2)", "c (line 3)"]


def test_no_unused_imports_in_package():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules found under {PACKAGE}"
    unused = {path.name: unused_imports(path.read_text()) for path in paths}
    assert {name: found for name, found in unused.items() if found} == {}
