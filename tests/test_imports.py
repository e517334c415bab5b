"""Every name a ``lamcalc`` module imports is used there or re-exported.

No linter runs on this code, so a change that deletes the last use of an
imported name would otherwise leave the import behind."""

from __future__ import annotations

import ast
from pathlib import Path

import lamcalc


def unused_imports(tree: ast.Module) -> set[str]:
    """The names ``tree`` binds by an import and neither reads nor lists in
    ``__all__``."""

    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_no_module_imports_a_name_it_does_not_use():
    found = {
        path.stem: names
        for path in sorted(Path(lamcalc.__file__).parent.glob("*.py"))
        if (names := unused_imports(ast.parse(path.read_text())))
    }
    assert found == {}


def test_an_unused_import_is_found():
    tree = ast.parse(
        "from .terms import Sort, Var\nimport json\n__all__ = ['Var']\n"
    )
    assert unused_imports(tree) == {"Sort", "json"}
