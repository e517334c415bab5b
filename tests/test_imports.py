"""Every name a ``lamcalc`` module imports is used there or re-exported.

No linter runs on this code, so a change that deletes the last use of an
imported name would otherwise leave the import behind.  The package
republishes each module's public names by ``from .m import *`` and
``__all__ += m.__all__``; such a star import counts as used only when
that line republishes it."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import lamcalc


def unused_imports(tree: ast.Module) -> set[str]:
    """The names ``tree`` binds by an import and neither reads nor lists in
    ``__all__``; a ``from .m import *`` that no ``__all__ += m.__all__``
    republishes is reported as ``m.*``."""

    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    imported.add(f"{node.module}.*")
                else:
                    imported.add(alias.asname or alias.name.partition(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.AugAssign) and (
            republished := re.fullmatch(r"__all__ \+= (\w+)\.__all__", ast.unparse(node))
        ):
            used.add(f"{republished[1]}.*")
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


def test_a_star_import_that_is_not_republished_is_found():
    tree = ast.parse(
        "from .terms import *\nfrom .sexpr import *\nfrom . import terms, sexpr\n"
        "__all__ = []\n__all__ += terms.__all__\nprint(sexpr)\n"
    )
    assert unused_imports(tree) == {"sexpr.*"}


def test_each_public_name_has_one_owner():
    owners = Counter(
        name
        for info in pkgutil.iter_modules(lamcalc.__path__)
        for name in importlib.import_module(f"lamcalc.{info.name}").__all__
    )
    assert len(set(lamcalc.__all__)) == len(lamcalc.__all__)
    assert {name: owners[name] for name in lamcalc.__all__ if owners[name] != 1} == {}
    star: dict[str, object] = {}
    exec("from lamcalc import *", star)
    assert set(star) - {"__builtins__"} == set(lamcalc.__all__)
