"""Source checks over the m3enc package: every import is used."""

import ast
from pathlib import Path

import m3enc

SRC = Path(m3enc.__file__).parent


def _own_imports(scope):
    """The import statements of ``scope``, not of the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that its scope never reads. A module
    import counts as read anywhere in the module, a function's import anywhere
    in that function; names listed in ``__all__`` count as read."""
    tree = ast.parse(source)
    exported = {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = []
    for scope in scopes:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)} | exported
        for node in _own_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((node.lineno, name))
    return sorted(unused)


def test_unused_import_finder():
    source = ("import os\nimport sys as system\nfrom . import a, b\n\n"
              "def f():\n    from .errors import E, F\n    return E, a\n\n"
              "def g():\n    return F\n")
    assert unused_imports(source) == [(1, "os"), (2, "system"), (3, "b"), (6, "F")]


def test_src_has_no_unused_imports():
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
