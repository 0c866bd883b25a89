"""Lint: no module imports a name it never uses.

Checked with the standard library's :mod:`ast` only, over ``src/``,
``scripts/``, ``examples/`` and the top level of ``benchmarks/`` (the
end-to-end benchmark under ``benchmarks/e2e/`` is left alone). A name
counts as used if the module reads it anywhere, including inside a string
that parses as an expression (a quoted annotation, an ``__all__`` entry).
A package's ``__init__.py`` re-exports what it imports, and an import
marked ``# noqa`` is kept for its side effect, so neither is checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _modules():
    for pattern in ("src/**/*.py", "scripts/*.py", "examples/*.py", "benchmarks/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            if path.name != "__init__.py":
                yield path


def _names_read(node):
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                yield from _names_read(ast.parse(child.value.strip(), mode="eval"))
            except SyntaxError:
                pass


def unused_imports(path):
    """``(line, name)`` of every name *path* imports and never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if "noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            imported.setdefault(bound, node.lineno)
    used = set(_names_read(tree))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in _modules()
        for line, name in unused_imports(path)
    ]
    assert found == [], "\n".join(found)
