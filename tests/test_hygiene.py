"""Source hygiene: every name the package, the tests and the scripts import
is used by the module that imports it, and the package imports only at
module level."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/okbodies", "tests", "scripts")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads.

    ``from __future__`` imports and names listed in ``__all__`` count as
    used.
    """
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read - exported)


def function_local_imports(source: str) -> list[str]:
    """``name:line`` of every import statement inside a function body."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.extend(
                f"{fn.name}:{node.lineno}"
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            )
    return sorted(set(out))


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from fractions import Fraction, gcd\n"
        "from typing import Optional\n"
        "__all__ = ['Optional']\n"
        "def f(x: Fraction):\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["gcd", "js"]


def test_no_unused_imports():
    files = [p for d in SCANNED for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(files) > 20
    unused = {}
    for path in files:
        names = unused_imports(path.read_text())
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}


def test_scanner_flags_only_function_local_imports():
    source = (
        "import os\n"
        "class C:\n"
        "    import json\n"
        "    def m(self):\n"
        "        from fractions import Fraction\n"
        "        return Fraction(1)\n"
        "def f():\n"
        "    def g():\n"
        "        import random\n"
        "    return g\n"
    )
    assert function_local_imports(source) == ["f:9", "g:9", "m:5"]


def test_package_imports_only_at_module_level():
    files = sorted((ROOT / "src/okbodies").rglob("*.py"))
    assert len(files) > 5
    local = {}
    for path in files:
        found = function_local_imports(path.read_text())
        if found:
            local[path.name] = found
    assert local == {}
