"""Source hygiene: every name the package, the tests and the scripts import
is used by the module that imports it, they import only at module level,
the package holds no code that only the tests call, and every name the
benchmark reads from the package exists."""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/okbodies", "tests", "scripts")
# code outside the package that may call into it (the tests may not)
CALLERS = ("scripts", "bench")

# Paper claims that the acceptance tests check directly.  They stay in the
# package although nothing else in it, and no script, calls them; a name
# that gains a caller leaves the list.
PAPER_FACING = frozenset(
    {
        "charts.check_twist_diagram",  # the twist diagram
        "charts.puiseux_witness",  # Puiseux witnesses
        "charts.PuiseuxWitness.valuation",
        "charts.highest_valuation",  # the highest-term valuation
        "mirror.translation_vector",  # the translation identity
    }
)


def sources(dirs) -> dict[str, str]:
    """Path relative to the repository root -> source, for every ``.py``
    file under ``dirs``."""
    return {
        str(path.relative_to(ROOT)): path.read_text()
        for d in dirs
        for path in sorted((ROOT / d).rglob("*.py"))
    }


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
    files = sources(SCANNED)
    assert len(files) > 20
    unused = {path: unused_imports(src) for path, src in files.items()}
    assert {path: names for path, names in unused.items() if names} == {}


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


def local_imports_under(dirs) -> dict[str, list[str]]:
    found = {path: function_local_imports(src) for path, src in sources(dirs).items()}
    return {path: names for path, names in found.items() if names}


def test_package_imports_only_at_module_level():
    assert local_imports_under(["src/okbodies"]) == {}


def test_tests_and_scripts_import_only_at_module_level():
    assert local_imports_under(["tests", "scripts"]) == {}


def self_recursive_closures(source: str) -> list[str]:
    """``name:line`` of every function defined inside another function that
    reads its own name: the closure then holds itself through its cell, a
    reference cycle that only the cyclic collector frees."""
    out = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(fn):
            if inner is fn or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner)):
                out.add(f"{inner.name}:{inner.lineno}")
    return sorted(out)


def test_scanner_flags_only_self_recursive_closures():
    source = (
        "def top(n):\n"
        "    return top(n - 1) if n else 0\n"
        "class C:\n"
        "    def m(self, n):\n"
        "        return self.m(n - 1) if n else 0\n"
        "def f(xs):\n"
        "    def walk(i):\n"
        "        return walk(i + 1) if i < len(xs) else i\n"
        "    def helper(i):\n"
        "        return walk(i)\n"
        "    def outer():\n"
        "        def deep(j):\n"
        "            return [deep(j - 1)] if j else []\n"
        "        return deep\n"
        "    return walk(0), helper, outer\n"
    )
    assert self_recursive_closures(source) == ["deep:12", "walk:7"]


def test_package_has_no_self_recursive_closures():
    found = {path: self_recursive_closures(src) for path, src in sources(["src/okbodies"]).items()}
    assert {path: names for path, names in found.items() if names} == {}


def test_scripts_have_no_self_recursive_closures():
    found = {path: self_recursive_closures(src) for path, src in sources(["scripts"]).items()}
    assert {path: names for path, names in found.items() if names} == {}


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST, bool]]:
    """``(qualified name, node, is_method)`` for every public module-level
    function or class and every public method of a module-level class."""
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out.append((node.name, node, False))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (f"{node.name}.{m.name}", m, True)
                for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            )
    return out


def references(node: ast.AST) -> tuple[Counter, Counter]:
    """How often each name (``Name`` nodes and import aliases) and each
    attribute is read under ``node``."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            attrs[n.attr] += 1
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in n.names)
    return names, attrs


def unreachable(package: dict[str, str], callers: list[str]) -> list[str]:
    """``module.qualname`` of every public definition of ``package`` (module
    name -> source) that neither the rest of the package nor ``callers``
    reference.

    A function or class counts as referenced when its name is read as a
    ``Name``, an ``Attribute`` or an import alias outside its own body; a
    method only when its name is read as an ``Attribute`` outside its own
    body.
    """
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    names, attrs = Counter(), Counter()
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        n, a = references(tree)
        names.update(n)
        attrs.update(a)
    out = []
    for mod, tree in trees.items():
        for qual, node, is_method in public_definitions(tree):
            name = qual.rsplit(".", 1)[-1]
            own_names, own_attrs = references(node)
            if attrs[name] > own_attrs[name]:
                continue
            if not is_method and names[name] > own_names[name]:
                continue
            out.append(f"{mod}.{qual}")
    return sorted(out)


def test_reachability_scanner_flags_only_unreferenced_definitions():
    package = {
        "core": (
            "def by_name():\n"
            "    pass\n"
            "def by_script():\n"
            "    pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "def _private():\n"
            "    pass\n"
            "class Box:\n"
            "    def read(self):\n"
            "        return self.read()\n"
            "    def write(self):\n"
            "        return 1\n"
            "    def _hidden(self):\n"
            "        pass\n"
        ),
        "other": (
            "from .core import by_name\n"
            "def helper():\n"
            "    return by_name() + Box().write()\n"
        ),
    }
    callers = ["from okbodies.core import by_script\nread = None\n"]
    assert unreachable(package, callers) == ["core.Box.read", "core.recursive", "other.helper"]


def test_package_holds_no_test_only_code():
    package = {Path(path).stem: src for path, src in sources(["src/okbodies"]).items()}
    defined = {
        f"{mod}.{qual}"
        for mod, src in package.items()
        for qual, _, _ in public_definitions(ast.parse(src))
    }
    assert PAPER_FACING <= defined
    flagged = unreachable(package, list(sources(CALLERS).values()))
    assert sorted(set(flagged) - PAPER_FACING) == []
    assert sorted(PAPER_FACING - set(flagged)) == []


# -- the benchmark's view of the package ------------------------------------

def layer_names(source: str) -> list[str]:
    """The string keys of the ``LAYERS`` dict literal in ``source``."""
    for node in ast.parse(source).body:
        target = node.target if isinstance(node, ast.AnnAssign) else None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        if isinstance(target, ast.Name) and target.id == "LAYERS":
            return [k.value for k in node.value.keys]
    raise AssertionError("no LAYERS dict")


def package_reads(source: str) -> list[str]:
    """``<module>.<name>`` for every name imported from an okbodies module,
    and every attribute chain read off an okbodies module bound by an
    import (``from okbodies import charts`` then ``charts.NetworkChart.of``
    gives ``charts.NetworkChart`` and ``charts.NetworkChart.of``)."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.module == "okbodies":
            modules.update({a.asname or a.name: a.name for a in node.names})
        elif node.module.startswith("okbodies."):
            mod = node.module.split(".", 1)[1]
            out.update(f"{mod}.{a.name}" for a in node.names)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            out.add(".".join([modules[node.id], *reversed(chain)]))
    return sorted(out)


def unresolved(names, need_callable: bool = False) -> list[str]:
    """The dotted names that are not attributes of the okbodies package
    (or, with ``need_callable``, not callable ones)."""
    out = []
    for name in names:
        mod, *attrs = name.split(".")
        obj = importlib.import_module(f"okbodies.{mod}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None or (need_callable and not callable(obj)):
            out.append(name)
    return out


def test_benchmark_scanner_flags_a_missing_name():
    layers = (
        "LAYERS: dict = {\n"
        "    'charts.val_min': (None, ('calls',)),\n"
        "    'charts.val_minimum': (None, ('calls',)),\n"
        "    'charts.NetworkChart.of': (None, ('calls',)),\n"
        "    'census.EXPECTED_COUNTS': (None, ('calls',)),\n"
        "}\n"
    )
    names = layer_names(layers)
    assert unresolved(names, need_callable=True) == ["charts.val_minimum", "census.EXPECTED_COUNTS"]
    workload = (
        "from okbodies import charts as ch, mirror\n"
        "from okbodies.partitions import GridShape, nope\n"
        "def run(x):\n"
        "    from okbodies.census import census\n"
        "    return ch.NetworkChart.of(x), ch.NetworkChart.gone, mirror.renamed_away(x), x.ch\n"
    )
    assert package_reads(workload) == [
        "census.census",
        "charts.NetworkChart",
        "charts.NetworkChart.gone",
        "charts.NetworkChart.of",
        "mirror.renamed_away",
        "partitions.GridShape",
        "partitions.nope",
    ]
    assert unresolved(package_reads(workload)) == [
        "charts.NetworkChart.gone",
        "mirror.renamed_away",
        "partitions.nope",
    ]


def test_benchmark_reads_only_names_the_package_has():
    bench = sources(["bench"])
    layers = layer_names(bench["bench/tracing.py"])
    assert "charts.val_min" in layers and "charts.NetworkChart.of" in layers
    assert unresolved(layers, need_callable=True) == []
    reads = package_reads(bench["bench/workloads.py"])
    assert "plabic.quiver_of" in reads
    assert {path: unresolved(package_reads(src)) for path, src in bench.items()} == {
        path: [] for path in bench
    }
