"""Package layout: every definition in ``src/cylkit`` has a caller there,
no module of the package or the tests imports a name it does not use, no
function of the package re-imports from a module its file imports at top
level, the package calls no ``.value(...)`` reader, keeps derived values
in fields (no ``cached_property``, no instance ``__dict__``), imports no
``dataclasses``, and it computes with integers only.

A module-level function or class must be referenced by name (a ``Name``,
an ``Attribute`` or an import), and a method that is not a dunder by an
attribute access, somewhere in ``src/cylkit`` or in the benchmark scripts
``bench/*.py``.  A local variable or builtin that shares a method's name
does not count.  Helpers that only tests call belong in
``tests/oracles.py``, not in the package, and every one of those must be
reached from a test module, directly or through another oracle.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cylkit"

# Public API with no internal caller, documented in README.  ``gw`` builds
# its shape once and calls the shape-level ``gw_of_shape``.
ALLOWED = {"memo.clear_caches", "stanley.gromov_witten"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module, module: str):
    """``(qualified name, bare name, is method)`` of top-level defs and their
    methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(item.name)):
                    yield f"{module}.{node.name}.{item.name}", item.name, True


def references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Every referenced name, and the names referenced as attributes."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names | attrs, attrs


def test_every_definition_in_src_has_a_caller_outside_tests():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    refs = [references(tree) for tree in trees.values()]
    used = set().union(*(names for names, _ in refs))
    used_as_attr = set().union(*(attrs for _, attrs in refs))
    unused = [qualified
              for path, tree in trees.items() if path.parent == PACKAGE
              for qualified, name, method in definitions(tree, path.stem)
              if name not in (used_as_attr if method else used)
              and qualified not in ALLOWED]
    assert unused == []


def dead_oracles(oracles: ast.Module, tests: list[ast.Module]) -> list[str]:
    """Top-level defs of the oracle module that no test module references,
    directly or through the body of an oracle it reaches."""
    bodies = {node.name: node for node in oracles.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))}
    reached = set().union(*(references(tree)[0] for tree in tests)) & bodies.keys()
    stack = list(reached)
    while stack:
        fresh = references(bodies[stack.pop()])[0] & bodies.keys() - reached
        reached |= fresh
        stack.extend(fresh)
    return sorted(bodies.keys() - reached)


def test_dead_oracle_check_flags_an_orphan_chain():
    oracles = ast.parse("def a():\n    return b()\n\ndef b():\n    return 1\n\n"
                        "def c():\n    return d()\n\ndef d():\n    return d()\n")
    tests = [ast.parse("from oracles import a\n\ndef test_a():\n    assert a()\n")]
    assert dead_oracles(oracles, tests) == ["c", "d"]


def test_every_oracle_is_reached_from_a_test_module():
    tests_dir = ROOT / "tests"
    tests = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(tests_dir.glob("test_*.py"))]
    oracles = ast.parse((tests_dir / "oracles.py").read_text(encoding="utf-8"))
    assert dead_oracles(oracles, tests) == []


def test_allowlist_names_live_definitions():
    defined = {qualified
               for path in PACKAGE.glob("*.py")
               for qualified, _, _ in definitions(
                   ast.parse(path.read_text(encoding="utf-8")), path.stem)}
    assert ALLOWED <= defined


def _own_imports(scope):
    """The import statements of ``scope`` outside its nested functions."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read in the import's scope: the
    enclosing function, or the whole module for a top-level import.  Names
    listed in ``__all__`` are re-exports and count as used."""
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = []
    for scope in scopes:
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for stmt in _own_imports(scope):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read and name not in exported:
                    unused.append(f"line {stmt.lineno}: {name}")
    return unused


def test_no_unused_imports():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = {str(path.relative_to(ROOT)): unused
             for path in sources
             if (unused := unused_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert found == {}


def _source(stmt) -> list[str]:
    """The modules an import reads from: ``a.b`` for ``import a.b`` and
    ``a`` for ``from a import b``."""
    if isinstance(stmt, ast.ImportFrom):
        return [stmt.module]
    return [alias.name for alias in stmt.names]


def repeated_local_imports(tree: ast.Module) -> list[str]:
    """Function-local imports from a module that the file also imports at
    top level.  A lazy import of a module the file does not import at top
    level (``from cylkit import verify`` in ``cli``) is allowed."""
    top = {module for stmt in _own_imports(tree) for module in _source(stmt)}
    return [f"line {stmt.lineno}: {module}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for stmt in _own_imports(node)
            for module in _source(stmt) if module in top]


def test_local_import_check_flags_only_repeats():
    tree = ast.parse("from a.b import x\nimport c\n\n"
                     "def f():\n    from a.b import y\n    from a import b\n"
                     "    import c\n    import d\n")
    assert sorted(repeated_local_imports(tree)) == ["line 5: a.b", "line 7: c"]


def test_no_local_import_of_a_module_imported_at_top_level():
    found = {path.name: repeated
             for path in sorted(PACKAGE.glob("*.py"))
             if (repeated := repeated_local_imports(
                 ast.parse(path.read_text(encoding="utf-8"))))}
    assert found == {}


def value_calls(tree: ast.Module) -> list[str]:
    """Lines that call a ``.value(...)`` reader: the package reads windows
    whole, and ``tests/oracles.py::value`` is the one-index test oracle."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "value"]


def test_value_check_flags_a_planted_call():
    tree = ast.parse("def f(w, n):\n    value = w.window\n"
                     "    return [w.value(i) for i in range(n)], value\n")
    assert value_calls(tree) == ["line 3"]


def test_package_calls_no_value_reader():
    found = {path.name: calls
             for path in sorted(PACKAGE.glob("*.py"))
             if (calls := value_calls(ast.parse(path.read_text(encoding="utf-8"))))}
    assert found == {}


def derived_value_stores(tree: ast.Module) -> list[str]:
    """Lines that use ``cached_property`` or reach an instance dict (an
    ``__dict__`` attribute or a ``vars`` call): a derived value is a field
    that its builder sets, or that one accessor fills, never a dict entry."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name.rpartition(".")[2] == "cached_property"
                   for alias in node.names):
                found.append(f"line {node.lineno}: cached_property")
        elif ((isinstance(node, ast.Name) and node.id == "cached_property")
              or (isinstance(node, ast.Attribute) and node.attr == "cached_property")):
            found.append(f"line {node.lineno}: cached_property")
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.append(f"line {node.lineno}: __dict__")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "vars"):
            found.append(f"line {node.lineno}: vars call")
    return found


def test_storage_check_flags_planted_stores():
    tree = ast.parse("from functools import cached_property\nimport functools\n\n"
                     "class A:\n    @cached_property\n    def x(self):\n"
                     "        return vars(self)\n\n"
                     "    @functools.cached_property\n    def y(self):\n"
                     "        self.__dict__['z'] = 1\n        return self.nvars\n")
    assert derived_value_stores(tree) == [
        "line 1: cached_property", "line 5: cached_property",
        "line 9: cached_property", "line 7: vars call", "line 11: __dict__"]


def test_package_keeps_derived_values_in_fields():
    found = {path.name: stores
             for path in sorted(PACKAGE.glob("*.py"))
             if (stores := derived_value_stores(
                 ast.parse(path.read_text(encoding="utf-8"))))}
    assert found == {}


def dataclass_imports(tree: ast.Module) -> list[str]:
    """Lines that import ``dataclasses`` or a name from it, at any depth:
    the value classes are written out, and the module costs a fresh
    process ``inspect``, ``dis``, ``ast`` and ``copy`` on import."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
            or (isinstance(node, ast.Import)
                and any(alias.name == "dataclasses" for alias in node.names))]


def test_dataclass_import_check_flags_planted_imports():
    tree = ast.parse("import dataclasses\nfrom dataclasses import field\n\n"
                     "def f():\n    import dataclasses as dc\n    return dc\n"
                     "import dataclasses_json\n")
    assert dataclass_imports(tree) == ["line 1", "line 2", "line 5"]


def test_package_imports_no_dataclasses():
    found = {path.name: lines
             for path in sorted(PACKAGE.glob("*.py"))
             if (lines := dataclass_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert found == {}


def inexact_arithmetic(tree: ast.Module) -> list[str]:
    """Lines with a true division ``/`` (or ``/=``), an import of
    ``fractions``, or a call of ``float``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)):
            found.append(f"line {node.lineno}: true division")
        elif ((isinstance(node, ast.ImportFrom) and node.module == "fractions")
              or (isinstance(node, ast.Import)
                  and any(alias.name == "fractions" for alias in node.names))):
            found.append(f"line {node.lineno}: fractions import")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"line {node.lineno}: float call")
    return found


def test_package_arithmetic_is_exact_integers():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: bad for name, tree in trees.items()
             if (bad := inexact_arithmetic(tree))}
    assert found == {}
