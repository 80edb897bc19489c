"""The package's public surface: ``cggen.__all__`` and ``from cggen import *``."""

import ast
import re
from collections import Counter
from pathlib import Path
from types import FunctionType

import cggen


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from cggen import *", namespace)
    assert set(cggen.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    repeated = [name for name, count in Counter(cggen.__all__).items() if count > 1]
    assert repeated == []


def test_every_name_in_all_resolves():
    assert [name for name in cggen.__all__ if not hasattr(cggen, name)] == []


ROOT = Path(__file__).resolve().parent.parent


class _Calls(ast.NodeVisitor):
    """Functions called as ``f(...)`` or ``module.f(...)``, ``module`` one of
    ``modules``; a function calling itself does not count."""

    def __init__(self, modules: set[str]) -> None:
        self.names: set[str] = set()
        self._modules = modules
        self._defs: list[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in self._modules:
            # Not str.join or a method: only a call through a cggen module.
            name = func.attr
        if name is not None and name not in self._defs:
            self.names.add(name)
        self.generic_visit(node)


def _called(paths, modules: set[str]) -> set[str]:
    calls = _Calls(modules)
    for path in paths:
        calls.visit(ast.parse(path.read_text(encoding="utf-8")))
    return calls.names


def test_every_exported_function_has_a_caller_outside_the_tests():
    # A public function is called by the package itself or the benchmark,
    # or shown in the README's Library example; otherwise only tests use it.
    package = Path(cggen.__file__).resolve().parent
    modules = {"cggen"} | {p.stem for p in package.glob("*.py")}
    called = _called((p for p in package.glob("*.py") if p.name != "__init__.py"), modules)
    called |= _called((ROOT / "bench").rglob("*.py"), modules)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S).group(1)
    functions = [n for n in cggen.__all__ if isinstance(getattr(cggen, n), FunctionType)]
    assert functions
    unused = [
        name
        for name in functions
        if name not in called and not re.search(rf"\b{name}\b", library)
    ]
    assert unused == []


def test_every_definition_is_named_somewhere_else():
    # A function, method or class whose name occurs in src/, bench/ and
    # tests/ only as often as it is defined in the package is dead code.
    package = Path(cggen.__file__).resolve().parent
    defined: Counter = Counter()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined[node.name] += 1
    # Each word of every file, counted once: a name's count is its whole-word occurrences.
    words: Counter = Counter()
    for folder in ("src", "bench", "tests"):
        for path in (ROOT / folder).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unused = [name for name, count in sorted(defined.items()) if words[name] <= count]
    assert unused == []
