"""The modules of maxnet use only each other's public names, so a decision
such as how a layer's entries are stored stays behind the module that makes
it. Tests and perfbench may reach private names; the package may not. Nor
may a module keep an import, a private name or a function parameter that
it no longer reads, as a deletion can leave one behind."""

import ast
from pathlib import Path

import pytest

import maxnet

MODULES = sorted(Path(maxnet.__file__).parent.glob("*.py"))


def is_private(name: str) -> bool:
    """One leading underscore; a dunder such as ``__version__`` is public."""
    return name.startswith("_") and not name.startswith("__")


def private_uses(source: str) -> list[str]:
    """The private names of other maxnet modules that ``source``, a module
    of the package, imports or reads as an attribute of a module it
    imported, as ``module.name``."""
    tree = ast.parse(source)
    found, modules = [], set()  # modules: local names bound to maxnet modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "maxnet"):
            for alias in node.names:
                if is_private(alias.name):
                    found.append(f"{node.module or '.'}.{alias.name}")
                if node.module in (None, "maxnet"):  # from . import network
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                           if alias.name.split(".")[0] == "maxnet")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def read_names(tree: ast.AST) -> set[str]:
    """Every name that ``tree`` reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by a module-level import and never
    reads; ``from __future__`` imports bind no name that is read."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names]
    read = read_names(tree)
    return [name for name in bound if name not in read]


def unread_private_names(source: str) -> list[str]:
    """The private names that ``source`` defines at module level, by a
    ``def``, a ``class`` or an assignment, and never reads itself."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = read_names(tree)
    return [name for name in dict.fromkeys(bound) if is_private(name) and name not in read]


def unread_parameters(source: str) -> list[str]:
    """``function(parameter)`` for each parameter of a function or lambda in
    ``source`` that its body, nested functions included, never reads;
    ``self``, ``cls`` and names that start with ``_`` are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                      *(p for p in (a.vararg, a.kwarg) if p is not None)]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = set().union(*map(read_names, body))
            found += [f"{getattr(node, 'name', '<lambda>')}({p.arg})" for p in params
                      if p.arg not in ("self", "cls")
                      and not p.arg.startswith("_") and p.arg not in read]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_uses_another_modules_private_names(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("from .network import AffineLayer, _csr\n", ["network._csr"]),
    ("from maxnet.network import _values as v\n", ["maxnet.network._values"]),
    ("from . import network\ndef f():\n    return network._dense\n", ["network._dense"]),
    ("import maxnet.network\nx = maxnet.network._stored\n", ["maxnet.network._stored"]),
    ("from . import __version__\nfrom .network import matrix_entries\n", []),
    ("import numpy as np\nx = np._NoValue\n", []),
])
def test_checker_finds_private_uses(source, found):
    assert private_uses(source) == found


IMPORTING = [p for p in MODULES if p.name != "__init__.py"]  # __init__ re-exports


@pytest.mark.parametrize("path", IMPORTING, ids=[p.name for p in IMPORTING])
def test_no_module_keeps_an_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("import itertools\nimport json\nx = json.dumps([])\n", ["itertools"]),
    ("from __future__ import annotations\nimport numpy as np\n"
     "from scipy import sparse as sp\ndef f(x: np.ndarray):\n    return sp.eye(1)\n", []),
])
def test_checker_finds_unused_imports(source, found):
    assert unused_imports(source) == found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_keeps_an_unread_private_name(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("_A = 1\n_B: int = 2\ndef _f():\n    return _B\nclass _C:\n    pass\n",
     ["_A", "_f", "_C"]),
    ("_X, (_Y, z) = 1, (2, 3)\ndef f():\n    return _Y + z\n", ["_X"]),
    ("__version__ = '1'\nPUBLIC = 2\n_TILE = 4\ndef f(n: int = _TILE):\n    return n\n", []),
    ("def _outer():\n    def _inner():\n        pass\n", ["_outer"]),
])
def test_checker_finds_unread_private_names(source, found):
    assert unread_private_names(source) == found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_function_keeps_an_unread_parameter(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("def f(x, y=1, *args, z, **kw):\n    return x + z\n",
     ["f(y)", "f(args)", "f(kw)"]),
    ("class A:\n    def m(self, v):\n        pass\n    @classmethod\n"
     "    def c(cls, _unused):\n        return 0\n", ["m(v)"]),
    ("def f(x):\n    def g():\n        return x\n    return g\n", []),
    ("g = lambda a, b: a\nh = lambda: 0\n", ["<lambda>(b)"]),
])
def test_checker_finds_unread_parameters(source, found):
    assert unread_parameters(source) == found
