"""The modules of maxnet use only each other's public names, so a decision
such as how a layer's entries are stored stays behind the module that makes
it. Tests and perfbench may reach private names; the package may not."""

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
