import ast
import importlib
import pathlib
import pkgutil

import pytest

import breguq

MODULES = sorted(m.name for m in pkgutil.iter_modules(breguq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"breguq.{name}")
    exported = getattr(module, "__all__", None)
    assert exported, f"breguq.{name} declares no __all__"
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"breguq.{name}.__all__ names undefined {missing}"


def test_package_reexports_resolve():
    tree = ast.parse(pathlib.Path(breguq.__file__).read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names]
    assert names
    missing = [n for n in names if not hasattr(breguq, n)]
    assert not missing, f"breguq re-exports undefined {missing}"
