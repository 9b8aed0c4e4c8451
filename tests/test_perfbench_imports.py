"""Every library name the benchmark under perfbench/ reaches must exist.

The benchmark's files are parsed, not imported, so this runs no workload.
A name counts as reached when a ``from vaecomm... import`` binds it, or when
it is read as an attribute of a name bound to a vaecomm module (such as
``evaluation.X`` after ``from vaecomm import evaluation``).
"""

import ast
import importlib
from pathlib import Path

import vaecomm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _lookup(module_name: str, name: str):
    """The object ``from module_name import name`` binds, or None."""
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return None


def _is_library(module_name: str | None) -> bool:
    return module_name is not None and module_name.split(".")[0] == "vaecomm"


def _references(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) for every library name the parsed file reaches."""
    refs = []
    modules = {}  # local name -> the vaecomm module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_library(alias.name):
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and _is_library(node.module):
            for alias in node.names:
                refs.append((node.module, alias.name))
                if isinstance(_lookup(node.module, alias.name), type(vaecomm)):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            refs.append((modules[node.value.id], node.attr))
    return refs


def test_every_library_name_the_benchmark_reaches_exists():
    sources = sorted(PERFBENCH.glob("*.py"))
    assert sources
    reached = {(path.name, module, name) for path in sources
               for module, name in _references(ast.parse(path.read_text(encoding="utf-8")))}
    # the benchmark reads evaluation.X and training.X: the attribute pass found them
    assert {module for _, module, _ in reached} >= {"vaecomm.evaluation", "vaecomm.training"}
    missing = sorted(ref for ref in reached if _lookup(ref[1], ref[2]) is None)
    assert not missing, f"perfbench reaches names the library no longer has: {missing}"


def test_every_exported_name_exists():
    missing = [name for name in vaecomm.__all__ if not hasattr(vaecomm, name)]
    assert not missing, missing
