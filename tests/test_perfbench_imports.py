"""Every library name the benchmark under perfbench/ reaches must exist, and
every keyword it passes to one must be a parameter of it.

The benchmark's files are parsed, not imported, so this runs no workload.
A name counts as reached when a ``from vaecomm... import`` binds it, or when
it is read as an attribute of a name bound to a vaecomm module (such as
``evaluation.X`` after ``from vaecomm import evaluation``). Keywords are
checked on calls of reached names.

The benchmark also reads attributes off the systems it built: every
attribute of a name in ``SYSTEM_NAMES`` (such as ``system._check_onehot``)
and every stage of tracing.py's ``TX_STAGES``/``RX_STAGES`` that it looks up
on the system must exist on a small ``CommSystem``. Keywords passed to those
methods are not followed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import vaecomm
from vaecomm.model import CommSystem, SystemConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# names the benchmark binds to a CommSystem it built
SYSTEM_NAMES = ("system", "replica", "trained")
# tracing.py's stage tables: every entry but these is a stage of the system
TRACE_TABLES = ("TX_STAGES", "RX_STAGES")
LIBRARY_FUNCTION_STAGES = ("softmax",)


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


def _bindings(tree: ast.Module) -> tuple[dict, dict]:
    """Local names bound by vaecomm imports: name -> (module, name) for every
    name a ``from`` import binds, and name -> module for every bound module."""
    names = {}
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_library(alias.name):
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and _is_library(node.module):
            for alias in node.names:
                local = alias.asname or alias.name
                names[local] = (node.module, alias.name)
                if isinstance(_lookup(node.module, alias.name), type(vaecomm)):
                    modules[local] = f"{node.module}.{alias.name}"
    return names, modules


def _module_attribute(node: ast.AST, modules: dict) -> tuple[str, str] | None:
    """(module, name) when ``node`` reads an attribute off a bound vaecomm module."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules):
        return modules[node.value.id], node.attr
    return None


def _references(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) for every library name the parsed file reaches."""
    names, modules = _bindings(tree)
    return list(names.values()) + [ref for node in ast.walk(tree)
                                   if (ref := _module_attribute(node, modules))]


def _keywords(tree: ast.Module) -> list[tuple[str, str, str]]:
    """(module, name, keyword) for every keyword passed in a call of a reached name."""
    names, modules = _bindings(tree)
    passed = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            ref = names.get(node.func.id)
        else:
            ref = _module_attribute(node.func, modules)
        if ref:
            passed += [(*ref, kw.arg) for kw in node.keywords if kw.arg is not None]
    return passed


def _accepts(target, keyword: str) -> bool:
    params = inspect.signature(target).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return True
    return keyword in params and params[keyword].kind in (
        inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)


def _trees() -> list[tuple[str, ast.Module]]:
    sources = sorted(PERFBENCH.glob("*.py"))
    assert sources
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in sources]


def test_every_library_name_the_benchmark_reaches_exists():
    reached = {(name, module, attr) for name, tree in _trees()
               for module, attr in _references(tree)}
    # the benchmark reads evaluation.X and training.X: the attribute pass found them
    assert {module for _, module, _ in reached} >= {"vaecomm.evaluation", "vaecomm.training"}
    missing = sorted(ref for ref in reached if _lookup(ref[1], ref[2]) is None)
    assert not missing, f"perfbench reaches names the library no longer has: {missing}"


def test_every_keyword_the_benchmark_passes_is_a_parameter():
    passed = {(name, *ref) for name, tree in _trees() for ref in _keywords(tree)}
    # keywords the benchmark is known to pass: the call pass found them
    assert {(callee, kw) for _, _, callee, kw in passed} >= {
        ("generate_dataset", "num_test"), ("train", "train_ebno_db"),
        ("evaluate_bler", "workers"), ("Dataset", "test")}
    wrong = sorted(ref for ref in passed
                   if (target := _lookup(ref[1], ref[2])) is None or not _accepts(target, ref[3]))
    assert not wrong, f"perfbench passes keywords the library no longer takes: {wrong}"


def _system_attributes(tree: ast.Module) -> set[str]:
    """Every attribute the parsed file reads off a name in SYSTEM_NAMES."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in SYSTEM_NAMES}


def _traced_stages(tree: ast.Module) -> set[str]:
    """The stage names in the file's TRACE_TABLES assignments."""
    return {stage for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id in TRACE_TABLES
            for stage, _, _ in ast.literal_eval(node.value)}


def test_every_system_attribute_the_benchmark_reads_exists():
    trees = _trees()
    read = {attr for _, tree in trees for attr in _system_attributes(tree)}
    stages = {stage for name, tree in trees if name == "tracing.py"
              for stage in _traced_stages(tree)} - set(LIBRARY_FUNCTION_STAGES)
    # what the benchmark is known to read: both passes found something
    assert read >= {"_check_onehot", "parameters", "config", "eval_mode"}
    assert stages >= {"tx_conv1", "power_norm", "rx_conv2"}
    system = CommSystem(SystemConfig(k=2, n=1, hidden_filters=4, block_length=2))
    missing = sorted(attr for attr in read | stages if not hasattr(system, attr))
    assert not missing, f"perfbench reads system attributes the library no longer has: {missing}"


def test_every_exported_name_exists():
    missing = [name for name in vaecomm.__all__ if not hasattr(vaecomm, name)]
    assert not missing, missing
