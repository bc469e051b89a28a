import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path
from types import ModuleType

import selfred


def test_all_lists_every_public_name_once():
    public = {
        name
        for name, value in vars(selfred).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(selfred.__all__) == len(set(selfred.__all__))
    assert set(selfred.__all__) == public


# The modules that call the kernel, and the kernel functions exported for
# library users alone.
CONSUMERS = ("selector", "pruning", "counting", "oracles", "cli", "generate")
USER_API = {"evaluate", "variables"}


def test_every_exported_kernel_function_has_a_caller():
    modules = [importlib.import_module(f"selfred.{name}") for name in CONSUMERS]
    bound = [value for module in modules for value in vars(module).values()]
    exported = [getattr(selfred, name) for name in selfred.__all__]
    kernel = [f for f in exported if inspect.isfunction(f) and f.__module__ == "selfred.formula"]
    assert kernel
    uncalled = [f.__name__ for f in kernel if not any(f is value for value in bound)]
    assert set(uncalled) <= USER_API


# The classes kept as dataclasses: the five formula nodes and the bound that
# validates its coefficients when built.  Result records are named tuples.
DATACLASSES = {"Const", "Var", "Not", "And", "Or", "PolynomialBound"}


def test_only_the_listed_classes_are_dataclasses():
    # Every class the package exports or any of its modules defines, so the
    # CLI's records count too.
    classes = [getattr(selfred, name) for name in selfred.__all__]
    for info in pkgutil.iter_modules(selfred.__path__):
        module = importlib.import_module(f"selfred.{info.name}")
        classes += [value for value in vars(module).values() if inspect.isclass(value)]
    found = {
        cls.__name__
        for cls in classes
        if cls.__module__.startswith("selfred.") and dataclasses.is_dataclass(cls)
    }
    assert found == DATACLASSES


def test_references_take_only_the_node_constructors():
    # The test references share no code with the engine: they import the
    # five node classes and nothing else of the package, and read no private
    # attribute (the cache slots among them).
    tree = ast.parse(Path(__file__).with_name("references.py").read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "selfred":
            taken |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "selfred" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            assert not node.attr.startswith("_"), node.attr
    assert taken == {"Const", "Var", "Not", "And", "Or"}


def test_style_tables_hold_every_style():
    # Tests iterate these tables, so a style or mode dropped from one would
    # drop out of every test that reads it.
    assert selfred.oracles.SELECTOR_STYLES == ("honest", "adversarial")
    assert selfred.oracles.TALLY_STYLES == ("canonical", "collision_rich", "spread")
    assert selfred.oracles.SPARSE_STYLES == ("singleton", "scatter")
    assert selfred.oracles.ENUMERATOR_STYLES == ("exact_plus_offset", "woeginger")
    assert selfred.pruning.SPARSE_MODES == ("early_accept", "capped_continue")
