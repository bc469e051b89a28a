import ast
import importlib
import inspect
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
USER_API = {"evaluate"}


def test_every_exported_kernel_function_has_a_caller():
    modules = [importlib.import_module(f"selfred.{name}") for name in CONSUMERS]
    bound = [value for module in modules for value in vars(module).values()]
    exported = [getattr(selfred, name) for name in selfred.__all__]
    kernel = [f for f in exported if inspect.isfunction(f) and f.__module__ == "selfred.formula"]
    assert kernel
    uncalled = [f.__name__ for f in kernel if not any(f is value for value in bound)]
    assert set(uncalled) <= USER_API


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
