"""The names the benchmark harness in perfbench/ takes from sphere_reg still exist.

perfbench/ is read as text only: the worker's imports and the tracer's
TARGETS are parsed with ast, then resolved against the package, so a
refactor that renames or removes one of them fails here instead of in a
benchmark run.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def parse(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def resolve(module_name, dotted_attr):
    """The object at module_name.dotted_attr; submodules are imported on the way."""
    obj = importlib.import_module(module_name)
    path = module_name
    for part in dotted_attr.split("."):
        path = f"{path}.{part}"
        if not hasattr(obj, part) and inspect.ismodule(obj):
            importlib.import_module(path)
        obj = getattr(obj, part)
    return obj


def worker_imports():
    """(module, name) for every name perfbench/worker.py imports from sphere_reg."""
    found = []
    for node in ast.walk(parse("worker.py")):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "sphere_reg":
                found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "sphere_reg" and rest:
                    found.append((head, rest))
    return found


def tracer_targets():
    for node in parse("tracer.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


WORKER_IMPORTS = sorted(set(worker_imports()))
TRACER_TARGETS = tracer_targets()


def test_surface_is_nonempty():
    assert len(WORKER_IMPORTS) >= 10
    assert len(TRACER_TARGETS) >= 10


@pytest.mark.parametrize("module, name", WORKER_IMPORTS)
def test_worker_import_resolves(module, name):
    resolve(module, name)


@pytest.mark.parametrize("module, attr, span", TRACER_TARGETS)
def test_tracer_target_resolves(module, attr, span):
    assert callable(resolve(f"sphere_reg.{module}", attr))


def test_selection_name_binds_both_grids():
    # The tracer names a select_two_step span by binding its arguments and
    # expanding alpha_grid and lambda_grid through selection.grid_values.
    selection = importlib.import_module("sphere_reg.selection")
    signature = inspect.signature(selection.select_two_step)
    args = tuple(range(len(signature.parameters)))
    bound = signature.bind(*args)
    assert bound.arguments["alpha_grid"] == 4
    assert bound.arguments["lambda_grid"] == 5
    assert len(selection.grid_values([0.0, 1.0])) == 2
