"""The benchmark tooling under perfbench/ reaches into morp by name."""

import ast
import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")


def tracer_targets():
    """The (module, attribute path) pairs of perfbench/tracer.py TARGETS,
    read from its source without importing it."""
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("module,attr", tracer_targets())
def test_tracer_target_resolves(module, attr):
    # the tracer wraps every target with getattr; a missing one crashes
    # a traced benchmark run
    owner = importlib.import_module("morp." + module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def perfbench_imports():
    """(module, name) of every ``from morp.<module> import <name>`` in
    perfbench/*.py, read from the sources without importing them."""
    here = os.path.dirname(TRACER)
    found = set()
    for fname in sorted(os.listdir(here)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(here, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").startswith("morp."):
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


@pytest.mark.parametrize("module,name", perfbench_imports())
def test_perfbench_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_for_annotation_signature():
    # perfbench/selfcheck.py calls for_annotation(aid, track, U, epoch)
    import inspect

    from morp.predictor import FilePredictor

    params = list(inspect.signature(FilePredictor.for_annotation).parameters)
    assert params == ["self", "annotation_id", "track", "U", "epoch"]
