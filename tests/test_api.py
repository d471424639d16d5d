"""The package's export lists name only what exists."""

import ast
import importlib
import inspect

import pytest

import growthtail

MODULES = ["cli", "duality", "errors", "mc", "models", "riccati"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"growthtail.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(inspect.getsource(growthtail))
    names = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(growthtail, n)] == []


def test_star_import():
    namespace = {}
    exec("from growthtail import *", namespace)
    assert {"DualCurve", "LinearFactor1D", "solve_care", "simulate_paths"} <= set(namespace)
