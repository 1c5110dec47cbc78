"""The export lists stay in step with the code: every name a module lists
in ``__all__`` exists, the package re-exports only listed names, the
checks that live in the tests' oracles module stay out of the package, and
no test module imports a name it never reads."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import holobound
from conftest import CACHES

MODULES = [importlib.import_module(f"holobound.{info.name}")
           for info in pkgutil.iter_modules(holobound.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_are_module_exports():
    listed = set().union(*(module.__all__ for module in MODULES))
    public = {name for name, value in vars(holobound).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - listed) == []


# test-only checks and closed forms that the package does not provide
TEST_ONLY = ["sb_kernel", "exp_taylor", "matching_normalized_gaussian", "gamma",
             "extremal_ratio", "verify_unitary", "verify_kernel_invariance",
             "validate_laplacian_bounds", "SampleFunction", "translated_pointwise_check",
             "weighted_norm_sq"]


def test_test_only_names_stay_out_of_the_package():
    owners = [holobound, *MODULES]
    leaked = sorted(f"{owner.__name__}.{name}"
                    for owner in owners for name in TEST_ONLY if hasattr(owner, name))
    assert leaked == []


def test_fixture_clears_every_cache():
    """The autouse fixture in conftest.py clears every functools cache of the
    package, module-level or on a class, so no test reads a result that an
    earlier test cached under other monkeypatched constants."""
    found = set()
    for module in MODULES:
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type) and v.__module__ == module.__name__]
        for owner in owners:
            for value in vars(owner).values():
                value = getattr(value, "__func__", value)  # staticmethod, classmethod
                if callable(value) and hasattr(value, "cache_clear"):
                    found.add(f"{value.__module__}.{value.__qualname__}")
    listed = {f"{c.__module__}.{c.__qualname__}" for c in CACHES}
    assert "holobound.potential.phi_at_origin" in found
    assert sorted(found - listed) == []


TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    """Every name a test module imports is read somewhere in it, unless its
    line says ``# noqa: F401``; a stale import keeps a package name looking
    used by the tests."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and "noqa: F401" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    assert sorted((line, name) for name, line in imported.items() if name not in read) == []
