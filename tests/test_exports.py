"""The export lists stay in step with the code: every name a module lists
in ``__all__`` exists, the package re-exports only listed names, and the
checks that live in the tests' oracles module stay out of the package."""

import importlib
import pkgutil
import types

import pytest

import holobound

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
             "validate_laplacian_bounds"]


def test_test_only_names_stay_out_of_the_package():
    owners = [holobound, *MODULES, holobound.SampleFunction]
    leaked = sorted(f"{owner.__name__}.{name}"
                    for owner in owners for name in TEST_ONLY if hasattr(owner, name))
    assert leaked == []
