import pytest

from holobound import (
    WeightFunction,
    disk_rule,
    potential,
    quadrature,
    truncated_plane_rule,
    truncation_radius,
)

# every functools cache in the package; tests/test_exports.py checks that the
# list misses none
CACHES = (
    quadrature.clenshaw_curtis,
    potential.phi_at_origin,
)


def clear_caches():
    for cached in CACHES:
        cached.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_caches():
    # a test that monkeypatches a module constant (MODE_TAIL, CONDITION_LIMIT,
    # ORIGIN_INTERVALS, ...) must not read a result cached by an earlier test
    clear_caches()


@pytest.fixture(scope="session")
def unit_disk_rule():
    return disk_rule(0.0, 1.0, 64, 128)


@pytest.fixture(scope="session")
def gauss1():
    return WeightFunction.gaussian(1.0)


@pytest.fixture(scope="session")
def gauss1_rule(gauss1):
    # covers the degree-40 truncation hint of the unit Gaussian
    return truncated_plane_rule(truncation_radius(gauss1, 40), 256, 512)
