import pytest

from holobound import (
    WeightFunction,
    disk_rule,
    truncated_plane_rule,
    truncation_radius,
)


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

