import pytest

from uav_twoway import candidate_configurations, default_config, validate_and_derive


@pytest.fixture(scope="session")
def setup():
    return validate_and_derive(default_config())


@pytest.fixture(scope="session")
def params(setup):
    return setup[0]


@pytest.fixture(scope="session")
def derived(setup):
    return setup[1]


@pytest.fixture(scope="session")
def candidates():
    return candidate_configurations()
