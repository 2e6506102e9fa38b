import numpy as np
import pytest
from hypothesis import settings

from mtload import QuadrupoleField, chromium52

# Property tests draw the same examples on every run, and no example
# database carries failures from one run into the next.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def cr():
    return chromium52()


@pytest.fixture
def field():
    return QuadrupoleField(gradient=0.1)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
