import numpy as np
import pytest

from photonflow import GridSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


@pytest.fixture
def spec16():
    return GridSpec(16, 2.0 * np.pi)


@pytest.fixture
def spec8():
    return GridSpec(8, 2.0 * np.pi)


@pytest.fixture
def spin_matrices():
    """The spin-1 matrices (s_a)_{jk} = -i eps_{ajk} of the paper's J = c phi^dag s phi."""
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c], eps[a, c, b] = 1.0, -1.0
    return -1j * eps
