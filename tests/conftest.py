import numpy as np
import pytest

from hrrpgnn.data import make_benchmark, toy_two_class_specs


@pytest.fixture(scope="session")
def toy_benchmark():
    """Small 2-class train/test pair shared by the training-loop tests."""
    return make_benchmark(toy_two_class_specs(32), per_class=50, n_cells=32, seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
