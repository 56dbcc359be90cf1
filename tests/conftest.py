import numpy as np
import pytest

from vectorgain.network import check_small_gain
from vectorgain.recipes import random_linear_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_verified_matrix(rng, n, coeff_max=1.2, max_tries=500):
    """Rejection-sample a max-linear matrix satisfying the small-gain test."""
    for _ in range(max_tries):
        G = random_linear_matrix(rng, n, coeff_max)
        if check_small_gain(G).holds:
            return G
    raise RuntimeError("could not sample a verified matrix")
