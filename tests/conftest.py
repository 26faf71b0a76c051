import numpy as np
import pytest

from scma_vlc import SystemParams, load_fixture
from scma_vlc.model import codebook_set_from_constellations


@pytest.fixture(scope="session")
def ls_j3():
    return load_fixture("ls-j3")


@pytest.fixture(scope="session")
def dr_j3():
    return load_fixture("dr-j3")


def random_codebook_set(J, seed, varsigma2=5.0, Pe=30.0, sigma2=0.01, K=4):
    """A feasible random codebook set for property tests."""
    rng = np.random.default_rng(seed)
    params = SystemParams(J=J, K=K, sigma2=sigma2, varsigma2=varsigma2, Pe=Pe)
    books = []
    for _ in range(J):
        C = rng.uniform(0.01, np.sqrt(Pe), size=(params.N, params.M))
        p = np.sum(C * C) / params.M
        if p > Pe:
            C = C * np.sqrt(Pe / p)
        books.append(C)
    return codebook_set_from_constellations(params, books)
