import numpy as np
import pytest


def random_sphere(rng, n, dim):
    x = rng.standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.fixture
def sphere_points():
    return random_sphere


def set_at(basis, ell):
    """The basis's fundamental set of frequency ``ell``."""
    (fs,) = [fs for fs in basis.sets if fs.frequency == ell]
    return fs
