import os

# one BLAS thread, as the CLI's deterministic mode: on a small host the
# default thread pool makes the BLAS-heavy tests several times slower
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

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
